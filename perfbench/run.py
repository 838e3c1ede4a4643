"""Benchmark for cyclechain, driven only through its public API and CLI.

Run from the root of a checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload family --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (each a closed loop from one process; why each was chosen is in
BENCHMARK.json and perfbench/README.md):

    family        verify_instance on one graph per class of the 4,5,3 family
    family_jobs2  verify_family(4, 4, 3, jobs=2)
    ladder        trees, fvector, hilbert, certify CLI commands on six graphs
    limits        CLI requests at the edge of the accepted range

A run makes a fixed number of whole rounds of its workload (ROUNDS_AT_10_S,
scaled by --seconds), so every run of a workload does the same work.  Every
round of in-process work and every CLI command starts in a fresh process,
so no lru_cache is warm.  Children run under an address-space limit and a
timeout.

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (spans from perfbench/spans.py).
"""

import argparse
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from spans import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = "src"
OUT = ".perfbench_out"

# Above the ~0.36 GB that hilbert --expand 2000, the largest legitimate op,
# needs; an allocation of 2^tau entries for tau >= 28 fails fast under it.
MEMORY_LIMIT = 1 << 30
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0
SETUP_PROBES = 7
# Whole rounds per run at --seconds 10 (scaled linearly, at least one), so
# every run of a workload does the same work.  A family round (~32 s) and a
# ladder round (~45 s) cannot be cut; the ~3.5 s rounds repeat so that
# ops_per_s is a median over rounds.  Four limits rounds keep its tail
# below the 2 failed ops a round makes at the first baseline.
ROUNDS_AT_10_S = {"family": 1, "family_jobs2": 5, "ladder": 1, "limits": 4}
WORKLOADS = tuple(ROUNDS_AT_10_S)
DOCUMENTED_EXITS = (0, 2, 3, 4, 5)
CHECKS = ("trees", "count", "fvector", "hilbert", "covers", "decomposition", "cm")
NOTES = ("fvector_paper", "intersections")
LADDER = [
    (2, [3, 4], 4),
    (4, [5] * 4, 3),
    (5, [5] * 5, 0),
    (6, [4] * 6, 0),
    (4, [8] * 4, 0),
    (3, [12] * 3, 0),
]
JOBS2_BOUNDS = (4, 4, 3)


# ----------------------------------------------------------------- inputs


def _forest(rng, m, t):
    """t forest edges at random attachment vertices, or 0 for no forest."""
    if t == 0:
        return 0
    cycle_vertices = sum(m) - 2 * len(m) + 2
    return [rng.randrange(cycle_vertices + k) for k in range(t)]


def family_graphs(seed):
    """One graph per (r, multiset of m, t) class with r <= 4, m_i in 3..5,
    t <= 3; the seed orders m inside the class and places the forest."""
    rng = random.Random(seed)
    out = []
    for r in range(1, 5):
        for ms in itertools.combinations_with_replacement(range(3, 6), r):
            for t in range(4):
                m = list(ms)
                rng.shuffle(m)
                out.append((r, m, _forest(rng, m, t)))
    return _spread(out)


def _spread(ops):
    """A fixed stride through ops.  Each cost class is then spread over the
    whole round, so the median and the tail do not sample the host during
    one short stretch of it (host speed drifts over seconds)."""
    step = next(k for k in (37, 17, 7, 5, 3, 1) if math.gcd(k, len(ops)) == 1)
    return [ops[i * step % len(ops)] for i in range(len(ops))]


class Op:
    """One CLI command and what a correct answer to it is."""

    def __init__(self, kind, graph, argv, expect="ok", expand=None):
        self.kind = kind
        self.graph = graph  # (r, m, forest) or None when it cannot be built
        self.argv = argv
        self.expect = expect  # "ok" or "capacity" (exit 3 with an error line)
        self.expand = expand


def _graph_args(graph, name):
    r, m, forest = graph
    if isinstance(forest, list):
        path = os.path.join(OUT, f"graph-{name}.json")
        with open(path, "w") as fh:
            json.dump({"r": r, "m": m, "forest": {"attach": forest}}, fh)
        return ["--spec", path]
    return ["--r", str(r), "--m", ",".join(map(str, m)), "--t", str(forest)]


def ladder_ops(seed):
    """certify once, trees twice, fvector and hilbert three times on every
    ladder graph (five times on r=6): 58 CLI commands.

    certify is four fifths of the round, so it runs once.  The repeats put
    the median inside the 35 quick queries and the tail (11th slowest)
    inside the ten r=6 f-vector queries, not on an edge between two groups
    of unlike ops, where host noise would swap which op is read."""
    rng = random.Random(seed)
    ops = []
    for i, (r, m, t) in enumerate(LADDER):
        if rng.random() < 0.5:
            m = m[::-1]
        graph = (r, m, _forest(rng, m, t))
        args = _graph_args(graph, f"ladder{i}")
        for cmd, times in (("trees", 2), ("fvector", 3), ("hilbert", 3), ("certify", 1)):
            if r == 6 and cmd in ("fvector", "hilbert"):
                times = 5
            ops += [Op(cmd, graph, [cmd, *args])] * times
    return _spread(ops)


def limits_ops(seed):
    rng = random.Random(seed)

    def shuffled(m):
        m = list(m)
        rng.shuffle(m)
        return m

    m = shuffled([4, 5, 6])
    expand_graph = (3, m, _forest(rng, m, 2))
    expand_args = _graph_args(expand_graph, "expand")
    ops = [
        Op("hilbert", expand_graph, ["hilbert", *expand_args, "--expand", str(n)], expand=n)
        for n in (1000, 1500, 2000)
    ]
    # tau = r(r+1)/2 = 21 is the largest the f-vector cap admits.
    g6 = (6, shuffled([3, 3, 4, 4, 5, 5]), 0)
    ops.append(Op("fvector", g6, ["fvector", *_graph_args(g6, "r6")]))
    for r, m in ((7, [3, 3, 3, 4, 4, 4, 5]), (8, [3, 3, 3, 4, 4, 4, 5, 5])):
        g = (r, shuffled(m), 0)
        ops.append(Op("fvector", g, ["fvector", *_graph_args(g, f"r{r}")], "capacity"))
    # Two cycles with m1 + m2 = 67 need 66 edges; the ground set holds 64.
    m1 = rng.randint(3, 64)
    ops.append(
        Op("fvector", None, ["fvector", "--r", "2", "--m", f"{m1},{67 - m1}"], "capacity")
    )
    return ops


def input_graphs(workload, seed):
    """Every graph the workload's ops build, for the set-up probes."""
    if workload == "family":
        return family_graphs(seed)
    if workload == "family_jobs2":
        from cyclechain import family_instances

        return [(r, list(m), t) for r, m, t in family_instances(*JOBS2_BOUNDS)]
    ops = ladder_ops(seed) if workload == "ladder" else limits_ops(seed)
    return [op.graph for op in ops if op.graph is not None]


# --------------------------------------------------------------- processes


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    timed_out: bool
    out: bytes
    err: str


def run_process(cmd, timeout):
    """Run cmd under the memory limit; its peak RSS comes from os.wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out_path, err_path = os.path.join(OUT, "stdout"), os.path.join(OUT, "stderr")
    killed = []

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, preexec_fn=_limit_memory)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, bool(killed), stdout, stderr)


class Clock:
    """The run's remaining time; a run must end within 180 s."""

    def __init__(self):
        self.start = time.perf_counter()

    def timeout(self, limit):
        return min(limit, RUN_BUDGET_S - (time.perf_counter() - self.start))


def run_child(mode, spec, clock, timeout):
    spec_path = os.path.join(OUT, f"spec-{mode}.json")
    out_path = os.path.join(OUT, f"result-{mode}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(out_path):
        os.remove(out_path)
    proc = run_process([sys.executable, CHILD, mode, spec_path, out_path], clock.timeout(timeout))
    result = None
    if proc.code == 0 and os.path.exists(out_path):
        with open(out_path) as fh:
            result = json.load(fh)
    return proc, result


def setup_seconds(workload, seed, clock):
    """Median over fresh processes of importing cyclechain and building
    every input graph of the workload."""
    spec = {"graphs": input_graphs(workload, seed)}
    samples = []
    for _ in range(SETUP_PROBES):
        proc, _ = run_child("setup", spec, clock, OP_TIMEOUT_S)
        if proc.code != 0:
            raise SystemExit(f"set-up probe failed: {proc.err.strip()}")
        samples.append(json.loads(proc.out)["setup_s"])
    return statistics.median(samples)


# ------------------------------------------------------------- correctness


@dataclass
class Outcome:
    """status is ok, crash (raised, killed, timed out, undocumented exit) or
    wrong (a documented answer that is incorrect).  Both of the last two
    are failed ops; only wrong makes the run incorrect."""

    status: str
    latency: float
    reason: str = ""


def check_report(statuses, r):
    """Every check matches, except the documented covers gap: covers is a
    mismatch exactly when r >= 2.  No check may be skipped."""
    for name in CHECKS:
        want = "mismatch" if name == "covers" and r >= 2 else "match"
        if statuses.get(name) != want:
            return f"check {name} is {statuses.get(name)}, expected {want}"
    for name in NOTES:
        if statuses.get(name) not in ("match", "mismatch"):
            return f"note {name} is {statuses.get(name)}"
    return ""


class References:
    """Answers computed outside the timed region, once per graph."""

    def __init__(self):
        self.graphs, self.trees, self.ideals, self.fvectors = {}, {}, {}, {}

    def graph(self, spec):
        key = json.dumps(spec)
        if key not in self.graphs:
            from cyclechain import build_chain_graph

            self.graphs[key] = build_chain_graph(*spec)
        return self.graphs[key]

    def tree_count(self, g):
        if g not in self.trees:
            from cyclechain import count_trees_kirchhoff

            self.trees[g] = count_trees_kirchhoff(g)
        return self.trees[g]

    def facet_ideal(self, g):
        if g not in self.ideals:
            from cyclechain import facet_ideal, spanning_complex

            self.ideals[g] = facet_ideal(spanning_complex(g))
        return self.ideals[g]

    def oracle_fvector(self, g):
        """f-vector by literal face enumeration (small graphs only)."""
        if g not in self.fvectors:
            from cyclechain import oracle

            trees = oracle.spanning_tree_masks(g.endpoints, g.num_vertices)
            self.fvectors[g] = oracle.downset_face_counts(trees)
        return self.fvectors[g]


def hilbert_from_f(f, upto):
    """HF(0) = 1, HF(j) = sum_s f_s C(j-1, s)."""
    return [1] + [sum(fs * math.comb(j - 1, s) for s, fs in enumerate(f)) for j in range(1, upto + 1)]


def check_answer(op, obj, refs, round_f):
    """'' when the CLI's JSON answer to op is correct, else the reason."""
    g = refs.graph(op.graph)
    trees = refs.tree_count(g)
    if op.kind == "trees":
        listed = {tuple(t) for t in obj["trees"]}
        if obj["count"] != trees or len(obj["trees"]) != trees or len(listed) != trees:
            return f"tree count {obj['count']} != Kirchhoff {trees}"
    elif op.kind == "fvector":
        f = obj["f"]
        if len(f) != g.num_vertices - 1 or f[0] != g.n or f[-1] != trees:
            return f"f-vector ends {f[:1]}..{f[-1:]} vs n={g.n}, trees={trees}"
        round_f[json.dumps(op.graph)] = f
    elif op.kind == "hilbert":
        upto = op.expand if op.expand is not None else 10
        # The f-vector the round's fvector op printed and passed with, or
        # for a graph no fvector op covers, literal face enumeration.
        f = round_f.get(json.dumps(op.graph))
        if f is None:
            if g.n > 20:
                return "no checked f-vector to compare against"
            f = refs.oracle_fvector(g)
        if obj["expansion"] != hilbert_from_f(f, upto):
            return "Hilbert expansion != sum_s f_s C(j-1, s)"
    elif op.kind == "certify":
        from cyclechain import QuotientCertificate, replay_certificate

        index = {str(label): i for i, label in enumerate(g.labels)}
        cert = QuotientCertificate(
            tuple(obj["ordering_indices"]), tuple(index[w] for w in obj["witnesses"])
        )
        if obj["steps"] != trees or sorted(cert.ordering) != list(range(trees)):
            return f"certificate has {obj['steps']} steps for {trees} trees"
        if not obj["replayed"] or not replay_certificate(refs.facet_ideal(g), cert):
            return "certificate does not replay"
    return ""


def judge_cli(op, proc, refs, round_f):
    if proc.timed_out:
        return Outcome("crash", OP_TIMEOUT_S, "timed out")
    if proc.code not in DOCUMENTED_EXITS:
        last = proc.err.strip().splitlines()[-1:] or [""]
        return Outcome("crash", OP_TIMEOUT_S, f"exit {proc.code}: {last[0][:120]}")
    if op.expect == "capacity":
        if proc.code == 3 and proc.err.startswith("error:") and "Traceback" not in proc.err:
            return Outcome("ok", proc.wall)
        return Outcome("wrong", OP_TIMEOUT_S, f"over-cap request exited {proc.code}")
    if proc.code != 0:
        return Outcome("wrong", OP_TIMEOUT_S, f"exit {proc.code}: {proc.err.strip()[:120]}")
    try:
        reason = check_answer(op, json.loads(proc.out), refs, round_f)
    except (ValueError, KeyError, TypeError) as e:
        reason = f"malformed output: {e}"
    return Outcome("wrong" if reason else "ok", proc.wall if not reason else OP_TIMEOUT_S, reason)


# --------------------------------------------------------------- workloads


@dataclass
class Run:
    """What one run measured: outcomes, wall time, peaks and trace records."""

    outcomes: list = field(default_factory=list)
    wall: float = 0.0
    round_rates: list = field(default_factory=list)  # correct ops / s per round
    rss_mb: float = 0.0
    records: list = field(default_factory=list)  # (CLI op wall or None, span record)
    check_s: dict = field(default_factory=dict)
    busy: list = field(default_factory=list)  # (check seconds, jobs * wall) per round
    stdout_bytes: list = field(default_factory=list)


def run_in_process(workload, seed, rounds, trace, clock):
    run = Run()
    if workload == "family":
        graphs = family_graphs(seed)
        spec = {"graphs": graphs, "trace": trace}
        expected = [g[0] for g in graphs]
    else:
        worker_dir = os.path.join(OUT, "workers")
        spec = {"bounds": JOBS2_BOUNDS, "jobs": 2, "trace": trace, "worker_dir": worker_dir}
        from cyclechain import family_instances

        expected = [r for r, _, _ in family_instances(*JOBS2_BOUNDS)]
    for _ in range(rounds):
        if trace and workload == "family_jobs2":
            shutil.rmtree(worker_dir, ignore_errors=True)
            os.makedirs(worker_dir)
        proc, result = run_child(workload, spec, clock, RUN_BUDGET_S)
        run.rss_mb = max(run.rss_mb, proc.rss_mb)
        if result is None or "error" in result:
            why = result["error"] if result else f"exit {proc.code}: {proc.err.strip()[-200:]}"
            run.outcomes += [Outcome("crash", OP_TIMEOUT_S, why)] * len(expected)
            run.wall += proc.wall
            run.round_rates.append(0.0)
            continue
        run.wall += result["wall_s"]
        run.rss_mb = max(run.rss_mb, result["peak_rss_mb"])
        ops = result["ops"]
        if len(ops) != len(expected):
            run.outcomes += [Outcome("wrong", OP_TIMEOUT_S, f"{len(ops)} reports")] * len(expected)
            run.round_rates.append(0.0)
            continue
        total = 0.0
        first = len(run.outcomes)
        for r, op in zip(expected, ops):
            if "error" in op:
                run.outcomes.append(Outcome("crash", OP_TIMEOUT_S, op["error"]))
                continue
            reason = check_report(op["statuses"], r)
            if op.get("instance", [r])[0] != r:
                reason = f"report for {op['instance']} out of family order"
            run.outcomes.append(Outcome("wrong" if reason else "ok", op["latency_s"], reason))
            for name, s in op["elapsed"].items():
                run.check_s[name] = run.check_s.get(name, 0.0) + s
                total += s
        correct = sum(o.status == "ok" for o in run.outcomes[first:])
        run.round_rates.append(correct / result["wall_s"])
        run.busy.append((total, result["jobs"] * result["wall_s"]))
        run.records += [(None, rec) for rec in result["records"]]
    return run


def run_cli_workload(workload, seed, rounds, trace, clock):
    run = Run()
    ops = ladder_ops(seed) if workload == "ladder" else limits_ops(seed)
    refs = References()
    done = []
    span_path = os.path.join(OUT, "spans.json")
    start = time.perf_counter()
    round_walls = []
    for rnd in range(rounds):
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            if trace:
                key = f"{rnd}.{i}"
                cmd = [sys.executable, CHILD, "cli", span_path, key, *op.argv]
                if os.path.exists(span_path):
                    os.remove(span_path)
            else:
                cmd = [sys.executable, "-m", "cyclechain.cli", *op.argv]
            proc = run_process(cmd, clock.timeout(OP_TIMEOUT_S))
            done.append((rnd, op, proc))
            if trace and os.path.exists(span_path):
                with open(span_path) as fh:
                    run.records.append((proc.wall, json.load(fh)))
        round_walls.append(time.perf_counter() - round_start)
    run.wall = time.perf_counter() - start
    # Answers are checked after the timed loop, fvector ops first, so a
    # hilbert op is checked against the f-vector its round printed.
    round_f = {}
    correct = [0] * rounds
    for rnd, op, proc in sorted(done, key=lambda d: d[1].kind != "fvector"):
        outcome = judge_cli(op, proc, refs, round_f.setdefault(rnd, {}))
        run.outcomes.append(outcome)
        correct[rnd] += outcome.status == "ok"
        run.rss_mb = max(run.rss_mb, proc.rss_mb)
        run.stdout_bytes.append(len(proc.out))
    run.round_rates = [c / w for c, w in zip(correct, round_walls)]
    return run


def measure(workload, seed, seconds, trace, clock):
    rounds = max(1, round(ROUNDS_AT_10_S[workload] * seconds / 10))
    if workload in ("family", "family_jobs2"):
        return run_in_process(workload, seed, rounds, trace, clock)
    return run_cli_workload(workload, seed, rounds, trace, clock)


# ----------------------------------------------------------------- metrics


def tail(latencies):
    """(percentile, latency) at the highest percentile with at least ten
    samples beyond it, never below the median.  The latency is the mean of
    the five order statistics centred on that rank: a single one jumps when
    host noise swaps two ops across a gap between classes of ops."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 21 else (len(xs) - 1) // 2
    return 100.0 * (k + 1) / len(xs), statistics.mean(xs[max(0, k - 2):k + 3])


def end_to_end(run, setup_s):
    attempted = len(run.outcomes)
    failed = sum(o.status != "ok" for o in run.outcomes)
    lat = [o.latency for o in run.outcomes]
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(run.round_rates), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"op_tail_s is p{pct:.1f} of {attempted} samples",
        f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} ops)",
    ]
    return metrics, notes


TIMED = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer(workload, run, traced_ops_per_s, untraced_ops_per_s, startup_s):
    ops = len(run.outcomes)
    total, calls, counts, peaks = {}, {}, {}, {}
    oracle_calls = {}
    overheads = []
    for i, (wall, rec) in enumerate(run.records):
        for name, start, end, parent, op in rec["spans"]:
            total[name] = total.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("oracle."):
                k = (i, json.dumps(op), name)
                oracle_calls[k] = oracle_calls.get(k, 0) + 1
        for name, v in rec["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in rec["peaks"].items():
            peaks[name] = max(peaks.get(name, 0.0), v)
        if wall is not None:
            library = sum(end - start for _, start, end, parent, _ in rec["spans"] if parent == -1)
            overheads.append(wall - library)
    m = {}
    for name in TIMED + ["hilbert.expand"]:
        if name not in ("verify.verify_instance", "verify.verify_family"):
            m[name + "_s"] = (total.get(name, 0.0) / ops, "s/op")
    for name in ("oracle.faces", "spanning.trees", "ideal.generators", "util.binom_calls"):
        m[name] = (counts.get(name, 0) / ops, "count/op")
    m["util.binom_s"] = (counts.get("util.binom_s", 0.0) / ops, "s/op")
    m["oracle.repeat_calls"] = (sum(n - 1 for n in oracle_calls.values()) / ops, "count/op")
    for name in ("simplicial.f_vector_exact", "hilbert.expand"):
        m[name + "_peak_mb"] = (peaks.get(name, 0.0), "MB")
    for name in CHECKS + NOTES:
        m[f"verify.check.{name}_s"] = (run.check_s.get(name, 0.0) / ops, "s/op")
    busy = sum(b for b, _ in run.busy) / sum(w for _, w in run.busy) if run.busy else 0.0
    m["verify.pool_busy_frac"] = (busy, "ratio")
    m["cli.startup_s"] = (startup_s, "s")
    m["cli.overhead_s"] = (statistics.mean(overheads) if overheads else 0.0, "s/op")
    m["cli.stdout_bytes"] = (statistics.mean(run.stdout_bytes) if run.stdout_bytes else 0.0, "count/op")
    m["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    m["trace.overhead_ops_per_s"] = (traced_ops_per_s - untraced_ops_per_s, "1/s")

    problems = []
    if workload == "family":
        for name in ("oracle.downset_faces", "oracle.minimal_hitting_sets", "ideal.intersect_primes"):
            if not calls.get(name):
                problems.append(f"family recorded no call to {name}")
    if workload == "ladder":
        if not calls.get("ideal.quasi_linear_certificate"):
            problems.append("ladder recorded no call to ideal.quasi_linear_certificate")
        oracle = sum(v for k, v in calls.items() if k.startswith("oracle."))
        if oracle:
            problems.append(f"ladder recorded {oracle} calls into oracle")
    return m, problems


def cli_startup_s(clock):
    """Median wall time of the smallest CLI command in a fresh process."""
    cmd = [sys.executable, "-m", "cyclechain.cli", "gen", "--r", "1", "--m", "3"]
    return statistics.median(run_process(cmd, clock.timeout(OP_TIMEOUT_S)).wall for _ in range(5))


# -------------------------------------------------------------------- main


def result_line(run, metrics):
    failed = sum(o.status != "ok" for o in run.outcomes)
    return {
        "correct": all(o.status != "wrong" for o in run.outcomes),
        "attempted": len(run.outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(workload, run, metrics, notes):
    print(f"== {workload}: {len(run.outcomes)} ops in {run.wall:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    reasons = {}
    for o in run.outcomes:
        if o.status != "ok":
            reasons[(o.status, o.reason)] = reasons.get((o.status, o.reason), 0) + 1
    for (status, reason), n in sorted(reasons.items()):
        print(f"  {status} x{n}: {reason}")


def _untraced_path(workload, seconds, seed):
    return os.path.join(OUT, f"untraced-{workload}-{seconds}-{seed}.json")


def untraced_ops_per_s(workload, seed, seconds, clock):
    """Median ops_per_s of the untraced runs of this workload and length
    saved in this checkout; measured now if there are none."""
    prefix = os.path.basename(_untraced_path(workload, seconds, ""))
    saved = []
    for name in os.listdir(OUT):
        if name.startswith(prefix):
            with open(os.path.join(OUT, name)) as fh:
                saved.append(json.load(fh)["ops_per_s"])
    if saved:
        return statistics.median(saved)
    run = measure(workload, seed, seconds, False, clock)
    return end_to_end(run, 0.0)[0]["ops_per_s"][0]


def run_one(workload, seed, seconds, trace):
    clock = Clock()
    if not trace:
        setup_s = setup_seconds(workload, seed, clock)
        run = measure(workload, seed, seconds, False, clock)
        metrics, notes = end_to_end(run, setup_s)
        with open(_untraced_path(workload, seconds, seed), "w") as fh:
            json.dump({"ops_per_s": metrics["ops_per_s"][0]}, fh)
        report(workload, run, metrics, notes)
        return result_line(run, metrics), []
    baseline = untraced_ops_per_s(workload, seed, seconds, clock)
    startup = cli_startup_s(clock)
    run = measure(workload, seed, seconds, True, clock)
    traced = end_to_end(run, 0.0)[0]["ops_per_s"][0]
    metrics, problems = per_layer(workload, run, traced, baseline, startup)
    report(workload + " (traced)", run, metrics, [])
    return result_line(run, metrics), problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cyclechain", "__init__.py")):
        print("error: run from the root of a cyclechain checkout (no src/cyclechain)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.abspath(SRC))
    os.makedirs(OUT, exist_ok=True)

    if args.workload != "all":
        line, problems = run_one(args.workload, args.seed, args.seconds, args.trace)
        if problems:
            print("error: traced-run coverage guard: " + "; ".join(problems), file=sys.stderr)
            sys.exit(1)
        print(json.dumps(line))
        return
    summary, failed = {}, False
    for workload in WORKLOADS:
        plain, _ = run_one(workload, args.seed, args.seconds, False)
        traced, problems = run_one(workload, args.seed, args.seconds, True)
        overhead = traced["metrics"]["trace.overhead_ops_per_s"]["value"]
        print(f"  tracing overhead: {overhead:+.4f} ops/s (traced minus untraced)")
        for problem in problems:
            print(f"  coverage guard: {problem}")
        failed |= bool(problems)
        summary[workload] = {"end_to_end": plain, "per_layer": traced}
    print(json.dumps(summary))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
