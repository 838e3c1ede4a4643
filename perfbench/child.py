"""Child processes of the benchmark; every timed repetition starts in one.

    child.py setup SPEC            import cyclechain, build SPEC's graphs, print the time
    child.py family SPEC OUT       verify_instance on each of SPEC's graphs
    child.py family_jobs2 SPEC OUT verify_family(*SPEC bounds, jobs=SPEC jobs)
    child.py cli SPANS OP ARGS...  cyclechain's CLI on ARGS with spans, written to SPANS

SPEC and OUT are JSON files.  With "trace" set in SPEC, spans are recorded
around every call into cyclechain (see spans.py) and written into OUT.
The package is imported from src/ of the working directory.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))


def _graph(g):
    from cyclechain import build_chain_graph

    r, m, forest = g
    return build_chain_graph(r, m, forest)


def _check_results(report):
    return {
        "statuses": {c.name: c.status for c in report.checks + report.notes},
        "elapsed": {c.name: c.elapsed for c in report.checks + report.notes},
    }


def _peak_rss_mb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def setup(spec):
    start = time.perf_counter()
    import cyclechain  # noqa: F401

    for g in spec["graphs"]:
        _graph(g)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _recorder(spec):
    if not spec.get("trace"):
        return None
    import spans

    rec = spans.Recorder()
    spans.install(rec)
    return rec


def family(spec):
    rec = _recorder(spec)
    from cyclechain import verify_instance

    graphs = [_graph(g) for g in spec["graphs"]]
    ops = []
    loop_start = time.perf_counter()
    for g in graphs:
        start = time.perf_counter()
        try:
            op = _check_results(verify_instance(g))
        except Exception as e:  # an op that raises is a failed op, not a failed run
            op = {"error": f"{type(e).__name__}: {e}"}
        op["latency_s"] = time.perf_counter() - start
        ops.append(op)
    wall = time.perf_counter() - loop_start
    return {"ops": ops, "wall_s": wall, "jobs": 1, "records": [rec.to_json()] if rec else []}


def family_jobs2(spec):
    rec = _recorder(spec)
    from cyclechain import verify_family

    workers = spec.get("worker_dir")
    if rec:
        rec.follow_forks(workers)
    rmax, mmax, tmax = spec["bounds"]
    start = time.perf_counter()
    try:
        reports = verify_family(rmax, mmax, tmax, jobs=spec["jobs"])
    except Exception as e:
        return {"error": f"{type(e).__name__}: {e}", "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    ops = []
    for rep in reports:
        op = _check_results(rep)
        op["instance"] = [rep.instance["r"], rep.instance["m"], rep.instance["t"]]
        # Per-op wall latency is hidden inside the pool; the service time
        # a worker spent on the instance is what can be observed.
        op["latency_s"] = sum(op["elapsed"].values())
        ops.append(op)
    records = []
    if rec:
        records.append(rec.to_json())
        for name in sorted(os.listdir(workers)):
            with open(os.path.join(workers, name)) as fh:
                records.append(json.load(fh))
    return {"ops": ops, "wall_s": wall, "jobs": spec["jobs"], "records": records}


def cli(span_path, op_key, argv):
    import spans

    rec = spans.Recorder()
    spans.install(rec)
    rec.op = op_key
    from cyclechain import cli as cyclechain_cli

    try:
        code = cyclechain_cli.main(argv)
    finally:
        rec.dump(span_path)
    return code


def main():
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    if mode == "setup":
        setup(spec)
        return
    result = {"family": family, "family_jobs2": family_jobs2}[mode](spec)
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(sys.argv[3], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
