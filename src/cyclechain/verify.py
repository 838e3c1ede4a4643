"""Cross-checks between formula paths and oracle paths, per instance.

Seven checks can fail the instance:

    trees          characterized enumeration == brute-force enumeration
    count          count from the removal walk == Kirchhoff determinant
    fvector        inclusion-exclusion f-vector == faces of the brute-force trees
    hilbert        series expansion == HF(j) from those face counts, degrees 0..10
    covers         predicted minimal covers == exhaustive transversals
    decomposition  intersection of the oracle-cover primes == facet ideal
    cm             quotient certificate succeeds and replays

Two informational notes never fail anything: the pairwise-form f-vector
drift and the nine-row intersection predictor drift.  A check whose oracle
would outgrow its cap is reported as skipped, also without failing the
instance; mismatches are the only fatal status.

Each oracle runs at most once per instance, and reads only the graph:
one brute-force tree enumeration serves the trees check, the face oracle
and the cover oracle.  The fvector and hilbert checks share one face
count, and the covers and decomposition checks share one cover search,
through a per-instance context that keeps each answer (or the
SearchSpaceTooLarge it raised) for the next check that asks.  The check
that asks first carries the oracle's time in its elapsed.  A tree
enumeration over its cap therefore skips all four of them as well.  The
facet ideal (the listed trees) and the exact f-vector are kept the same
way, built only when a selected check reads them; over the cycle subset
limit the fvector and hilbert checks and the fvector_paper note, which
share the exact f-vector, are all skipped.

Every detail payload is plain JSON data so reports can cross process
boundaries and be emitted verbatim.
"""

import itertools
import os
import time
from dataclasses import dataclass

from . import hilbert, ideal, oracle, simplicial, spanning
from .chain_graph import ChainGraph, build_chain_graph, intersection_report
from .edgeset import EdgeSet
from .errors import SearchSpaceTooLarge

CHECK_NAMES = (
    "trees",
    "count",
    "fvector",
    "hilbert",
    "covers",
    "decomposition",
    "cm",
)
NOTE_NAMES = ("fvector_paper", "intersections")
HILBERT_DEGREES = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # match | mismatch | skipped
    elapsed: float
    detail: object = None


@dataclass(frozen=True)
class OracleReport:
    instance: dict
    checks: tuple[CheckResult, ...]
    notes: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "mismatch" for c in self.checks)

    def to_json(self) -> dict:
        """Deterministic payload: names, statuses and details, no timings."""

        def one(c: CheckResult) -> dict:
            out = {"name": c.name, "status": c.status}
            if c.detail is not None:
                out["detail"] = c.detail
            return out

        return {
            "instance": self.instance,
            "ok": self.ok,
            "checks": [one(c) for c in self.checks],
            "notes": [one(c) for c in self.notes],
        }


def labels_of(g: ChainGraph, s: EdgeSet) -> list[str]:
    return [str(g.label_of(i)) for i in s]


def _set_diff_detail(g, left_name, left, right_name, right):
    """Both counts plus the smallest member counted differently."""
    only_left = sorted(left - right)
    only_right = sorted(right - left)
    witness = min(only_left + only_right)
    side = left_name if witness in set(only_left) else right_name
    return {
        left_name: len(left),
        right_name: len(right),
        "witness": labels_of(g, g.edge_set(witness)),
        "witness_only_in": side,
    }


class _Context:
    """One instance's graph and caps, and the answers its checks share: the
    facet ideal, the exact f-vector and the oracles'.

    Each shared answer is computed on first use and kept, a raised
    SearchSpaceTooLarge included, so a second check reports the same
    answer or the same skip without running the oracle again, and a check
    that is not selected builds nothing it alone reads.
    """

    def __init__(self, g: ChainGraph, tree_cap: int, face_cap: int):
        self.g = g
        self.tree_cap = tree_cap
        self.face_cap = face_cap
        self._answers = {}

    def _once(self, key, compute):
        if key not in self._answers:
            try:
                self._answers[key] = (compute(), None)
            except SearchSpaceTooLarge as e:
                self._answers[key] = (None, e)
        value, error = self._answers[key]
        if error is not None:
            raise error
        return value

    def facet_ideal(self) -> ideal.MonomialIdeal:
        """The facet ideal of the production complex: its generators are
        the listed trees."""
        return self._once(
            "ideal", lambda: ideal.facet_ideal(simplicial.spanning_complex(self.g))
        )

    def exact_fvector(self) -> tuple[int, ...]:
        """The f-vector by inclusion-exclusion over the cycle subsets."""
        return self._once("exact", lambda: simplicial.f_vector_exact(self.g))

    def oracle_trees(self) -> list[int]:
        """The spanning trees' edge masks by brute-force search."""
        return self._once(
            "trees",
            lambda: oracle.spanning_tree_masks(
                self.g.endpoints, self.g.num_vertices, self.tree_cap
            ),
        )

    def face_fvector(self) -> tuple[int, ...]:
        """The f-vector of the brute-force trees' downset, from the face
        oracle."""
        return self._once(
            "faces",
            lambda: tuple(
                oracle.downset_face_counts(self.oracle_trees(), self.face_cap)
            ),
        )

    def oracle_covers(self) -> list[EdgeSet]:
        """The minimal vertex covers of the brute-force trees, by exhaustive
        transversal search."""
        return self._once(
            "covers",
            lambda: [
                self.g.edge_set(m)
                for m in oracle.minimal_hitting_sets(self.oracle_trees())
            ],
        )


def _check_trees(g, ctx):
    ref = set(ctx.oracle_trees())  # over its cap, skip before listing
    mine = {f.mask for f in ctx.facet_ideal().generators}
    if mine == ref:
        return "match", None
    return "mismatch", _set_diff_detail(g, "characterized", mine, "oracle", ref)


def _check_count(g, ctx):
    mine = spanning.count_trees_characterized(g)
    ref = oracle.kirchhoff_count(g.endpoints, g.num_vertices)
    if mine == ref:
        return "match", None
    return "mismatch", {"characterized": mine, "determinant": ref}


def _check_fvector(g, ctx):
    mine = ctx.exact_fvector()
    ref = ctx.face_fvector()
    if mine == ref:
        return "match", None
    # past the shorter vector's end, its fill value None differs
    pairs = itertools.zip_longest(mine, ref)
    bad = next(i for i, (a, b) in enumerate(pairs) if a != b)
    return "mismatch", {
        "exact": list(mine),
        "bruteforce": list(ref),
        "witness_index": bad,
    }


def _check_hilbert(g, ctx):
    series = hilbert.hilbert_series(ctx.exact_fvector())
    got = series.expand(HILBERT_DEGREES)
    want = hilbert._hilbert_function_from_faces(ctx.face_fvector(), HILBERT_DEGREES)
    if got == want:
        return "match", None
    bad = next(j for j in range(HILBERT_DEGREES + 1) if got[j] != want[j])
    return "mismatch", {"expansion": got, "oracle": want, "witness_degree": bad}


def _check_covers(g, ctx):
    mine = {s.mask for s in ideal.covers_lemma41(g)}
    ref = {s.mask for s in ctx.oracle_covers()}
    if mine == ref:
        return "match", None
    return "mismatch", _set_diff_detail(g, "predicted", mine, "oracle", ref)


def _check_decomposition(g, ctx):
    met = ideal.intersect_primes(ctx.oracle_covers(), g.n)
    mine = {s.mask for s in met.generators}
    ref = {s.mask for s in ctx.facet_ideal().generators}
    if mine == ref:
        return "match", None
    return "mismatch", _set_diff_detail(g, "intersection", mine, "facet_ideal", ref)


def _check_cm(g, ctx):
    fi = ctx.facet_ideal()
    verdict = ideal.cohen_macaulay_verdict(g, fi)
    if not verdict.certified:
        return "mismatch", {
            "verdict": verdict.detail,
            "step": verdict.failed_step,
            "mindeg": verdict.failed_mindeg,
        }
    if not ideal.replay_certificate(fi, verdict.certificate):
        return "mismatch", {"verdict": "certificate does not replay"}
    return "match", {"steps": len(verdict.certificate.ordering)}


def _note_fvector_paper(g, ctx):
    cmp = simplicial.f_vector_paper(g, ctx.exact_fvector())
    if cmp.agree:
        return "match", None
    return "mismatch", {
        "exact": list(cmp.exact),
        "pairwise_form": list(cmp.pairwise_form),
        "mismatched_indices": list(cmp.mismatched_indices),
    }


def _note_intersections(g, ctx):
    bad = [p for p in intersection_report(g) if not p.agree]
    if not bad:
        return "match", None
    return "mismatch", [
        {
            "a": list(p.a),
            "b": list(p.b),
            "exact": p.exact,
            "predicted": p.predicted,
            "row": p.row,
        }
        for p in bad
    ]


_RUNNERS = {
    "trees": _check_trees,
    "count": _check_count,
    "fvector": _check_fvector,
    "hilbert": _check_hilbert,
    "covers": _check_covers,
    "decomposition": _check_decomposition,
    "cm": _check_cm,
    "fvector_paper": _note_fvector_paper,
    "intersections": _note_intersections,
}


def _run(name, g, ctx) -> CheckResult:
    start = time.perf_counter()
    try:
        status, detail = _RUNNERS[name](g, ctx)
    except SearchSpaceTooLarge as e:
        status, detail = "skipped", str(e)
    return CheckResult(name, status, time.perf_counter() - start, detail)


def select_checks(checks) -> tuple[str, ...]:
    """The named checks in the given order, or all of them for None."""
    if checks is None:
        return CHECK_NAMES
    selected = tuple(checks)
    unknown = [c for c in selected if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid: {', '.join(CHECK_NAMES)}")
    return selected


def verify_instance(
    g: ChainGraph,
    checks=None,
    tree_cap: int = 10**6,
    face_cap: int = 1 << 24,
) -> OracleReport:
    """Run the selected checks (default: all) plus both notes."""
    selected = select_checks(checks)
    instance = {
        "r": g.r,
        "m": list(g.m),
        "t": g.t,
        "n": g.n,
        "attach": list(g.forest_attachments),
    }
    ctx = _Context(g, tree_cap, face_cap)
    results = tuple(_run(c, g, ctx) for c in selected)
    notes = tuple(_run(nm, g, ctx) for nm in NOTE_NAMES)
    return OracleReport(instance, results, notes)


def check_family_bounds(rmax: int, mmax: int, tmax: int) -> None:
    """ValueError unless the bounds admit at least one instance."""
    if rmax < 1 or mmax < 3 or tmax < 0:
        raise ValueError(f"family bounds ({rmax},{mmax},{tmax}) out of range")


def family_instances(rmax: int, mmax: int, tmax: int):
    """All (r, m, t) with r <= rmax, 3 <= m_i <= mmax, t <= tmax, sorted."""
    check_family_bounds(rmax, mmax, tmax)
    out = []
    for r in range(1, rmax + 1):
        for m in itertools.product(range(3, mmax + 1), repeat=r):
            for t in range(tmax + 1):
                out.append((r, m, t))
    return out


FAMILY_CHUNKSIZE = 4


def _pool_workers(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes for jobs requested over tasks work items: never
    more than the CPUs available or the chunks the items make."""
    chunks = -(-tasks // FAMILY_CHUNKSIZE)
    return max(1, min(jobs, cpus, chunks))


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dispatch_order(work) -> list[int]:
    """Indices of the work items, most edges first.  The oracle cover
    search grows with the edge count (sum(m) - (r - 1) + t), so the pool's
    last chunks are its cheapest and the workers finish together, instead
    of one running the largest instance while the other waits."""
    return sorted(
        range(len(work)),
        key=lambda i: sum(work[i][1]) - (work[i][0] - 1) + work[i][2],
        reverse=True,
    )


def _family_worker(args):
    r, m, t, checks, tree_cap, face_cap = args
    g = build_chain_graph(r, m, t)
    return verify_instance(g, checks, tree_cap, face_cap)


def verify_family(
    rmax: int,
    mmax: int,
    tmax: int,
    checks=None,
    jobs: int = 1,
    tree_cap: int = 10**6,
    face_cap: int = 1 << 24,
) -> list[OracleReport]:
    """Verify every instance of the family, optionally across processes.

    Reports come back in the deterministic family order regardless of
    worker scheduling.  The pool gets at most one worker per available CPU
    and per chunk of work, and is handed the largest instances first; a
    single worker runs in this process.
    """
    work = [
        (r, m, t, tuple(checks) if checks is not None else None, tree_cap, face_cap)
        for r, m, t in family_instances(rmax, mmax, tmax)
    ]
    workers = _pool_workers(jobs, len(work), _available_cpus())
    if workers == 1:
        return [_family_worker(w) for w in work]
    from concurrent.futures import ProcessPoolExecutor

    order = _dispatch_order(work)
    reports = [None] * len(work)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = pool.map(
            _family_worker, [work[i] for i in order], chunksize=FAMILY_CHUNKSIZE
        )
        for i, report in zip(order, done):
            reports[i] = report
    return reports
