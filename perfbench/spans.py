"""Spans around calls into cyclechain's public functions.

The wrappers are installed from outside the package: each one replaces the
original function on every cyclechain module that binds it, so a call made
through ``from .spanning import enumerate_trees_characterized`` inside
``simplicial`` is recorded as well as one made through ``spanning.``.
Spans stay in memory and are written out as JSON when the process is done.
"""

import functools
import json
import multiprocessing.util
import os
import resource
import sys
import time

# Public functions timed, by module.
TRACED = {
    "chain_graph": ("build_chain_graph",),
    "spanning": ("enumerate_trees_characterized",),
    "simplicial": (
        "spanning_complex",
        "f_vector_exact",
        "f_vector_bruteforce",
        "f_vector_paper",
    ),
    "hilbert": ("hilbert_series", "hilbert_function_oracle"),
    "ideal": (
        "minimal_vertex_covers_oracle",
        "intersect_primes",
        "quasi_linear_certificate",
        "replay_certificate",
        "facet_ideal",
        "paper_ordering",
        "cohen_macaulay_verdict",
    ),
    "oracle": (
        "downset_faces",
        "minimal_hitting_sets",
        "spanning_tree_masks",
        "kirchhoff_count",
    ),
    "verify": ("verify_instance", "verify_family"),
}

# Work counters read off a call's result.
COUNTERS = {
    "oracle.downset_faces": ("oracle.faces", len),
    "spanning.enumerate_trees_characterized": ("spanning.trees", len),
    "ideal.facet_ideal": ("ideal.generators", len),
}

# How far a call raised the process's peak RSS.  tracemalloc would give the
# call's own peak, but it made the traced limits run 5.5x slower and
# inflated the very spans it sat in.
PEAK_MB = ("simplicial.f_vector_exact", "hilbert.expand")


class Recorder:
    """Spans as [name, start, end, parent index, op key]; counters by name."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.peaks = {}
        self.op = None

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def to_json(self):
        return {"spans": self.spans, "counts": self.counts, "peaks": self.peaks}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    def follow_forks(self, directory):
        """Processes forked by multiprocessing from now on start with an
        empty record and write it to directory when they exit."""

        def restart(rec):
            rec.spans, rec.stack, rec.counts, rec.peaks = [], [], {}, {}
            path = os.path.join(directory, f"worker-{os.getpid()}.json")
            multiprocessing.util.Finalize(None, rec.dump, args=(path,), exitpriority=0)

        multiprocessing.util.register_after_fork(self, restart)


def _instance_key(g):
    return [g.r, list(g.m), list(g.forest_attachments)]


def _wrap(rec, name, fn):
    counter = COUNTERS.get(name)
    peak = name in PEAK_MB
    cached = hasattr(fn, "cache_info")
    per_instance = name == "verify.verify_instance"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op]
        outer_op = rec.op
        if per_instance:
            rec.op = span[4] = _instance_key(args[0])
        rec.stack.append(len(rec.spans))
        rec.spans.append(span)
        misses = fn.cache_info().misses if cached else None
        if peak:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            rec.stack.pop()
            rec.op = outer_op
            if peak:
                mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss) / 1024
                rec.peaks[name] = max(rec.peaks.get(name, 0.0), mb)
        if counter and (not cached or fn.cache_info().misses != misses):
            rec.add(counter[0], counter[1](result))
        return result

    return wrapper


def _count_calls(rec, name, fn):
    """Calls and time only: binom runs too often for a span per call."""

    @functools.wraps(fn)
    def wrapper(*args):
        start = time.perf_counter()
        result = fn(*args)
        rec.add(name + "_s", time.perf_counter() - start)
        rec.add(name + "_calls", 1)
        return result

    return wrapper


def install(rec):
    """Wrap every function in TRACED, RationalSeries.expand and util.binom
    on every loaded cyclechain module that binds them."""
    import cyclechain.cli  # noqa: F401  (load every module before scanning)
    from cyclechain import hilbert, util

    modules = [
        m for n, m in sys.modules.items()
        if n == "cyclechain" or n.startswith("cyclechain.")
    ]

    def rebind(orig, wrapped):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)

    for short, names in TRACED.items():
        mod = sys.modules["cyclechain." + short]
        for fname in names:
            orig = getattr(mod, fname)
            rebind(orig, _wrap(rec, f"{short}.{fname}", orig))
    rebind(util.binom, _count_calls(rec, "util.binom", util.binom))
    hilbert.RationalSeries.expand = _wrap(
        rec, "hilbert.expand", hilbert.RationalSeries.expand
    )
