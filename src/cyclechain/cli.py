"""Command-line front end.

One subcommand per library operation, JSON on stdout, diagnostics on
stderr.  Exit codes: 0 success, 1 stdout closed early, 2 invalid input,
3 capacity exceeded, 4 certificate failure, 5 cross-check mismatch.  All
stdout is deterministic for a fixed command line; timings go to stderr.

Commands that list trees or ask an oracle read them from verify's
per-instance context, so they exit 3 over its caps before listing a tree.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import hilbert, ideal, simplicial, spanning, verify
from .chain_graph import all_cycles, build_chain_graph
from .errors import (
    BadAttachment,
    CapacityExceeded,
    CertificateFails,
    InvalidLength,
    SearchSpaceTooLarge,
)
from .verify import labels_of

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_CERTIFICATE = 4
EXIT_MISMATCH = 5

MAX_EXPAND = 10_000


class InvalidInput(Exception):
    """An argument or graph spec file that cannot be read (exit 2)."""


def _reads_input(parse):
    """Report the ValueError or OSError that parse raises as InvalidInput.

    Only argument and spec reading goes through here, so the same errors
    raised later, inside the library, are not taken for bad input.
    """

    @functools.wraps(parse)
    def wrapper(*args):
        try:
            return parse(*args)
        except (ValueError, OSError) as e:
            raise InvalidInput(e) from e

    return wrapper


def integer(text: str) -> int:
    """An optional '-' and ASCII digits as an int; ValueError for anything
    else int() would coerce, such as '1_0', ' 3', '+3' or non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports a rejected argument the way every
    other invalid input is reported: one 'error: ...' line on stderr and
    exit 2, without the usage block.  Subparsers are made of this class
    too."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _graph_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--spec", metavar="FILE", help="JSON graph spec file")
    p.add_argument("--r", type=integer, help="number of cycles")
    p.add_argument("--m", help="comma-separated cycle lengths")
    p.add_argument("--t", type=integer, help="forest edge count (default 0)")
    p.add_argument(
        "--pretty", action="store_true", help="human-readable table instead of JSON"
    )
    return p


@_reads_input
def _graph_args(args) -> tuple:
    """build_chain_graph's (r, m, forest) from --spec or --r/--m/--t."""
    if args.spec is not None:
        if args.r is not None or args.m is not None or args.t is not None:
            raise ValueError("--spec cannot be combined with --r/--m/--t")
        with open(args.spec) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("graph spec must be a JSON object")
        unknown = sorted(set(data) - {"r", "m", "forest"})
        if unknown:
            raise ValueError(f"unknown graph spec keys {unknown}; valid: r, m, forest")
        for key in ("r", "m"):
            if key not in data:
                raise ValueError(f'graph spec is missing "{key}"')
        forest = data.get("forest", {"count": 0})
        if not isinstance(forest, dict) or list(forest) not in (["count"], ["attach"]):
            raise ValueError('"forest" must be {"count": k} or {"attach": [...]}')
        if "attach" in forest:
            forest_arg = forest["attach"]
            if not isinstance(forest_arg, list):
                raise BadAttachment('"attach" must be a list of vertex ids')
        else:
            forest_arg = forest["count"]
        return data["r"], data["m"], forest_arg
    if args.r is None or args.m is None:
        raise ValueError("provide --spec FILE or both --r and --m")
    m = [integer(x) for x in args.m.split(",")]
    return args.r, m, args.t if args.t is not None else 0


def _load_graph(args):
    return build_chain_graph(*_graph_args(args))


def _emit(obj, pretty_lines, pretty: bool) -> None:
    """Print obj as JSON, or under --pretty the list of lines that
    pretty_lines() builds; it is only called then."""
    if pretty:
        print("\n".join(pretty_lines()))
    else:
        print(json.dumps(obj))


def cmd_gen(args) -> int:
    g = _load_graph(args)
    edges = [
        {"index": i, "label": g.labels[i], "endpoints": list(g.endpoints[i])}
        for i in range(g.n)
    ]
    obj = {
        "r": g.r,
        "m": list(g.m),
        "t": g.t,
        "n": g.n,
        "vertices": g.num_vertices,
        "forest_attachments": list(g.forest_attachments),
        "edges": edges,
    }

    def lines():
        head = f"graph: r={g.r} m={list(g.m)} t={g.t} n={g.n} vertices={g.num_vertices}"
        return [head] + [
            f"  {e['index']:>3}  {e['label']:<10} {e['endpoints']}" for e in edges
        ]

    _emit(obj, lines, args.pretty)
    return EXIT_OK


def cmd_cycles(args) -> int:
    g = _load_graph(args)
    cycles = all_cycles(g)
    obj = {
        "count": len(cycles),
        "cycles": [
            {
                "start": c.start,
                "span": c.span,
                "length": c.edges.bit_count(),
                "edges": labels_of(g, c.edges),
            }
            for c in cycles
        ],
    }

    def lines():
        return [f"{len(cycles)} cycles"] + [
            f"  C(start={c['start']}, span={c['span']}) length {c['length']}: "
            + " ".join(c["edges"])
            for c in obj["cycles"]
        ]

    _emit(obj, lines, args.pretty)
    return EXIT_OK


def cmd_trees(args) -> int:
    g = _load_graph(args)
    if args.count_only:
        count = spanning.count_trees_characterized(g)
        _emit({"count": count}, lambda: [f"{count} spanning trees"], args.pretty)
        return EXIT_OK
    trees = verify._Context(g).facet_ideal()
    obj = {"count": len(trees), "trees": [labels_of(g, s) for s in trees]}
    if args.by_class:
        tags = [spanning.removal_class(g, s) for s in trees]
        obj["by_class"] = {
            tag: tags.count(tag) for tag in spanning.CLASS_TAGS if tag in tags
        }
        obj["removals"] = [
            {"class": tag, "removed": labels_of(g, g.full_mask ^ s)}
            for s, tag in zip(trees, tags)
        ]

    def lines():
        out = [f"{len(trees)} spanning trees"]
        if args.by_class:
            out += [f"  {tag}: {cnt}" for tag, cnt in obj["by_class"].items()]
        out += [
            "  keep {" + " ".join(tr) + "}"
            + (f"  drop {{{' '.join(rm['removed'])}}} [{rm['class']}]" if args.by_class else "")
            for tr, rm in zip(
                obj["trees"],
                obj.get("removals", [{}] * len(trees)),
            )
        ]
        return out

    _emit(obj, lines, args.pretty)
    return EXIT_OK


def cmd_fvector(args) -> int:
    g = _load_graph(args)
    if args.method == "exact":
        f = simplicial.f_vector_exact(g)
        obj = {"f": list(f), "dim": len(f) - 1}
    elif args.method == "brute":
        f = verify._Context(g).face_fvector()
        obj = {"f": list(f), "dim": len(f) - 1}
    else:
        cmp = simplicial.f_vector_paper(g, simplicial.f_vector_exact(g))
        obj = {
            "exact": list(cmp.exact),
            "pairwise_form": list(cmp.pairwise_form),
            "agree": cmp.agree,
            "mismatched_indices": list(cmp.mismatched_indices),
            "r2_closed_form": (
                list(cmp.r2_closed_form) if cmp.r2_closed_form else None
            ),
        }
    _emit(obj, lambda: [f"{k}: {v}" for k, v in obj.items()], args.pretty)
    return EXIT_OK


def cmd_hilbert(args) -> int:
    if args.expand > MAX_EXPAND:
        raise CapacityExceeded(
            f"--expand {args.expand} exceeds the limit of {MAX_EXPAND}"
        )
    if args.expand < 0:
        raise InvalidInput(f"need a degree >= 0, got {args.expand}")
    g = _load_graph(args)
    series = hilbert.hilbert_series(simplicial.f_vector_exact(g))
    obj = {
        "numerator": list(series.numerator),
        "denom_power": series.denom_power,
        "expansion": series.expand(args.expand),
    }

    def lines():
        return [
            f"numerator coefficients: {obj['numerator']}",
            f"denominator: (1-t)^{obj['denom_power']}",
            f"expansion to degree {args.expand}: {obj['expansion']}",
        ]

    _emit(obj, lines, args.pretty)
    return EXIT_OK


def cmd_covers(args) -> int:
    g = _load_graph(args)
    if args.method == "lemma":
        covers = ideal.covers_lemma41(g)
    else:
        covers = verify._Context(g).oracle_covers()
    obj = {"count": len(covers), "covers": [labels_of(g, c) for c in covers]}

    def lines():
        return [f"{len(covers)} minimal vertex covers"] + [
            "  {" + " ".join(c) + "}" for c in obj["covers"]
        ]

    _emit(obj, lines, args.pretty)
    return EXIT_OK


def cmd_decompose(args) -> int:
    # The predicted cover ranges are provably incomplete for r >= 2 (see
    # verify's covers check), so the primes are the exhaustive minimal
    # covers of the brute-force trees, as in verify's decomposition check.
    # Their intersection is the facet ideal of the true trees, so the
    # comparison below fails on a wrong listing.
    g = _load_graph(args)
    ctx = verify._Context(g)
    covers = ctx.oracle_covers()
    met = ideal.intersect_primes(covers)
    equal = met == ctx.facet_ideal()
    obj = {
        "primes": [labels_of(g, c) for c in covers],
        "generators": [labels_of(g, s) for s in met],
        "equals_facet_ideal": equal,
    }

    def lines():
        return [
            f"{len(covers)} primes, {len(met)} intersection generators",
            f"equals facet ideal: {equal}",
        ]

    _emit(obj, lines, args.pretty)
    return EXIT_OK if equal else EXIT_MISMATCH


def cmd_certify(args) -> int:
    g = _load_graph(args)
    fi = verify._Context(g).facet_ideal()
    cert = ideal.cohen_macaulay_verdict(g, fi)
    replayed = ideal.replay_certificate(fi, cert)
    obj = {
        "steps": len(cert.ordering),
        "ordering": [labels_of(g, g.full_mask ^ fi[i]) for i in cert.ordering],
        "ordering_indices": list(cert.ordering),
        "witnesses": [g.labels[v] for v in cert.witnesses],
        "replayed": replayed,
    }

    def lines():
        return [f"{obj['steps']}-step certificate (replayed: {replayed})"] + [
            f"  {p + 1:>3}  drop {{{' '.join(obj['ordering'][p])}}}"
            + (f"  witness {obj['witnesses'][p - 1]}" if p else "")
            for p in range(obj["steps"])
        ]

    _emit(obj, lines, args.pretty)
    return EXIT_OK if replayed else EXIT_MISMATCH


@_reads_input
def _parse_family(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--family expects rmax,mmax,tmax")
    rmax, mmax, tmax = map(integer, parts)
    verify.check_family_bounds(rmax, mmax, tmax)
    return rmax, mmax, tmax


@_reads_input
def _parse_checks(text: str | None):
    if text is None:
        return None
    return verify.select_checks(text.split(",") if text else ())


def _report_lines(rep) -> list[str]:
    inst = rep.instance
    head = f"r={inst['r']} m={inst['m']} t={inst['t']}"
    states = " ".join(f"{c.name}={c.status}" for c in rep.checks)
    notes = " ".join(f"{c.name}={c.status}" for c in rep.notes)
    return [f"{'ok ' if rep.ok else 'BAD'} {head:<24} {states}  [{notes}]"]


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise InvalidInput(f"--jobs needs at least 1, got {args.jobs}")
    for flag, cap in (("--tree-cap", args.tree_cap), ("--face-cap", args.face_cap)):
        if cap < 0:
            raise InvalidInput(f"{flag} needs a cap >= 0, got {cap}")
    checks = _parse_checks(args.checks)
    if args.family is not None:
        if any(v is not None for v in (args.spec, args.r, args.m, args.t)):
            raise InvalidInput("--family cannot be combined with --spec/--r/--m/--t")
        rmax, mmax, tmax = _parse_family(args.family)
        reports = verify.verify_family(
            rmax,
            mmax,
            tmax,
            checks=checks,
            jobs=args.jobs,
            tree_cap=args.tree_cap,
            face_cap=args.face_cap,
        )
        ok = all(r.ok for r in reports)
        statuses = [c.status for r in reports for c in r.checks]
        obj = {
            "family": {"rmax": rmax, "mmax": mmax, "tmax": tmax},
            "ok": ok,
            "instances": len(reports),
            "mismatches": statuses.count("mismatch"),
            "skipped": statuses.count("skipped"),
            "reports": [r.to_json() for r in reports],
        }
        for r in reports:
            elapsed = sum(c.elapsed for c in r.checks + r.notes)
            print(
                f"verify {r.instance['r']} {r.instance['m']} {r.instance['t']}: "
                f"{elapsed:.3f}s",
                file=sys.stderr,
            )

        def lines():
            return [ln for r in reports for ln in _report_lines(r)] + [
                f"{len(reports)} instances, ok={ok}"
            ]

        _emit(obj, lines, args.pretty)
        return EXIT_OK if ok else EXIT_MISMATCH
    g = _load_graph(args)
    rep = verify.verify_instance(
        g, checks=checks, tree_cap=args.tree_cap, face_cap=args.face_cap
    )
    for c in rep.checks + rep.notes:
        print(f"check {c.name}: {c.status} ({c.elapsed:.3f}s)", file=sys.stderr)
    _emit(rep.to_json(), lambda: _report_lines(rep), args.pretty)
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    gf = _graph_flags()
    top = _Parser(
        prog="cyclechain",
        description="Spanning-tree complexes of chains of cycles: enumeration, "
        "f-vectors, Hilbert series, cover decomposition, quotient certificates.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", parents=[gf], help="echo the normalized graph").set_defaults(
        func=cmd_gen
    )
    sub.add_parser("cycles", parents=[gf], help="all composite cycles").set_defaults(
        func=cmd_cycles
    )

    p = sub.add_parser("trees", parents=[gf], help="enumerate spanning trees")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--by-class", action="store_true", help="include removal classes")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("fvector", parents=[gf], help="f-vector of the complex")
    p.add_argument("--method", choices=("exact", "paper", "brute"), default="exact")
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("hilbert", parents=[gf], help="Hilbert series of the face ring")
    p.add_argument("--expand", type=integer, default=10, metavar="N")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("covers", parents=[gf], help="minimal vertex covers")
    p.add_argument("--method", choices=("lemma", "oracle"), default="lemma")
    p.set_defaults(func=cmd_covers)

    sub.add_parser(
        "decompose", parents=[gf], help="intersect cover primes vs facet ideal"
    ).set_defaults(func=cmd_decompose)
    sub.add_parser(
        "certify", parents=[gf], help="quasi-linear quotient certificate"
    ).set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", parents=[gf], help="run oracle cross-checks")
    p.add_argument("--family", metavar="R,M,T", help="verify the whole family")
    p.add_argument("--checks", help="comma-separated subset of checks")
    p.add_argument("--jobs", type=integer, default=1)
    p.add_argument("--tree-cap", type=integer, default=verify.TREE_CAP)
    p.add_argument("--face-cap", type=integer, default=verify.FACE_CAP)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away; flushing again at exit would raise once
        # more, so the rest of the output goes to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CapacityExceeded, SearchSpaceTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except CertificateFails as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (InvalidInput, InvalidLength, BadAttachment) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
