"""Spanning simplicial complex of a chain graph and its f-vector.

The complex is given by its facets alone: spanning_complex(g) is the tuple
of g's spanning trees (int bitmasks), with no wrapper around it, so the
faces are the edge sets that contain no cycle, the forests.  An f-vector
is a tuple f, where f[i] counts the faces of size i+1 (the empty face is
left out).  It is computed three ways:

  * f_vector_bruteforce: count the faces of the downset of a tuple of
    facet masks through the face oracle's subset closure over one bitmap.
  * f_vector_exact: count the forests by size in one series-parallel fold
    over the cycles, O(r) polynomial steps.  This is the normative route.
  * f_vector_pairwise_form: inclusion-exclusion over the cycle subsets,
    each union size estimated pairwise as sum(|C|) - sum(|C_u & C_v|).
    Higher-order overlaps are ignored there, so it can drift from the
    exact count; the comparison object records where.

For r = 2 the pairwise estimate is also spelled out as the literal
eight-term binomial expression (f_vector_r2_closed_form), which the test
suite holds to exact agreement.
"""

from collections import Counter
from typing import NamedTuple

from . import oracle
from .chain_graph import ChainGraph, all_cycles, composite_length, intersection_formula
from .errors import IndexOutOfRange, SearchSpaceTooLarge
from .spanning import enumerate_trees_characterized
from .util import binom

MAX_CYCLE_SUBSETS = 21


def spanning_complex(g: ChainGraph) -> tuple[int, ...]:
    """The facets of g's spanning complex: its spanning trees, ascending."""
    return enumerate_trees_characterized(g)


def f_vector_bruteforce(facets) -> tuple[int, ...]:
    return tuple(oracle.downset_face_counts(facets))


def _check_subset_cap(g: ChainGraph) -> None:
    tau = g.r * (g.r + 1) // 2
    if tau > MAX_CYCLE_SUBSETS:
        raise SearchSpaceTooLarge(
            f"{tau} cycles means 2^{tau} subsets; limit is 2^{MAX_CYCLE_SUBSETS}"
        )


def _times_one_plus_u(p: list[int], k: int) -> list[int]:
    """The coefficients of p(u)·(1+u)^k."""
    for _ in range(k):
        p = [a + b for a, b in zip(p + [0], [0] + p)]
    return p


def f_vector_exact(g: ChainGraph) -> tuple[int, ...]:
    """The forests counted by size, in one series-parallel fold.

    The cycles form a two-terminal network.  joined counts its forests that
    join the two ends and every counts all of them, both as coefficient
    lists over u by size.  The network starts as one edge of cycle 1.  Each
    cycle j adds a path of m_j - 2 edges in series, then one edge in
    parallel: s_j for j < r, the last own edge of cycle r at the end.  A
    forest that keeps the ends apart may take that edge, which joins them.
    Forest edges are coloops, a factor 1 + u each.
    """
    # This fold reads no cycle subset, but keeps the pairwise form's cap and
    # message so that fvector and hilbert exit 3 at r >= 7, as documented.
    _check_subset_cap(g)
    joined, every = [0, 1], [1, 1]
    for m in g.m:
        joined = [0] * (m - 2) + joined
        every = _times_one_plus_u(every, m - 2)
        bridged = [0] + [e - j for e, j in zip(every, joined)]
        joined = [j + b for j, b in zip(joined + [0], bridged)]
        every = [e + b for e, b in zip(every + [0], bridged)]
    return tuple(_times_one_plus_u(every, g.t)[1 : g.num_vertices])


class FVectorComparison(NamedTuple):
    """Exact f-vector next to the pairwise-estimate form, as a named tuple."""

    exact: tuple[int, ...]
    pairwise_form: tuple[int, ...]
    r2_closed_form: tuple[int, ...] | None

    @property
    def mismatched_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, (a, b) in enumerate(zip(self.exact, self.pairwise_form))
            if a != b
        )

    @property
    def agree(self) -> bool:
        return not self.mismatched_indices


def f_vector_pairwise_form(g: ChainGraph) -> tuple[int, ...]:
    """Inclusion-exclusion with union sizes estimated pairwise only:
    f_i = sum over cycle subsets S of (-1)^|S| C(n - u, i+1 - u), with
    u = sum over S of |C| - sum over pairs in S of |C_u & C_v|.

    What a later cycle adds depends on which cycles were chosen, so the fold
    keys on (estimate, pending), where pending holds each unfolded cycle's
    summed overlaps with the chosen ones, the next cycle's first.  Keys whose
    signed subset count cancels are dropped.  Folding in (start, span) order
    holds fewer keys than all_cycles' (span, start) order: at most 16,329
    against 59,835 on (6, [3,3,4,4,5,5], 0).
    """
    _check_subset_cap(g)
    masks = [c.edges for c in sorted(all_cycles(g), key=lambda c: c.start)]
    signed = {(0, (0,) * len(masks)): 1}
    for k, a in enumerate(masks):
        length = a.bit_count()
        overlaps = [(a & b).bit_count() for b in masks[k + 1 :]]
        folded: dict = {}
        for (estimate, pending), count in signed.items():
            without = (estimate, pending[1:])
            taken = (
                estimate + length - pending[0],
                tuple(p + o for p, o in zip(pending[1:], overlaps)),
            )
            folded[without] = folded.get(without, 0) + count
            folded[taken] = folded.get(taken, 0) - count
        signed = {key: count for key, count in folded.items() if count}
    coef: Counter = Counter()
    for (estimate, _), count in signed.items():
        coef[estimate] += count
    return tuple(
        sum(c * binom(g.n - u, i + 1 - u) for u, c in coef.items())
        for i in range(g.num_vertices - 1)
    )


def f_vector_r2_closed_form(g: ChainGraph) -> tuple[int, ...]:
    """The eight explicit binomial terms available when r = 2.

    The three cycles have lengths m1, m2, m1+m2-2 and every union of two or
    more of them covers all m1+m2-1 cycle edges, so the subset sum collapses
    to one term per subset with alternating signs.
    """
    if g.r != 2:
        raise IndexOutOfRange(f"closed form needs exactly 2 cycles, got r={g.r}")
    n = g.n
    c1 = composite_length(g, 1, 0)
    c2 = composite_length(g, 2, 0)
    c12 = composite_length(g, 1, 1)
    cyc = all_cycles(g)
    pair_12 = intersection_formula(g, cyc[0], cyc[1])[0]
    pair_1_12 = intersection_formula(g, cyc[0], cyc[2])[0]
    pair_2_12 = intersection_formula(g, cyc[1], cyc[2])[0]
    u_12 = c1 + c2 - pair_12
    u_1_12 = c1 + c12 - pair_1_12
    u_2_12 = c2 + c12 - pair_2_12
    u_all = c1 + c2 + c12 - pair_12 - pair_1_12 - pair_2_12
    return tuple(
        binom(n, s)
        - binom(n - c1, s - c1)
        - binom(n - c2, s - c2)
        - binom(n - c12, s - c12)
        + binom(n - u_12, s - u_12)
        + binom(n - u_1_12, s - u_1_12)
        + binom(n - u_2_12, s - u_2_12)
        - binom(n - u_all, s - u_all)
        for s in range(1, g.num_vertices)
    )


def f_vector_paper(g: ChainGraph, exact: tuple[int, ...]) -> FVectorComparison:
    """Evaluate the pairwise-estimate form and report where it drifts from
    exact, the f-vector f_vector_exact(g) gives."""
    return FVectorComparison(
        exact=exact,
        pairwise_form=f_vector_pairwise_form(g),
        r2_closed_form=f_vector_r2_closed_form(g) if g.r == 2 else None,
    )
