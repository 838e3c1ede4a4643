"""Spanning simplicial complex of a chain graph and its f-vector.

The facets are the spanning trees, so the faces are exactly the edge sets
that contain no cycle.  An f-vector is a tuple f, where f[i] counts the
faces of size i+1 (the empty face is left out).  It is computed three ways:

  * f_vector_bruteforce: count the faces of the facet downset through the
    face oracle's subset closure over one bitmap.
  * f_vector_exact: inclusion-exclusion over the 2^tau cycle subsets with
    union sizes read off the actual edge sets.  This is the normative route.
  * f_vector_pairwise_form: the same sum, but with each union size replaced
    by the pairwise estimate sum(|C|) - sum(|C_u & C_v|).  Higher-order
    overlaps are ignored there, so it can drift from the exact count; the
    comparison object records where.

Both sums run through one fold that takes in one cycle at a time and keeps
a signed subset count per key: the union mask for the exact route (233 keys
at r = 6, against 2^21 subsets), and the estimate so far with its pending
pair sums for the pairwise route.

For r = 2 the pairwise estimate is also spelled out as the literal
eight-term binomial expression (f_vector_r2_closed_form), which the test
suite holds to exact agreement.
"""

from collections import Counter
from dataclasses import dataclass

from . import oracle
from .chain_graph import ChainGraph, all_cycles, composite_length, intersection_formula
from .edgeset import EdgeSet
from .errors import IndexOutOfRange, SearchSpaceTooLarge
from .spanning import enumerate_trees_characterized
from .util import binom

MAX_CYCLE_SUBSETS = 21


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure complex given by its facets, all of one size.

    Facets of mixed sizes are rejected, so no facet can contain another
    and the facets are the complex's maximal faces as they stand.
    """

    ground_size: int
    facets: tuple[EdgeSet, ...]

    def __post_init__(self):
        if not self.facets:
            raise ValueError("a complex needs at least one facet")
        size = len(self.facets[0])
        seen: set[int] = set()
        for f in self.facets:
            if f.ground != self.ground_size:
                raise ValueError(
                    f"facet ground {f.ground} != complex ground {self.ground_size}"
                )
            if len(f) != size:
                raise ValueError(f"facet {f} has size {len(f)}, not {size}")
            if f.mask in seen:
                raise ValueError(f"duplicate facet {f}")
            seen.add(f.mask)

    @property
    def dim(self) -> int:
        return len(self.facets[0]) - 1


def spanning_complex(g: ChainGraph) -> SimplicialComplex:
    """The complex whose facets are the spanning trees of g."""
    return SimplicialComplex(g.n, enumerate_trees_characterized(g).trees)


def f_vector_bruteforce(c: SimplicialComplex) -> tuple[int, ...]:
    return tuple(oracle.downset_face_counts([f.mask for f in c.facets]))


def _check_subset_cap(g: ChainGraph) -> None:
    tau = g.r * (g.r + 1) // 2
    if tau > MAX_CYCLE_SUBSETS:
        raise SearchSpaceTooLarge(
            f"{tau} cycles means 2^{tau} subsets; limit is 2^{MAX_CYCLE_SUBSETS}"
        )


def _fold_cycle_subsets(g: ChainGraph, start, cycles, step, size) -> tuple[int, ...]:
    """f_i = sum over cycle subsets S of (-1)^|S| C(n - u, i+1 - u), where
    u = size(key) for the key that stands for S.

    Starting from {start: 1}, each cycle maps every key through
    step(key, cycle) to the keys of its subsets without and with that cycle;
    keys whose signed subset count cancels are dropped.
    """
    _check_subset_cap(g)
    signed = {start: 1}
    for cycle in cycles:
        folded: dict = {}
        for key, count in signed.items():
            without, taken = step(key, cycle)
            folded[without] = folded.get(without, 0) + count
            folded[taken] = folded.get(taken, 0) - count
        signed = {key: count for key, count in folded.items() if count}
    coef: Counter = Counter()
    for key, count in signed.items():
        coef[size(key)] += count
    return tuple(
        sum(c * binom(g.n - u, i + 1 - u) for u, c in coef.items())
        for i in range(g.num_vertices - 1)
    )


def f_vector_exact(g: ChainGraph) -> tuple[int, ...]:
    """Inclusion-exclusion with true union sizes, keyed on the union mask.

    A size-(i+1) edge set is a face iff it contains no cycle, so
    f_i = sum over cycle subsets S of (-1)^|S| C(n - |union S|, i+1 - |union S|).
    """
    masks = (c.edges.mask for c in all_cycles(g))
    return _fold_cycle_subsets(
        g, 0, masks, lambda union, mask: (union, union | mask), int.bit_count
    )


@dataclass(frozen=True)
class FVectorComparison:
    """Exact f-vector next to the pairwise-estimate form."""

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


def _take_pairwise(key, cycle):
    """pending holds, for each cycle l not yet folded, the sum of
    |C_i & C_l| over the chosen cycles i; the next cycle's is pending[0]."""
    estimate, pending = key
    length, overlaps = cycle
    taken = tuple(p + o for p, o in zip(pending[1:], overlaps))
    return (estimate, pending[1:]), (estimate + length - pending[0], taken)


def f_vector_pairwise_form(g: ChainGraph) -> tuple[int, ...]:
    """Inclusion-exclusion with union sizes estimated pairwise only:
    |union S| ~ sum |C| - sum over pairs |C_u & C_v|.

    What a later cycle adds depends on which cycles were chosen, not only on
    the estimate so far, so the fold keys on (estimate, pending pair sums).
    Folding in (start, span) order holds fewer keys than the (span, start)
    order of all_cycles: at most 16,329 against 59,835 on (6, [3,3,4,4,5,5], 0).
    """
    cycles = sorted(all_cycles(g), key=lambda c: c.start)
    later = (
        (len(c.edges), [len(c.edges & d.edges) for d in cycles[k + 1 :]])
        for k, c in enumerate(cycles)
    )
    return _fold_cycle_subsets(
        g, (0, (0,) * len(cycles)), later, _take_pairwise, lambda key: key[0]
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
