"""Spanning simplicial complex of a chain graph and its f-vector.

The facets are the spanning trees, so the faces are exactly the edge sets
that contain no cycle.  The f-vector is computed three ways:

  * f_vector_bruteforce: count the faces of the facet downset through the
    face oracle's subset closure over one bitmap.
  * f_vector_exact: inclusion-exclusion over the 2^tau cycle subsets with
    union sizes read off the actual edge sets.  This is the normative route.
    The subsets are folded in one cycle at a time into signed counts per
    distinct union, which are far fewer than the subsets (233 at r = 6,
    against 2^21).
  * f_vector_pairwise_form: the same sum, but with each union size replaced
    by the pairwise estimate sum(|C|) - sum(|C_u & C_v|).  Higher-order
    overlaps are ignored there, so it can drift from the exact count; the
    comparison object records where.

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
    ground_size: int
    facets: tuple[EdgeSet, ...]

    def __post_init__(self):
        if not self.facets:
            raise ValueError("a complex needs at least one facet")
        seen: set[int] = set()
        for f in self.facets:
            if f.ground != self.ground_size:
                raise ValueError(
                    f"facet ground {f.ground} != complex ground {self.ground_size}"
                )
            if f.mask in seen:
                raise ValueError(f"duplicate facet {f}")
            seen.add(f.mask)
        if not self.is_pure:
            # Equal-size distinct sets can't nest, so only mixed sizes
            # need the quadratic antichain check.
            by_size = sorted(self.facets, key=len)
            for i, a in enumerate(by_size):
                for b in by_size[i + 1 :]:
                    if len(b) > len(a) and a.issubset(b):
                        raise ValueError(f"facet {a} is contained in facet {b}")

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1


@dataclass(frozen=True)
class FVector:
    """f[i] = number of i-dimensional faces (size i+1); empty face excluded."""

    f: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.f) - 1

    def __getitem__(self, i: int) -> int:
        return self.f[i]

    def __len__(self) -> int:
        return len(self.f)


def spanning_complex(g: ChainGraph) -> SimplicialComplex:
    """The complex whose facets are the spanning trees of g."""
    trees = enumerate_trees_characterized(g).trees
    c = SimplicialComplex(g.n, trees)
    if not c.is_pure or c.dim != g.num_vertices - 2:
        raise RuntimeError(f"spanning complex of {g!r} has unexpected dimension")
    return c


def f_vector_bruteforce(c: SimplicialComplex, cap: int = 1 << 24) -> FVector:
    counts = oracle.downset_face_counts([f.mask for f in c.facets], cap)
    return FVector(tuple(counts))


def _check_subset_cap(g: ChainGraph) -> int:
    """The cycle count tau, once 2^tau subsets are known to be within the cap."""
    tau = g.r * (g.r + 1) // 2
    if tau > MAX_CYCLE_SUBSETS:
        raise SearchSpaceTooLarge(
            f"{tau} cycles means 2^{tau} subsets; limit is 2^{MAX_CYCLE_SUBSETS}"
        )
    return tau


def _signed_coefficients(g: ChainGraph, union_size) -> Counter:
    """Signed multiplicity of each union size over all cycle subsets.

    union_size(subset bitmask over the cycle list) -> int; collapsing the
    2^tau sum by size keeps the binomial stage linear in n.
    """
    tau = _check_subset_cap(g)
    coef: Counter = Counter()
    for s in range(1 << tau):
        coef[union_size(s)] += -1 if s.bit_count() & 1 else 1
    return coef


def _assemble(g: ChainGraph, coef: Counter) -> FVector:
    entries = []
    for i in range(g.num_vertices - 1):
        entries.append(
            sum(c * binom(g.n - u, i + 1 - u) for u, c in coef.items() if c)
        )
    return FVector(tuple(entries))


def f_vector_exact(g: ChainGraph) -> FVector:
    """Inclusion-exclusion with true union sizes.

    A size-(i+1) edge set is a face iff it contains no cycle, so
    f_i = sum over cycle subsets S of (-1)^|S| C(n - |union S|, i+1 - |union S|).

    The terms depend on S only through its union, so the subsets are folded
    in one cycle at a time as {union mask: signed subset count}; unions
    whose count cancels to zero are dropped as they appear.
    """
    _check_subset_cap(g)
    signed = {0: 1}
    for cycle in all_cycles(g):
        step = dict(signed)
        for union, count in signed.items():
            grown = union | cycle.edges.mask
            total = step.get(grown, 0) - count
            if total:
                step[grown] = total
            else:
                step.pop(grown, None)
        signed = step
    coef: Counter = Counter()
    for union, count in signed.items():
        coef[union.bit_count()] += count
    return _assemble(g, coef)


@dataclass(frozen=True)
class FVectorComparison:
    """Exact f-vector next to the pairwise-estimate form."""

    exact: FVector
    pairwise_form: FVector
    r2_closed_form: FVector | None

    @property
    def mismatched_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, (a, b) in enumerate(zip(self.exact.f, self.pairwise_form.f))
            if a != b
        )

    @property
    def agree(self) -> bool:
        return not self.mismatched_indices


def f_vector_pairwise_form(g: ChainGraph) -> FVector:
    """Inclusion-exclusion with union sizes estimated pairwise only:
    |union S| ~ sum |C| - sum over pairs |C_u & C_v|."""
    cycles = all_cycles(g)
    sizes = [len(c.edges) for c in cycles]
    pair = [
        [len(a.edges & b.edges) for b in cycles] for a in cycles
    ]

    def union_size(s: int) -> int:
        members = [i for i in range(len(cycles)) if s >> i & 1]
        total = sum(sizes[i] for i in members)
        for x, i in enumerate(members):
            for j in members[x + 1 :]:
                total -= pair[i][j]
        return total

    return _assemble(g, _signed_coefficients(g, union_size))


def f_vector_r2_closed_form(g: ChainGraph) -> FVector:
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
    entries = []
    for i in range(g.num_vertices - 1):
        s = i + 1
        entries.append(
            binom(n, s)
            - binom(n - c1, s - c1)
            - binom(n - c2, s - c2)
            - binom(n - c12, s - c12)
            + binom(n - u_12, s - u_12)
            + binom(n - u_1_12, s - u_1_12)
            + binom(n - u_2_12, s - u_2_12)
            - binom(n - u_all, s - u_all)
        )
    return FVector(tuple(entries))


def f_vector_paper(g: ChainGraph) -> FVectorComparison:
    """Evaluate the pairwise-estimate form and report where it drifts."""
    return FVectorComparison(
        exact=f_vector_exact(g),
        pairwise_form=f_vector_pairwise_form(g),
        r2_closed_form=f_vector_r2_closed_form(g) if g.r == 2 else None,
    )
