"""Chain-of-cycles graphs with their canonical edge labeling.

A member of the family consists of r cycles C_1..C_r with lengths
m_1..m_r in which consecutive cycles share exactly one edge and
non-consecutive cycles share none, together with an attached forest of t
extra edges.  The edge count is n = sum(m) - (r - 1) + t and the vertex
count is n - r + 1.

Edges are labeled

    e_{1,1} .. e_{1,m1}, e_{2,1} .. e_{2,m2-1}, ..., e_{r,1} .. e_{r,mr-1},
    e_1 .. e_t

where cycle j >= 2 consists of its own labels plus the shared edge
e_{j-1,1}, and e_{j,1} is the edge shared with cycle j+1 whenever j < r.
Ground-set indices follow this label order, which makes every ordering in
the package reproducible.  A label is the string itself: g.labels[i] is
the label of edge i, exactly as the CLI prints it.

build_chain_graph lays the graph down once: it records where each cycle's
label block starts as it lays that cycle down (ChainGraph.cycle_offsets,
whose first r-1 entries index the shared edges), and places every forest
edge in one loop, an edge count being its default attachment path.

Besides construction, this module enumerates the composite cycles
C_{i,...,i+k} (symmetric differences of runs of consecutive simple cycles),
their lengths, and their pairwise intersection sizes.  Intersections are
computed exactly from edge sets; a separate nine-row closed-form predictor
is evaluated alongside and the agreement is reported, never assumed.
"""

import itertools
from functools import cached_property
from typing import NamedTuple

from .errors import BadAttachment, CapacityExceeded, IndexOutOfRange, InvalidLength

# Edge sets are int bitmasks, which have no fixed width: the cap is the most
# edges build_chain_graph accepts, and so the most variables of any ideal.
MAX_GROUND = 64


class ChainGraph:
    """Immutable labeled chain-of-cycles graph.

    Instances are only built through build_chain_graph, which rejects
    malformed parameters and records, as it lays each cycle down, the
    ground index where that cycle's own label block starts
    (cycle_offsets); the first r-1 of them are the shared edges e_{j,1}
    (common_edge_indices).  The edge layout it produces is checked by the
    tests against the oracles, which read only endpoints.  Equality and
    hashing use the defining data (r, m, forest attachments), so graphs
    work as dict keys.
    """

    def __init__(
        self,
        r: int,
        m: tuple[int, ...],
        endpoints: tuple[tuple[int, int], ...],
        labels: tuple[str, ...],
        cycle_offsets: tuple[int, ...],
        forest_attachments: tuple[int, ...],
    ):
        self.r = r
        self.m = m
        self.endpoints = endpoints
        self.labels = labels
        self.cycle_offsets = cycle_offsets
        self.common_edge_indices = cycle_offsets[:-1]
        self.forest_attachments = forest_attachments
        self.t = len(forest_attachments)
        self.n = len(endpoints)
        self.num_vertices = self.n - r + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainGraph):
            return NotImplemented
        return (self.r, self.m, self.forest_attachments) == (
            other.r,
            other.m,
            other.forest_attachments,
        )

    def __hash__(self) -> int:
        return hash((self.r, self.m, self.forest_attachments))

    def __repr__(self) -> str:
        return f"ChainGraph(r={self.r}, m={list(self.m)}, t={self.t})"

    @cached_property
    def simple_cycle_masks(self) -> tuple[int, ...]:
        """Edge bitmask of C_j for j = 1..r (index j-1): its own label
        block, which ends where the next starts (the last at n - t), plus
        the shared edge e_{j-1,1} for j >= 2."""
        ends = (*self.cycle_offsets[1:], self.n - self.t)
        blocks = [(1 << e) - (1 << s) for s, e in zip(self.cycle_offsets, ends)]
        return (
            blocks[0],
            *(b | 1 << i for b, i in zip(blocks[1:], self.common_edge_indices)),
        )

    @cached_property
    def shared_mask(self) -> int:
        """Edge bitmask of the shared edges e_{j,1}, j = 1..r-1."""
        mask = 0
        for i in self.common_edge_indices:
            mask |= 1 << i
        return mask

    @cached_property
    def own_masks(self) -> tuple[int, ...]:
        """Edge bitmask of the edges that lie on C_j alone, for j = 1..r
        (index j-1): C_j without its shared edges."""
        return tuple(c & ~self.shared_mask for c in self.simple_cycle_masks)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_chain_graph(r: int, m, forest=0) -> ChainGraph:
    """Construct the canonical graph for cycle lengths m and a forest.

    forest is either an explicit list or tuple of attachment vertex ids,
    one per forest edge, or an edge count t, which stands for the path of t
    edges hanging from vertex 0: the attachments [0, V0, .., V0+t-2], V0
    being the first vertex after the cycles.  Each forest edge connects its
    attachment vertex to a fresh vertex, so attachments may also name
    vertices created by earlier forest edges.

    Every number must already be an int: bools, floats and strings are
    rejected, never coerced.
    """
    if not _is_int(r) or r < 1:
        raise InvalidLength(f"need r >= 1 cycles, got {r!r}")
    if not isinstance(m, (list, tuple)):
        raise InvalidLength(f"cycle lengths must be a list, got {m!r}")
    m = tuple(m)
    if len(m) != r:
        raise InvalidLength(f"expected {r} cycle lengths, got {len(m)}")
    for mi in m:
        if not _is_int(mi) or mi < 3:
            raise InvalidLength(f"cycle lengths must be integers >= 3, got {mi!r}")

    if _is_int(forest):
        if forest < 0:
            raise InvalidLength(f"forest edge count must be >= 0, got {forest}")
        t = forest
    elif isinstance(forest, (list, tuple)):
        for k, a in enumerate(forest, start=1):
            if not _is_int(a):
                raise BadAttachment(
                    f"forest edge e_{k} attaches at {a!r}, not a vertex id"
                )
        t = len(forest)
    else:
        raise InvalidLength(
            f"forest must be an edge count or a list of vertex ids, got {forest!r}"
        )

    n = sum(m) - (r - 1) + t
    if n > MAX_GROUND:
        raise CapacityExceeded(f"graph needs {n} edges, capacity is {MAX_GROUND}")

    endpoints: list[tuple[int, int]] = []
    labels: list[str] = []

    # Cycle 1 is the ring 0,1,..,m1-1 with e_{1,p} = (p-1, p mod m1).
    offsets = [0]
    for p in range(1, m[0] + 1):
        endpoints.append((p - 1, p % m[0]))
        labels.append(f"e_{{1,{p}}}")
    next_vertex = m[0]

    # Each later cycle is a fresh path closing up the previous shared edge
    # (ca, cb).  The first path edge becomes the next shared edge e_{j,1}.
    ca, cb = 0, 1
    for j in range(2, r + 1):
        offsets.append(len(endpoints))
        prev = cb
        for p in range(1, m[j - 1] - 1):
            endpoints.append((prev, next_vertex))
            labels.append(f"e_{{{j},{p}}}")
            prev = next_vertex
            next_vertex += 1
        endpoints.append((prev, ca))
        labels.append(f"e_{{{j},{m[j - 1] - 1}}}")
        ca, cb = cb, endpoints[offsets[-1]][1]

    # An edge count t stands for the path of t edges hanging from vertex 0.
    if isinstance(forest, int):
        forest = [0, *range(next_vertex, next_vertex + t - 1)][:t]
    for k, a in enumerate(forest, start=1):
        if not 0 <= a < next_vertex:
            raise BadAttachment(
                f"forest edge e_{k} attaches at vertex {a}, "
                f"but only vertices 0..{next_vertex - 1} exist"
            )
        endpoints.append((a, next_vertex))
        labels.append(f"e_{k}")
        next_vertex += 1

    return ChainGraph(
        r, m, tuple(endpoints), tuple(labels), tuple(offsets), tuple(forest)
    )


class CompositeCycle(NamedTuple):
    """Cycle C_{start,...,start+span} (span = 0 is simple) and its edge
    bitmask, as a named tuple."""

    start: int
    span: int
    edges: int


def _check_range(g: ChainGraph, i: int, k: int) -> None:
    if not (1 <= i and 0 <= k and i + k <= g.r):
        raise IndexOutOfRange(f"cycle range (i={i}, k={k}) invalid for r={g.r}")


def composite_cycle(g: ChainGraph, i: int, k: int) -> CompositeCycle:
    """C_{i,...,i+k} as the symmetric difference of its simple cycles."""
    _check_range(g, i, k)
    mask = 0
    for a in range(i, i + k + 1):
        mask ^= g.simple_cycle_masks[a - 1]
    return CompositeCycle(i, k, mask)


def composite_length(g: ChainGraph, i: int, k: int) -> int:
    """Edge count of C_{i,...,i+k}: the length sum minus 2k."""
    _check_range(g, i, k)
    return sum(g.m[i - 1 + a] for a in range(k + 1)) - 2 * k


def all_cycles(g: ChainGraph) -> list[CompositeCycle]:
    """All r(r+1)/2 cycles, in lexicographic (span, start) order."""
    out = []
    for k in range(g.r):
        for i in range(1, g.r - k + 1):
            out.append(composite_cycle(g, i, k))
    return out


def intersection_formula(g: ChainGraph, a: CompositeCycle, b: CompositeCycle) -> tuple[int, int]:
    """Closed-form predictor for the intersection size.

    Returns (predicted size, row id 1..9).  The pair is normalized so the
    first cycle has the smaller span; rows are tried top to bottom and the
    first match wins.  Row 3 only applies to strictly nested ranges with
    equal left ends, which keeps identical cycles in the identity row 4.
    """
    i, k, j, l = a.start, a.span, b.start, b.span
    if k > l:
        i, k, j, l = j, l, i, k
    if i + k == j - 1:
        return 1, 1
    if 0 <= i + k - j <= k - 1:
        return composite_length(g, j, i + k - j) - 2, 2
    if i == j and k < l:
        return composite_length(g, j, k) - 1, 3
    if i + k == j + l and l == k:
        return composite_length(g, j, l), 4
    if k + 1 <= i + k - j <= l - 1:
        return composite_length(g, i, k) - 2, 5
    if i + k == j + l:
        return composite_length(g, i, k) - 1, 6
    if 1 <= i + k - j - l <= k:
        return composite_length(g, i, k - (i + k - j - l)) - 2, 7
    if i == j + l + 1:
        return 1, 8
    return 0, 9


class PairComparison(NamedTuple):
    """Exact and predicted intersection size of the cycles a and b, each
    given as (start, span), with the predictor's row; a named tuple."""

    a: tuple[int, int]
    b: tuple[int, int]
    exact: int
    predicted: int
    row: int

    @property
    def agree(self) -> bool:
        return self.exact == self.predicted


def intersection_report(g: ChainGraph) -> list[PairComparison]:
    """Exact vs predicted intersection size for every unordered cycle pair."""
    cycles = all_cycles(g)
    out = []
    for a, b in itertools.combinations_with_replacement(cycles, 2):
        predicted, row = intersection_formula(g, a, b)
        out.append(
            PairComparison(
                (a.start, a.span),
                (b.start, b.span),
                (a.edges & b.edges).bit_count(),
                predicted,
                row,
            )
        )
    return out
