"""Spanning-tree enumeration for chain-of-cycles graphs.

The production route enumerates trees through the removal-set
characterization: a spanning tree deletes exactly one edge from each
independent cycle, and deleting shared edges merges consecutive cycles
into composite ones that then get exactly one deletion of their own.
Removal sets are classified by their shared-edge pattern:

    C1   no shared edge removed
    C2   exactly one shared edge removed
    C3a  several shared edges, all consecutive
    C3b  several shared edges, no two consecutive
    C3c  several shared edges, mixed runs

The class is keyed on the set of removed shared edges decomposed into
maximal consecutive runs; each run merges its cycles into one composite
block, every untouched cycle is a block of its own, and a valid removal
takes exactly one non-shared edge from each block's composite cycle.

Distinct removal sets leave distinct trees, so the characterization
yields each tree exactly once; the test suite holds it to set equality
with the brute-force enumeration and to the determinant count.
"""

import itertools
from collections import Counter
from dataclasses import dataclass

from . import oracle
from .chain_graph import ChainGraph
from .edgeset import EdgeSet

CLASS_TAGS = ("C1", "C2", "C3a", "C3b", "C3c")


@dataclass(frozen=True)
class TreeRemoval:
    removed: EdgeSet
    class_tag: str


@dataclass(frozen=True)
class SpanningTreeSet:
    """Trees in ascending bitmask order.

    by_class and removals are populated by the characterized route only;
    the oracle route leaves them empty.
    """

    trees: tuple[EdgeSet, ...]
    by_class: dict[str, int]
    removals: tuple[TreeRemoval, ...] | None = None

    def __len__(self) -> int:
        return len(self.trees)

    def tree_masks(self) -> set[int]:
        return {s.mask for s in self.trees}


def _consecutive_runs(values: list[int]) -> list[tuple[int, int]]:
    runs = []
    for v in values:
        if runs and runs[-1][1] == v - 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return runs


def _classify(num_removed_commons: int, runs: list[tuple[int, int]]) -> str:
    if num_removed_commons == 0:
        return "C1"
    if num_removed_commons == 1:
        return "C2"
    if len(runs) == 1:
        return "C3a"
    if all(a == b for a, b in runs):
        return "C3b"
    return "C3c"


def _block_choices(g: ChainGraph, runs: list[tuple[int, int]]) -> list[list[int]]:
    """One candidate edge list per block: the block's non-shared edges."""
    commons = g.common_edge_indices
    merged_cycles: set[int] = set()
    blocks: list[list[int]] = []

    def strip_boundaries(mask: int, first: int, last: int) -> list[int]:
        if first >= 2:
            mask &= ~(1 << commons[first - 2])
        if last < g.r:
            mask &= ~(1 << commons[last - 1])
        return [e for e in range(g.n) if mask >> e & 1]

    for a, b in runs:
        mask = 0
        for c in range(a, b + 2):
            mask ^= g.simple_cycle_masks[c - 1]
        blocks.append(strip_boundaries(mask, a, b + 1))
        merged_cycles.update(range(a, b + 2))
    for c in range(1, g.r + 1):
        if c not in merged_cycles:
            blocks.append(strip_boundaries(g.simple_cycle_masks[c - 1], c, c))
    return blocks


def enumerate_trees_characterized(g: ChainGraph) -> SpanningTreeSet:
    """All spanning trees via the removal-set classes."""
    commons = g.common_edge_indices
    full = g.full_mask
    found: list[tuple[int, int, str]] = []

    for wsub in range(1 << (g.r - 1)):
        removed_js = [j + 1 for j in range(g.r - 1) if wsub >> j & 1]
        wmask = 0
        for j in removed_js:
            wmask |= 1 << commons[j - 1]
        runs = _consecutive_runs(removed_js)
        tag = _classify(len(removed_js), runs)
        for picks in itertools.product(*_block_choices(g, runs)):
            removed = wmask
            for e in picks:
                removed |= 1 << e
            found.append((full ^ removed, removed, tag))

    found.sort()
    trees = tuple(g.edge_set(kept) for kept, _, _ in found)
    removals = tuple(TreeRemoval(g.edge_set(removed), tag) for _, removed, tag in found)
    by_class = Counter(tag for _, _, tag in found)
    return SpanningTreeSet(
        trees, {tag: by_class[tag] for tag in CLASS_TAGS if by_class[tag]}, removals
    )


def count_trees_characterized(g: ChainGraph) -> int:
    """The tree count from the removal classes, without listing the trees.

    A shared-edge pattern splits the cycles into blocks of consecutive
    merged cycles, and a block offers one choice per non-shared edge of
    its cycles.  Over cycles 1..j, let D_j sum the choice products of the
    patterns whose last block ends at cycle j, and E_j = 1 + D_1 + ... +
    D_j.  Cycle j with own_j non-shared edges adds own_j choices to every
    block that ends at it, whichever cycle that block starts at, so
    D_j = D_(j-1) + own_j * E_(j-1), and the count is D_r.  The time is
    linear in r, where the patterns number 2^(r-1).
    """
    shared = 0
    for i in g.common_edge_indices:
        shared |= 1 << i
    d, e = 0, 1
    for cycle in g.simple_cycle_masks:
        d += (cycle & ~shared).bit_count() * e
        e += d
    return d


def enumerate_trees_oracle(g: ChainGraph, cap: int = 10**6) -> SpanningTreeSet:
    """Brute-force route; shares no logic with the characterization."""
    masks = oracle.spanning_tree_masks(g.endpoints, g.num_vertices, cap)
    return SpanningTreeSet(tuple(g.edge_set(m) for m in masks), {})


def count_trees_kirchhoff(g: ChainGraph) -> int:
    """Tree count by integer determinant of a reduced Laplacian."""
    return oracle.kirchhoff_count(g.endpoints, g.num_vertices)
