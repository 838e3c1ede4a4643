"""Spanning-tree enumeration for chain-of-cycles graphs.

The production route lists trees through the removal-set
characterization: a spanning tree deletes exactly one edge from each
independent cycle, and deleting shared edges merges consecutive cycles
into composite blocks that then get exactly one deletion of their own.
A block's candidates are the own edges of its cycles, the edges that lie
on one cycle alone.

The removal sets come from one walk over the cycles.  A partial removal
is "unpicked" while its open block has no own edge yet and "picked" once
it has one.  Start with unpicked = [0] and picked = [].  Cycle j adds
every unpicked removal plus one own edge of cycle j to picked.  Before
cycle j+1 the walk meets the shared edge s_j: an unpicked removal must
delete s_j, merging its block into cycle j+1, and stays unpicked; a
picked one either deletes s_j and stays picked, or keeps s_j, which
closes its block and leaves it unpicked for the next.  After cycle r the
picked removals are exactly the removal sets, each made once.  On sizes,
with d = |picked| and e = |unpicked|, the walk is d += |own_j| e at
cycle j and e += d at the shared edge after it, which is how
count_trees_characterized counts the trees without listing them.

Removal sets are classified by their shared-edge pattern:

    C1   no shared edge removed
    C2   exactly one shared edge removed
    C3a  several shared edges, all consecutive
    C3b  several shared edges, no two consecutive
    C3c  several shared edges, mixed runs

The class is keyed on the set of removed shared edges decomposed into
maximal consecutive runs; each run merges its cycles into one block, and
every untouched cycle is a block of its own.

The listing is the trees themselves, a tuple of int edge bitmasks; a
tree's removal set is its complement, and removal_class(g, tree) reads
its class off the shared edges the tree leaves out.  Distinct removal
sets leave distinct trees; the test suite holds the listing to set
equality with the brute-force enumeration and to the determinant count.
"""

from . import oracle
from .chain_graph import ChainGraph

CLASS_TAGS = ("C1", "C2", "C3a", "C3b", "C3c")


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


def removal_class(g: ChainGraph, tree: int) -> str:
    """The class tag of the tree's removal set, read off the shared edges
    the tree leaves out."""
    removed_js = [
        j for j, i in enumerate(g.common_edge_indices, start=1) if not tree >> i & 1
    ]
    return _classify(len(removed_js), _consecutive_runs(removed_js))


def enumerate_trees_characterized(g: ChainGraph) -> tuple[int, ...]:
    """All spanning trees as edge bitmasks, ascending, from the walk over
    the cycles."""
    unpicked, picked = [0], []
    for j, own in enumerate(g.own_masks):
        if j:
            s = 1 << g.common_edge_indices[j - 1]
            unpicked, picked = (
                [m | s for m in unpicked] + picked,
                [m | s for m in picked],
            )
        own_edges = [1 << e for e in range(g.n) if own >> e & 1]
        picked += [m | e for m in unpicked for e in own_edges]

    picked.sort(reverse=True)  # ascending kept edges
    return tuple(g.full_mask ^ m for m in picked)


def count_trees_characterized(g: ChainGraph) -> int:
    """The tree count from the walk's sizes, without listing the trees;
    linear in r, where the shared-edge patterns number 2^(r-1)."""
    d, e = 0, 1
    for own in g.own_masks:
        d += own.bit_count() * e
        e += d
    return d


def count_trees_kirchhoff(g: ChainGraph) -> int:
    """Tree count by integer determinant of a reduced Laplacian."""
    return oracle.kirchhoff_count(g.endpoints, g.num_vertices)
