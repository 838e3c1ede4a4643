import itertools
import math
from collections import Counter

import pytest

from cyclechain import (
    SearchSpaceTooLarge,
    build_chain_graph,
    count_trees_characterized,
    count_trees_kirchhoff,
    enumerate_trees_characterized,
    family_instances,
    oracle,
    removal_class,
)
from cyclechain.spanning import _classify, _consecutive_runs
from cyclechain.verify import labels_of


def _by_class(g, trees):
    return Counter(removal_class(g, tree) for tree in trees)


def _removed_labels(g, trees):
    return {
        frozenset(labels_of(g, g.full_mask ^ tree)): removal_class(g, tree)
        for tree in trees
    }


def _oracle_masks(g):
    return set(oracle.spanning_tree_masks(g.endpoints, g.num_vertices))


def test_example_instance_trees(fig1):
    trees = enumerate_trees_characterized(fig1)
    assert len(trees) == 11
    assert _by_class(fig1, trees) == {"C1": 6, "C2": 5}
    assert list(trees) == sorted(trees)


def test_example_instance_removals(fig1):
    by_removal = _removed_labels(fig1, enumerate_trees_characterized(fig1))
    # one non-shared edge from each cycle
    for a in ("e_{1,2}", "e_{1,3}"):
        for b in ("e_{2,1}", "e_{2,2}", "e_{2,3}"):
            assert by_removal[frozenset({a, b})] == "C1"
    # the shared edge plus one edge of the merged cycle
    for b in ("e_{1,2}", "e_{1,3}", "e_{2,1}", "e_{2,2}", "e_{2,3}"):
        assert by_removal[frozenset({"e_{1,1}", b})] == "C2"
    assert len(by_removal) == 11


def test_every_removal_has_r_edges(fig1, chain3):
    for g in (fig1, chain3):
        for tree in enumerate_trees_characterized(g):
            removed = g.full_mask ^ tree
            assert removed.bit_count() == g.r
            assert removed >> (g.n - g.t) == 0


def test_single_cycle(triangle):
    trees = enumerate_trees_characterized(triangle)
    assert len(trees) == 3
    assert _by_class(triangle, trees) == {"C1": 3}
    assert trees == (0b011, 0b101, 0b110)


def test_two_cycles_count_is_pairwise_product_sum():
    # with paths of a=1, b=m1-1, c=m2-1 parallel edges the count
    # is ab + ac + bc
    for m1, m2, expected in ((3, 3, 8), (3, 4, 11), (4, 4, 15)):
        g = build_chain_graph(2, [m1, m2], 0)
        b, c = m1 - 1, m2 - 1
        assert expected == b + c + b * c
        assert len(enumerate_trees_characterized(g)) == expected


def test_three_cycles(chain3):
    trees = enumerate_trees_characterized(chain3)
    assert len(trees) == 21
    assert _by_class(chain3, trees) == {"C1": 4, "C2": 12, "C3a": 5}


def test_long_chains_cover_all_classes():
    g4 = build_chain_graph(4, [3, 3, 3, 3], 0)
    assert set(_by_class(g4, enumerate_trees_characterized(g4))) == {
        "C1", "C2", "C3a", "C3b",
    }
    g5 = build_chain_graph(5, [3, 4, 3, 4, 3], 1)
    trees = enumerate_trees_characterized(g5)
    assert set(_by_class(g5, trees)) == {"C1", "C2", "C3a", "C3b", "C3c"}
    assert len(trees) == 297


def test_matches_oracle_and_kirchhoff(small_instances):
    for g in small_instances:
        trees = enumerate_trees_characterized(g)
        assert set(trees) == _oracle_masks(g)
        assert len(trees) == count_trees_kirchhoff(g)


def test_oracle_cap():
    # C(41, 8) = 95,548,245 ways to delete 8 of 41 edges, past the 10^6 cap
    g = build_chain_graph(8, [6] * 8, 0)
    with pytest.raises(SearchSpaceTooLarge, match="^95548245 deletion candidates"):
        oracle.spanning_tree_masks(g.endpoints, g.num_vertices)


def test_count_matches_the_enumeration_on_the_family():
    for r, m, t in family_instances(3, 5, 1):
        g = build_chain_graph(r, m, t)
        assert count_trees_characterized(g) == len(enumerate_trees_characterized(g))


def _block_choices(g, runs):
    """One candidate edge list per block of the shared-edge pattern with
    these runs: the non-shared edges of the block's composite cycle."""
    commons = g.common_edge_indices
    merged_cycles = set()
    blocks = []

    def strip_boundaries(mask, first, last):
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


def _enumerate_by_patterns(g):
    """(kept, removed, class) for every tree, ascending: one block choice
    per block, over all 2^(r-1) shared-edge patterns."""
    found = []
    for wsub in range(1 << (g.r - 1)):
        removed_js = [j + 1 for j in range(g.r - 1) if wsub >> j & 1]
        wmask = 0
        for j in removed_js:
            wmask |= 1 << g.common_edge_indices[j - 1]
        runs = _consecutive_runs(removed_js)
        tag = _classify(len(removed_js), runs)
        for picks in itertools.product(*_block_choices(g, runs)):
            removed = wmask
            for e in picks:
                removed |= 1 << e
            found.append((g.full_mask ^ removed, removed, tag))
    return sorted(found)


def test_walk_lists_what_the_pattern_product_lists_on_the_family():
    for r, m, t in family_instances(4, 5, 3):
        g = build_chain_graph(r, m, t)
        full = g.full_mask
        listed = [
            (tree, full ^ tree, removal_class(g, tree))
            for tree in enumerate_trees_characterized(g)
        ]
        assert listed == _enumerate_by_patterns(g), (r, m, t)


def _count_by_patterns(g):
    """The count summed over all 2^(r-1) shared-edge patterns."""
    total = 0
    for wsub in range(1 << (g.r - 1)):
        runs = _consecutive_runs([j + 1 for j in range(g.r - 1) if wsub >> j & 1])
        total += math.prod(len(block) for block in _block_choices(g, runs))
    return total


def test_count_matches_the_pattern_sum_on_the_family():
    for r, m, t in family_instances(4, 5, 1):
        g = build_chain_graph(r, m, t)
        assert count_trees_characterized(g) == _count_by_patterns(g)


def test_count_matches_kirchhoff_past_enumeration():
    # the trees number in the millions at r = 10; at r = 31 (63 edges) the
    # shared-edge patterns number 2^30
    for r, length in ((10, 6), (31, 3)):
        g = build_chain_graph(r, [length] * r, 0)
        assert count_trees_characterized(g) == count_trees_kirchhoff(g)


def test_forest_edges_never_removed(fig1):
    forest = 0b1111 << 6
    for tree in enumerate_trees_characterized(fig1):
        assert tree & forest == forest


def test_removal_sets_are_distinct_and_count_the_trees():
    # the enumeration keeps no dedup step, so the removal sets it generates
    # must already be pairwise distinct and as many as Kirchhoff's count
    for r, m, t in family_instances(4, 4, 1):
        g = build_chain_graph(r, m, t)
        masks = list(enumerate_trees_characterized(g))
        removed = [g.full_mask ^ k for k in masks]
        assert len(set(removed)) == len(removed) == count_trees_kirchhoff(g)
        assert masks == sorted(masks)
