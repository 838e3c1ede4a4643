import tracemalloc
from collections import Counter

import pytest

from cyclechain import (
    IndexOutOfRange,
    SearchSpaceTooLarge,
    all_cycles,
    build_chain_graph,
    enumerate_trees_characterized,
    f_vector_bruteforce,
    f_vector_exact,
    f_vector_paper,
    f_vector_pairwise_form,
    f_vector_r2_closed_form,
    oracle,
    spanning_complex,
)
from cyclechain.util import binom
from cyclechain.verify import family_instances


def _facets(*facets):
    return tuple(sum(1 << i for i in f) for f in facets)


def test_spanning_complex(fig1):
    facets = spanning_complex(fig1)
    assert facets == enumerate_trees_characterized(fig1)
    assert len(facets) == 11
    assert {f.bit_count() for f in facets} == {fig1.num_vertices - 1}
    assert max(facets) >> fig1.n == 0


def test_bruteforce_on_tiny_complexes():
    assert f_vector_bruteforce(_facets([0, 1], [1, 2], [0, 2])) == (3, 3)
    assert f_vector_bruteforce(_facets([0, 1, 2])) == (3, 3, 1)
    # each of the 29 trees of a 29-cycle has 2^28 - 1 faces, past the 2^24 cap
    with pytest.raises(SearchSpaceTooLarge, match="cap of 16777216$"):
        f_vector_bruteforce(spanning_complex(build_chain_graph(1, [29], 0)))


def test_example_instance_fvector(fig1):
    fv = f_vector_exact(fig1)
    assert fv == (10, 45, 119, 202, 224, 157, 63, 11)
    assert fv[0] == fig1.n
    assert fv[-1] == 11
    assert sum(fv) == 831
    assert fv == f_vector_bruteforce(spanning_complex(fig1))


def test_exact_equals_bruteforce(small_instances):
    for g in small_instances:
        assert f_vector_exact(g) == f_vector_bruteforce(spanning_complex(g))


def test_pairwise_form_agrees_up_to_two_cycles(fig1, triangle):
    for g in (triangle, fig1):
        assert f_vector_pairwise_form(g) == f_vector_exact(g)


def test_pairwise_form_drifts_at_three_cycles(chain3):
    comparison = f_vector_paper(chain3, f_vector_exact(chain3))
    assert comparison.exact == (7, 21, 32, 21)
    assert comparison.pairwise_form == (89, 134, 121, 51)
    assert not comparison.agree
    assert comparison.mismatched_indices == (0, 1, 2, 3)
    assert comparison.r2_closed_form is None


def _pairwise_subset_walk(g):
    """The pairwise form summed subset by subset over all 2^tau subsets."""
    cycles = all_cycles(g)
    sizes = [c.edges.bit_count() for c in cycles]
    pair = [[(a.edges & b.edges).bit_count() for b in cycles] for a in cycles]
    coef = Counter()
    for s in range(1 << len(cycles)):
        members = [i for i in range(len(cycles)) if s >> i & 1]
        estimate = sum(sizes[i] for i in members) - sum(
            pair[i][j] for x, i in enumerate(members) for j in members[x + 1 :]
        )
        coef[estimate] += -1 if len(members) & 1 else 1
    return tuple(
        sum(c * binom(g.n - u, i + 1 - u) for u, c in coef.items())
        for i in range(g.num_vertices - 1)
    )


def test_pairwise_form_equals_the_subset_walk():
    specs = family_instances(4, 5, 3) + [(5, [4] * 5, 0), (5, [6, 3, 5, 4, 3], 2)]
    graphs = [build_chain_graph(r, list(m), t) for r, m, t in specs]
    for g in graphs:
        assert f_vector_pairwise_form(g) == _pairwise_subset_walk(g), g


def _union_subset_walk(g):
    """Inclusion-exclusion with true union sizes over all 2^tau subsets:
    a set of k edges is a face iff it contains no cycle."""
    masks = [c.edges for c in all_cycles(g)]
    coef = Counter()
    for s in range(1 << len(masks)):
        union = 0
        for i, mask in enumerate(masks):
            if s >> i & 1:
                union |= mask
        coef[union.bit_count()] += -1 if s.bit_count() & 1 else 1
    return tuple(
        sum(c * binom(g.n - u, i + 1 - u) for u, c in coef.items())
        for i in range(g.num_vertices - 1)
    )


def test_exact_equals_the_union_subset_walk_past_the_face_oracle():
    # the face oracle stops at 28 edges; these have 32 to 64
    for r, m, t in ((5, [12] * 5, 0), (4, [8] * 4, 3), (1, [64], 0), (2, [3, 61], 0)):
        g = build_chain_graph(r, m, t)
        assert g.n > 28
        assert f_vector_exact(g) == _union_subset_walk(g), g


def test_exact_ends_at_six_cycles():
    # f_0 counts the edges and f_last the spanning trees, up to 64 edges
    for m, t in (([8] * 6, 0), ([3, 3, 4, 4, 5, 5], 0), ([3, 12] * 3, 10), ([11] * 6, 3)):
        g = build_chain_graph(6, m, t)
        fv = f_vector_exact(g)
        assert len(fv) == g.num_vertices - 1
        assert fv[0] == g.n
        assert fv[-1] == oracle.kirchhoff_count(g.endpoints, g.num_vertices), g
    assert g.n == 64


def test_pairwise_form_at_six_cycles():
    # pinned from the subset walk above, which takes about 16 s on a 2-core VM
    g = build_chain_graph(6, [3, 3, 4, 4, 5, 5], 0)
    assert f_vector_pairwise_form(g) == (
        -300509640658481859047302971200,
        -6122209924445692635733240120,
        -104368615704911378143933788,
        -1429869096481027365827600,
        -14822190398843175002687,
        -105443342767469014938,
        -429781930402525320,
        -651748158226728,
        0, 0, 0, 0, 0,
    )


def test_r2_closed_form(fig1):
    assert f_vector_r2_closed_form(fig1) == f_vector_exact(fig1)
    for m in ([3, 3], [3, 5], [4, 6]):
        g = build_chain_graph(2, m, 1)
        assert f_vector_r2_closed_form(g) == f_vector_exact(g)
    comparison = f_vector_paper(fig1, f_vector_exact(fig1))
    assert comparison.agree
    assert comparison.r2_closed_form == comparison.exact


def test_r2_closed_form_needs_two_cycles(triangle, chain3):
    for g in (triangle, chain3):
        with pytest.raises(IndexOutOfRange):
            f_vector_r2_closed_form(g)


def test_exact_cap_on_many_cycles():
    # the cap is checked before anything of size 2^tau is allocated
    for r in (7, 8):
        g = build_chain_graph(r, [3] * r, 0)
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceTooLarge):
                f_vector_exact(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_nonfaces_characterize_faces(triangle, chain3):
    # a set is a face exactly when it contains no cycle
    for g in (triangle, chain3):
        facets = spanning_complex(g)
        nf = [c.edges for c in all_cycles(g)]
        for mask in range(1, 1 << g.n):
            is_face = any(mask & ~f == 0 for f in facets)
            contains_cycle = any(mask & s == s for s in nf)
            assert is_face == (not contains_cycle)

