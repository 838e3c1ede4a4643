"""Acceptance gate: one test per criterion, frozen expected values.

Criteria 1 and 2 carry wall-clock budgets, so they time themselves.
Criterion 7 runs four generated-input property suites at 100+ cases each
with a fixed seed; the hypothesis suites in the per-module test files
cover the same laws with shrinking on top.
"""

import math
import random
import time
from collections import Counter

from cyclechain import (
    all_cycles,
    build_chain_graph,
    cohen_macaulay_verdict,
    colon_mindeg,
    count_trees_kirchhoff,
    covers_lemma41,
    enumerate_trees_characterized,
    f_vector_bruteforce,
    f_vector_exact,
    f_vector_paper,
    f_vector_r2_closed_form,
    facet_ideal,
    hilbert_function_oracle,
    hilbert_series,
    intersect_primes,
    minimal_vertex_covers_oracle,
    paper_ordering,
    quasi_linear_certificate,
    removal_class,
    replay_certificate,
    spanning_complex,
    verify_instance,
)
from cyclechain.oracle import (
    bareiss_determinant,
    minimal_hitting_sets,
    spanning_tree_masks,
)
from cyclechain.util import binom
from cyclechain.verify import family_instances

N_CASES = 120

FAMILY = [
    (r, list(m), t) for r, m, t in family_instances(4, 5, 3)
]
SMALL = [
    build_chain_graph(r, m, t) for r, m, t in FAMILY
    if sum(m) - (r - 1) + t <= 14
]


def _oracle_masks(g):
    return set(spanning_tree_masks(g.endpoints, g.num_vertices))


def test_criterion_1_example_instance_battery(fig1):
    started = time.perf_counter()

    assert fig1.n == 10 and fig1.num_vertices == 9
    cycles = all_cycles(fig1)
    assert len(cycles) == 3
    assert sorted(c.edges.bit_count() for c in cycles) == [3, 4, 5]
    # every facet has 8 edges, so the complex has dimension 7
    assert {f.bit_count() - 1 for f in spanning_complex(fig1)} == {7}

    trees = enumerate_trees_characterized(fig1)
    assert len(trees) == 11
    assert Counter(removal_class(fig1, tree) for tree in trees) == {"C1": 6, "C2": 5}
    assert set(trees) == _oracle_masks(fig1)
    assert count_trees_kirchhoff(fig1) == 11

    fv = f_vector_exact(fig1)
    assert fv == (10, 45, 119, 202, 224, 157, 63, 11)

    series = hilbert_series(fv)
    assert series.numerator == (1, 2, 3, 3, 2)
    assert series.denom_power == 8
    assert series.expand(2) == [1, 10, 55]

    assert len(covers_lemma41(fig1)) == 8
    assert len(minimal_vertex_covers_oracle(spanning_complex(fig1))) == 14

    ideal = facet_ideal(spanning_complex(fig1))
    cert = quasi_linear_certificate(ideal, paper_ordering(fig1, ideal))
    assert len(cert.witnesses) == 10
    assert replay_certificate(ideal, cert)
    assert cohen_macaulay_verdict(fig1, ideal) == cert

    assert time.perf_counter() - started < 1.0


def test_criterion_2_tree_enumeration_matches_oracle_family_wide():
    started = time.perf_counter()
    assert len(FAMILY) == 480
    for r, m, t in FAMILY:
        g = build_chain_graph(r, m, t)
        trees = enumerate_trees_characterized(g)
        assert set(trees) == _oracle_masks(g), (r, m, t)
        assert len(trees) == count_trees_kirchhoff(g), (r, m, t)
        for tree in trees:
            assert tree.bit_count() == g.n - r
    assert time.perf_counter() - started < 120.0


def test_criterion_3_fvector_routes_agree():
    assert len(SMALL) == 313
    for g in SMALL:
        fv = f_vector_exact(g)
        assert fv == f_vector_bruteforce(spanning_complex(g)), (g.r, g.m, g.t)
        assert fv[0] == g.n
        assert fv[-1] == len(enumerate_trees_characterized(g))
        comparison = f_vector_paper(g, fv)
        assert comparison.agree == (g.r <= 2), (g.r, g.m, g.t)
    for r, m, t in FAMILY:
        if r != 2:
            continue
        g = build_chain_graph(r, m, t)
        assert f_vector_r2_closed_form(g) == f_vector_exact(g), (m, t)


def test_criterion_4_hilbert_expansion_matches_dimension_counts():
    for g in SMALL:
        expansion = hilbert_series(f_vector_exact(g)).expand(10)
        assert expansion == hilbert_function_oracle(g, 10), (g.r, g.m, g.t)


def test_criterion_5_cover_decomposition_and_reported_gap():
    # the covers of the brute-force trees, so that their intersection
    # tests the listing behind facet_ideal
    for g in SMALL:
        trees = spanning_tree_masks(g.endpoints, g.num_vertices)
        covers = minimal_hitting_sets(trees)
        assert intersect_primes(covers) == facet_ideal(spanning_complex(g)), (
            g.r, g.m, g.t,
        )
        lemma_masks = set(covers_lemma41(g))
        oracle_masks = set(covers)
        assert lemma_masks <= oracle_masks, (g.r, g.m, g.t)
        assert (lemma_masks == oracle_masks) == (g.r == 1), (g.r, g.m, g.t)

    report = verify_instance(
        build_chain_graph(2, [3, 4], 4), checks=("covers", "decomposition")
    )
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["decomposition"] == "match"
    assert statuses["covers"] == "mismatch"
    detail = next(c.detail for c in report.checks if c.name == "covers")
    assert detail["predicted"] == 8 and detail["oracle"] == 14


def test_criterion_6_quotient_certificates_family_wide(fig1):
    for r, m, t in FAMILY:
        g = build_chain_graph(r, m, t)
        ideal = facet_ideal(spanning_complex(g))
        cert = quasi_linear_certificate(ideal, paper_ordering(g, ideal))
        assert len(cert.witnesses) == len(ideal) - 1
        assert replay_certificate(ideal, cert), (r, m, t)

    ideal = facet_ideal(spanning_complex(fig1))
    cert = quasi_linear_certificate(ideal, paper_ordering(fig1, ideal))
    assert [fig1.labels[v] for v in cert.witnesses] == [
        "e_{1,2}", "e_{1,3}", "e_{2,2}", "e_{2,3}", "e_{1,2}",
        "e_{1,2}", "e_{1,2}", "e_{1,3}", "e_{1,3}", "e_{1,3}",
    ]


def test_criterion_7_property_suites():
    rng = random.Random(20260819)

    # binomial coefficient conventions
    for _ in range(N_CASES):
        a = rng.randint(0, 70)
        b = rng.randint(-4, 74)
        expected = 0 if b < 0 else math.comb(a, b)
        assert binom(a, b) == expected
        if a >= 1:
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)
        if 0 <= b <= a:
            assert binom(a, b) == binom(a, a - b)

    # determinant: cofactor reference and row-order invariance
    def reference(mat):
        if len(mat) == 1:
            return mat[0][0]
        return sum(
            (-1) ** j * head * reference([row[:j] + row[j + 1 :] for row in mat[1:]])
            for j, head in enumerate(mat[0])
        )

    for _ in range(N_CASES):
        size = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        det = bareiss_determinant(mat)
        assert det == reference(mat)
        perm = list(range(size))
        rng.shuffle(perm)
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        sign = -1 if inversions & 1 else 1
        assert bareiss_determinant([mat[i] for i in perm]) == sign * det

    # minimal covers: antichain that hits every facet
    pool = [g for g in SMALL if g.n <= 9]
    for _ in range(N_CASES):
        g = pool[rng.randrange(len(pool))]
        facets = spanning_complex(g)
        covers = minimal_vertex_covers_oracle(facets)
        for s in covers:
            assert all(s & f for f in facets)
        for s in covers:
            for s2 in covers:
                assert s == s2 or s & s2 != s

    # colon degree zero exactly on members
    for _ in range(N_CASES):
        ground = rng.randint(3, 12)
        full = (1 << ground) - 1
        gens = [rng.randint(1, full) for _ in range(rng.randint(1, 6))]
        m = rng.randint(0, full)
        deg, witnesses = colon_mindeg(gens, m)
        assert (deg == 0) == any(gen & m == gen for gen in gens)
        for w in witnesses:
            assert w.bit_count() == deg
            assert any(gen & (m | w) == gen for gen in gens)
