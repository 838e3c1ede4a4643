"""Acceptance gate: one test per criterion, frozen expected values.

Criteria 1 and 2 carry wall-clock budgets, so they time themselves.
Criterion 7 runs five generated-input property suites at 100+ cases each
with a fixed seed; the hypothesis suites in the per-module test files
cover the same laws with shrinking on top.
"""

import math
import random
import time

from cyclechain import (
    all_cycles,
    build_chain_graph,
    cohen_macaulay_verdict,
    colon_mindeg,
    count_trees_kirchhoff,
    covers_lemma41,
    enumerate_trees_characterized,
    enumerate_trees_oracle,
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
    replay_certificate,
    spanning_complex,
    verify_instance,
)
from cyclechain.edgeset import EdgeSet
from cyclechain.ideal import MonomialIdeal
from cyclechain.oracle import bareiss_determinant
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


def test_criterion_1_example_instance_battery(fig1):
    started = time.perf_counter()

    assert fig1.n == 10 and fig1.num_vertices == 9
    cycles = all_cycles(fig1)
    assert len(cycles) == 3
    assert sorted(len(c.edges) for c in cycles) == [3, 4, 5]
    assert spanning_complex(fig1).dim == 7

    sts = enumerate_trees_characterized(fig1)
    assert len(sts) == 11
    assert sts.by_class == {"C1": 6, "C2": 5}
    assert sts.tree_masks() == enumerate_trees_oracle(fig1).tree_masks()
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
    assert cohen_macaulay_verdict(fig1, ideal).certified

    assert time.perf_counter() - started < 1.0


def test_criterion_2_tree_enumeration_matches_oracle_family_wide():
    started = time.perf_counter()
    assert len(FAMILY) == 480
    for r, m, t in FAMILY:
        g = build_chain_graph(r, m, t)
        sts = enumerate_trees_characterized(g)
        assert sts.tree_masks() == enumerate_trees_oracle(g).tree_masks(), (r, m, t)
        assert len(sts) == count_trees_kirchhoff(g), (r, m, t)
        assert sum(sts.by_class.values()) == len(sts)
        for rm in sts.removals:
            assert len(rm.removed) == r
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
    for g in SMALL:
        c = spanning_complex(g)
        covers = minimal_vertex_covers_oracle(c)
        assert intersect_primes(covers, g.n) == facet_ideal(c), (g.r, g.m, g.t)
        lemma_masks = {s.mask for s in covers_lemma41(g)}
        oracle_masks = {s.mask for s in covers}
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
    assert [str(fig1.label_of(v)) for v in cert.witnesses] == [
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

    # edge-set algebra
    for _ in range(N_CASES):
        ground = rng.randint(1, 16)
        full = (1 << ground) - 1
        x = EdgeSet(rng.randint(0, full), ground)
        y = EdgeSet(rng.randint(0, full), ground)
        assert (x | y).mask == x.mask | y.mask
        assert (x & y).mask == x.mask & y.mask
        assert (x - y).mask == x.mask & ~y.mask
        assert (x | y).complement() == x.complement() & y.complement()
        assert x.issubset(y) == (len(x - y) == 0)
        assert x.isdisjoint(y) == (len(x & y) == 0)
        assert (x ^ y) == (x | y) - (x & y)
        assert len(x) == x.mask.bit_count()
        assert tuple(x) == x.indices() == tuple(sorted(x.indices()))

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
        c = spanning_complex(g)
        covers = minimal_vertex_covers_oracle(c)
        for s in covers:
            assert all(not s.isdisjoint(f) for f in c.facets)
        for s in covers:
            for s2 in covers:
                assert s == s2 or not s.issubset(s2)

    # colon degree zero exactly on members
    for _ in range(N_CASES):
        ground = rng.randint(3, 12)
        full = (1 << ground) - 1
        gens = [EdgeSet(rng.randint(1, full), ground) for _ in range(rng.randint(1, 6))]
        ideal = MonomialIdeal.of(gens, ground)
        m = EdgeSet(rng.randint(0, full), ground)
        deg, witnesses = colon_mindeg(ideal, m)
        assert (deg == 0) == ideal.contains(m)
        for w in witnesses:
            assert len(w) == deg
            assert ideal.contains(m | w)
