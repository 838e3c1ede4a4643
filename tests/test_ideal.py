import random

import pytest
from hypothesis import given, strategies as st

from cyclechain import (
    CapacityExceeded,
    CertificateFails,
    EmptyIdeal,
    MonomialIdeal,
    QuotientCertificate,
    build_chain_graph,
    cohen_macaulay_verdict,
    colon_mindeg,
    covers_lemma41,
    facet_ideal,
    family_instances,
    intersect_primes,
    minimal_vertex_covers_oracle,
    paper_ordering,
    quasi_linear_certificate,
    replay_certificate,
    spanning_complex,
)
from cyclechain.edgeset import EdgeSet


def _ideal(ground, *supports):
    return MonomialIdeal.of([EdgeSet.of(s, ground) for s in supports], ground)


def _prime(ground, *vars_):
    return EdgeSet.of(vars_, ground)


def _labels(g, s):
    return [str(g.label_of(i)) for i in s]


def test_generating_system_is_minimalized():
    ideal = _ideal(4, [0, 1, 2], [0, 1], [2], [2])
    assert [s.indices() for s in ideal.generators] == [(2,), (0, 1)]
    assert len(ideal) == 2


def test_membership():
    ideal = _ideal(4, [0, 1])
    assert ideal.contains(EdgeSet.of([0, 1, 3], 4))
    assert not ideal.contains(EdgeSet.of([0, 3], 4))


def test_variable_prime_must_be_nonempty():
    with pytest.raises(ValueError, match="at least one variable"):
        intersect_primes([_prime(3, 0), EdgeSet.empty(3)], 3)


def test_facet_ideal(triangle):
    gens = facet_ideal(spanning_complex(triangle)).generators
    assert {s.mask for s in gens} == {0b011, 0b101, 0b110}


def test_prime_intersection_small():
    meet = intersect_primes([_prime(3, 0, 1), _prime(3, 1, 2)], 3)
    assert [s.indices() for s in meet.generators] == [(1,), (0, 2)]
    single = intersect_primes([_prime(3, 2)], 3)
    assert [s.indices() for s in single.generators] == [(2,)]
    with pytest.raises(EmptyIdeal):
        intersect_primes([], 3)
    with pytest.raises(CapacityExceeded):
        intersect_primes([_prime(4, 0, 1), _prime(4, 2, 3)], 4, cap=1)


def _reference_intersection(primes, cap, formed=None):
    """Every product of the current generators with the prime's variables,
    minimalized against each other after every prime.  The product count
    of every step is appended to formed."""

    def minimalize(masks):
        keep = []
        for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
            if not any(k & m == k for k in keep):
                keep.append(m)
        return keep

    cur = [1 << v for v in primes[0]]
    for p in primes[1:]:
        if formed is not None:
            formed.append(len(cur) * len(p))
        if len(cur) * len(p) > cap:
            raise CapacityExceeded(
                f"prime intersection step would form {len(cur) * len(p)} products"
            )
        cur = minimalize(m | 1 << v for m in cur for v in p)
    return cur


def _step_products(primes):
    """The product count every fold step forms, uncapped."""
    formed = []
    _reference_intersection(primes, float("inf"), formed)
    return formed


def _assert_folds_agree(primes, ground, caps):
    for cap in caps:
        try:
            got = [s.mask for s in intersect_primes(primes, ground, cap).generators]
        except CapacityExceeded as e:
            got = str(e)
        try:
            want = _reference_intersection(primes, cap)
        except CapacityExceeded as e:
            want = str(e)
        assert got == want, (cap, [p.mask for p in primes])


def test_prime_fold_matches_the_minimalizing_fold_on_the_family():
    for r, m, t in family_instances(3, 4, 2):
        g = build_chain_graph(r, m, t)
        primes = minimal_vertex_covers_oracle(spanning_complex(g))
        peak = max(_step_products(primes), default=1)
        _assert_folds_agree(primes, g.n, (10**6, peak, peak - 1))


@st.composite
def prime_lists(draw):
    """Up to eight primes on at most ten variables; later primes may copy,
    shrink or grow an earlier one, so duplicated and nested primes occur."""
    ground = draw(st.integers(1, 10))
    full = (1 << ground) - 1
    masks = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "copy", "sub", "super")))
        if not masks or kind == "fresh":
            mask = draw(st.integers(1, full))
        else:
            base = draw(st.sampled_from(masks))
            other = draw(st.integers(0, full))
            mask = {"copy": base, "sub": base & other or base, "super": base | other}[kind]
        masks.append(mask)
    return ground, [EdgeSet(m, ground) for m in masks]


@given(prime_lists())
def test_prime_fold_matches_the_minimalizing_fold(case):
    ground, primes = case
    products = _step_products(primes)
    caps = {10**6} | set(products) | {p - 1 for p in products}
    _assert_folds_agree(primes, ground, sorted(caps))


def test_colon_mindeg_examples():
    ideal = _ideal(3, [0, 1])
    deg, wit = colon_mindeg(ideal, EdgeSet.of([0, 2], 3))
    assert deg == 1 and [w.indices() for w in wit] == [(1,)]
    deg, wit = colon_mindeg(ideal, EdgeSet.of([0, 1], 3))
    assert deg == 0 and [w.indices() for w in wit] == [()]
    deg, wit = colon_mindeg(ideal, EdgeSet.of([2], 3))
    assert deg == 2 and [w.indices() for w in wit] == [(0, 1)]
    with pytest.raises(EmptyIdeal):
        colon_mindeg(MonomialIdeal.of([], 3), EdgeSet.empty(3))


@st.composite
def ideal_and_monomial(draw):
    ground = draw(st.integers(3, 10))
    full = (1 << ground) - 1
    gens = draw(st.lists(st.integers(1, full), min_size=1, max_size=5))
    m = draw(st.integers(0, full))
    ideal = MonomialIdeal.of([EdgeSet(x, ground) for x in gens], ground)
    return ideal, EdgeSet(m, ground)


@given(ideal_and_monomial())
def test_colon_mindeg_zero_iff_member(im):
    ideal, m = im
    deg, witnesses = colon_mindeg(ideal, m)
    assert (deg == 0) == ideal.contains(m)
    for w in witnesses:
        assert len(w) == deg
        assert ideal.contains(m | w)


def test_example_instance_cover_lists(fig1):
    lemma = covers_lemma41(fig1)
    assert [s.mask for s in lemma] == [64, 128, 256, 512, 6, 24, 40, 48]
    oracle_covers = minimal_vertex_covers_oracle(spanning_complex(fig1))
    assert [s.mask for s in oracle_covers] == [
        64, 128, 256, 512, 6, 24, 40, 48, 11, 13, 19, 21, 35, 37,
    ]
    # the predicted list misses the covers built from a shared edge plus
    # one non-shared edge of each adjacent cycle
    extras = [s for s in oracle_covers if s not in lemma]
    assert [_labels(fig1, s) for s in extras] == [
        ["e_{1,1}", "e_{1,2}", "e_{2,1}"],
        ["e_{1,1}", "e_{1,3}", "e_{2,1}"],
        ["e_{1,1}", "e_{1,2}", "e_{2,2}"],
        ["e_{1,1}", "e_{1,3}", "e_{2,2}"],
        ["e_{1,1}", "e_{1,2}", "e_{2,3}"],
        ["e_{1,1}", "e_{1,3}", "e_{2,3}"],
    ]


def test_predicted_covers_are_a_subset(small_instances):
    for g in small_instances:
        oracle_masks = {
            s.mask for s in minimal_vertex_covers_oracle(spanning_complex(g))
        }
        lemma_masks = {s.mask for s in covers_lemma41(g)}
        assert lemma_masks <= oracle_masks
        if g.r == 1:
            assert lemma_masks == oracle_masks


def test_true_covers_recover_the_facet_ideal(fig1, triangle):
    for g in (triangle, fig1):
        c = spanning_complex(g)
        covers = minimal_vertex_covers_oracle(c)
        assert intersect_primes(covers, g.n) == facet_ideal(c)


def test_predicted_covers_do_not(fig1):
    c = spanning_complex(fig1)
    wrong = intersect_primes(covers_lemma41(fig1), fig1.n)
    assert wrong != facet_ideal(c)
    assert len(wrong) == 6
    assert {len(s) for s in wrong.generators} == {7}
    # fewer primes means a larger ideal
    for gen in facet_ideal(c).generators:
        assert wrong.contains(gen)


def test_block_ordering(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    full = fig1.edge_set(fig1.full_mask)
    order = paper_ordering(fig1, ideal)
    removed = [(full ^ ideal.generators[i]).indices() for i in order]
    assert removed == [
        (0, 3),
        (0, 1), (0, 2), (0, 4), (0, 5),
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
    ]


def test_block_ordering_single_cycle(triangle):
    ideal = facet_ideal(spanning_complex(triangle))
    assert paper_ordering(triangle, ideal) == [2, 1, 0]


def test_example_instance_certificate(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    cert = quasi_linear_certificate(ideal, paper_ordering(fig1, ideal))
    assert len(cert.witnesses) == len(ideal) - 1
    assert [str(fig1.label_of(v)) for v in cert.witnesses] == [
        "e_{1,2}", "e_{1,3}", "e_{2,2}", "e_{2,3}", "e_{1,2}",
        "e_{1,2}", "e_{1,2}", "e_{1,3}", "e_{1,3}", "e_{1,3}",
    ]
    assert replay_certificate(ideal, cert)


def test_certificate_rejects_bad_orderings(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    with pytest.raises(ValueError):
        quasi_linear_certificate(ideal, [0, 0, 1])
    with pytest.raises(EmptyIdeal):
        quasi_linear_certificate(MonomialIdeal.of([], 2), [])


def test_certificate_failure_reports_step_and_degree():
    ideal = _ideal(4, [0, 1], [2, 3])
    with pytest.raises(CertificateFails) as exc:
        quasi_linear_certificate(ideal, [0, 1])
    assert exc.value.step == 2
    assert exc.value.mindeg == 2
    assert "step 2" in str(exc.value)


def test_single_generator_is_vacuously_fine():
    ideal = _ideal(2, [0])
    cert = quasi_linear_certificate(ideal, [0])
    assert cert.witnesses == ()
    assert replay_certificate(ideal, cert)


def test_replay_catches_tampering(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    cert = quasi_linear_certificate(ideal, paper_ordering(fig1, ideal))
    forged = QuotientCertificate(cert.ordering, (6,) + cert.witnesses[1:])
    assert not replay_certificate(ideal, forged)


def test_replay_rejects_an_ordering_that_is_not_a_permutation(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    cert = quasi_linear_certificate(ideal, paper_ordering(fig1, ideal))
    repeated = (cert.ordering[1],) + cert.ordering[1:]
    assert not replay_certificate(ideal, QuotientCertificate(repeated, cert.witnesses))
    short = QuotientCertificate(cert.ordering[:-1], cert.witnesses[:-1])
    assert not replay_certificate(ideal, short)


def test_any_shuffle_within_blocks_works(fig1):
    # ties inside a block are arbitrary, so permuting them must not
    # break the quotient property
    ideal = facet_ideal(spanning_complex(fig1))
    base = paper_ordering(fig1, ideal)
    rng = random.Random(7)
    for _ in range(10):
        head, mid, tail = base[:1], base[1:5], base[5:]
        rng.shuffle(mid)
        rng.shuffle(tail)
        cert = quasi_linear_certificate(ideal, head + mid + tail)
        assert replay_certificate(ideal, cert)


def test_cm_verdict(fig1, triangle, chain3):
    for g in (triangle, fig1, chain3):
        ideal = facet_ideal(spanning_complex(g))
        verdict = cohen_macaulay_verdict(g, ideal)
        assert verdict.certified
        assert verdict.failed_step is None
        assert replay_certificate(ideal, verdict.certificate)


def _reference_certificate(ideal, ordering):
    """The quadratic scan: every earlier generator, one EdgeSet difference
    each.  Returns ("ok", witnesses) or ("fails", step, mindeg)."""
    gens = ideal.generators
    witnesses = []
    for p in range(2, len(gens) + 1):
        m = gens[ordering[p - 1]]
        best = None
        best_var = None
        for q in range(p - 1):
            d = gens[ordering[q]] - m
            size = len(d)
            if best is None or size < best:
                best = size
                best_var = min(d.indices()) if size == 1 else None
            elif size == 1 == best:
                best_var = min(best_var, min(d.indices()))
        if best != 1:
            return "fails", p, best
        witnesses.append(best_var)
    return "ok", tuple(witnesses)


def _reference_replay(ideal, ordering, witnesses):
    gens = [ideal.generators[i].mask for i in ordering]
    for p in range(1, len(gens)):
        target = gens[p] | 1 << witnesses[p - 1]
        if not any(g & target == g for g in gens[:p]):
            return False
    return True


def _certificate(ideal, ordering):
    try:
        return "ok", quasi_linear_certificate(ideal, ordering).witnesses
    except CertificateFails as e:
        return "fails", e.step, e.mindeg


def test_exchange_lookup_matches_the_scan_on_the_family():
    for r, m, t in family_instances(3, 5, 1):
        g = build_chain_graph(r, m, t)
        ideal = facet_ideal(spanning_complex(g))
        order = paper_ordering(g, ideal)
        cert = quasi_linear_certificate(ideal, order)
        assert ("ok", cert.witnesses) == _reference_certificate(ideal, order)
        assert replay_certificate(ideal, cert)


def test_exchange_lookup_matches_the_scan_on_random_orderings(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    rng = random.Random(11)
    failures = 0
    for _ in range(50):
        order = list(range(len(ideal)))
        rng.shuffle(order)
        expected = _reference_certificate(ideal, order)
        assert _certificate(ideal, order) == expected
        if expected[0] == "fails":
            failures += 1
            continue
        forged = tuple(rng.randrange(fig1.n) for _ in expected[1])
        for witnesses in (expected[1], forged):
            cert = QuotientCertificate(tuple(order), witnesses)
            assert replay_certificate(ideal, cert) == _reference_replay(
                ideal, order, witnesses
            )
    assert failures >= 5


def test_mixed_degrees_are_rejected():
    ideal = _ideal(5, [0], [1, 2], [1, 3], [2, 3, 4])
    with pytest.raises(ValueError, match="one degree"):
        quasi_linear_certificate(ideal, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="one degree"):
        replay_certificate(ideal, QuotientCertificate((0, 1, 2, 3), (0, 0, 0)))
