import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from cyclechain import (
    CapacityExceeded,
    CertificateFails,
    EmptyIdeal,
    QuotientCertificate,
    build_chain_graph,
    cohen_macaulay_verdict,
    colon_mindeg,
    covers_lemma41,
    facet_ideal,
    family_instances,
    intersect_primes,
    minimal_vertex_covers_oracle,
    oracle,
    paper_ordering,
    quasi_linear_certificate,
    replay_certificate,
    spanning_complex,
)
from cyclechain.verify import labels_of


def _mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _ideal(*supports):
    """The generators of the given supports, in (size, mask) order."""
    gens = [_mask(s) for s in supports]
    return tuple(sorted(gens, key=lambda s: (s.bit_count(), s)))


def _contains(gens, m):
    return any(gen & m == gen for gen in gens)


def test_variable_prime_must_be_nonempty():
    with pytest.raises(ValueError, match="at least one variable"):
        intersect_primes([0b001, 0])


def test_facet_ideal(triangle):
    gens = facet_ideal(spanning_complex(triangle))
    assert list(gens) == [0b011, 0b101, 0b110]


@pytest.mark.parametrize(
    "facets, reason",
    [
        ((), "at least one facet"),
        ((0b011, -1), "negative"),
        ((0b011, 0b101, 0b011), "duplicate"),
        ((0b0111, 0b1001), "more than one degree"),
    ],
    ids=["empty", "negative", "duplicate", "mixed-sizes"],
)
def test_facet_ideal_rejects_bad_facet_lists(facets, reason):
    with pytest.raises(ValueError, match=reason):
        facet_ideal(facets)


def test_prime_intersection_small():
    meet = intersect_primes([0b011, 0b110])
    assert meet == (0b010, 0b101)
    assert intersect_primes([0b100]) == (0b100,)
    with pytest.raises(EmptyIdeal):
        intersect_primes([])
    with pytest.raises(CapacityExceeded):
        intersect_primes([0b0011, 0b1100], cap=1)
    with pytest.raises(TypeError):
        intersect_primes([0b0011, 0b1100], 4)


def test_facet_ideal_of_the_empty_facet_is_the_unit_ideal():
    # mask 0 is no variable, the generator 1; only a negative mask is refused
    assert facet_ideal((0,)) == (0,)


def test_prime_intersection_default_cap_is_a_million_products():
    # 1000 singletons times a prime of 1000 (or 1001) variables; every
    # singleton meets the prime, so the step that passes forms nothing new
    thousand = (1 << 1000) - 1
    assert intersect_primes([thousand, thousand]) == tuple(1 << v for v in range(1000))
    with pytest.raises(CapacityExceeded, match="form 1001000 products"):
        intersect_primes([thousand, (1 << 1001) - 1])


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

    cur = [1 << v for v in _indices(primes[0])]
    for p in primes[1:]:
        products = len(cur) * p.bit_count()
        if formed is not None:
            formed.append(products)
        if products > cap:
            raise CapacityExceeded(
                f"prime intersection step would form {products} products"
            )
        cur = minimalize(m | 1 << v for m in cur for v in _indices(p))
    return cur


def _step_products(primes):
    """The product count every fold step forms, uncapped."""
    formed = []
    _reference_intersection(primes, float("inf"), formed)
    return formed


def _assert_folds_agree(primes, caps):
    for cap in caps:
        try:
            got = list(intersect_primes(primes, cap=cap))
        except CapacityExceeded as e:
            got = str(e)
        try:
            want = _reference_intersection(primes, cap)
        except CapacityExceeded as e:
            want = str(e)
        assert got == want, (cap, primes)


def test_prime_fold_matches_the_minimalizing_fold_on_the_family():
    for r, m, t in family_instances(3, 4, 2):
        g = build_chain_graph(r, m, t)
        primes = minimal_vertex_covers_oracle(spanning_complex(g))
        peak = max(_step_products(primes), default=1)
        _assert_folds_agree(primes, (10**6, peak, peak - 1))


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
    return ground, masks


@given(prime_lists())
def test_prime_fold_matches_the_minimalizing_fold(case):
    ground, primes = case
    products = _step_products(primes)
    caps = {10**6} | set(products) | {p - 1 for p in products}
    _assert_folds_agree(primes, sorted(caps))


def test_colon_mindeg_examples():
    ideal = _ideal([0, 1])
    deg, wit = colon_mindeg(ideal, _mask([0, 2]))
    assert deg == 1 and wit == (0b010,)
    deg, wit = colon_mindeg(ideal, _mask([0, 1]))
    assert deg == 0 and wit == (0,)
    deg, wit = colon_mindeg(ideal, _mask([2]))
    assert deg == 2 and wit == (0b011,)
    with pytest.raises(EmptyIdeal):
        colon_mindeg((), 0)


@st.composite
def ideal_and_monomial(draw):
    ground = draw(st.integers(3, 10))
    full = (1 << ground) - 1
    gens = draw(st.lists(st.integers(1, full), min_size=1, max_size=5))
    m = draw(st.integers(0, full))
    return tuple(gens), m


@given(ideal_and_monomial())
def test_colon_mindeg_zero_iff_member(im):
    gens, m = im
    deg, witnesses = colon_mindeg(gens, m)
    assert (deg == 0) == _contains(gens, m)
    for w in witnesses:
        assert w.bit_count() == deg
        assert _contains(gens, m | w)


def test_example_instance_cover_lists(fig1):
    lemma = covers_lemma41(fig1)
    assert lemma == [64, 128, 256, 512, 6, 24, 40, 48]
    oracle_covers = minimal_vertex_covers_oracle(spanning_complex(fig1))
    assert oracle_covers == [
        64, 128, 256, 512, 6, 24, 40, 48, 11, 13, 19, 21, 35, 37,
    ]
    # the predicted list misses the covers built from a shared edge plus
    # one non-shared edge of each adjacent cycle
    extras = [s for s in oracle_covers if s not in lemma]
    assert [labels_of(fig1, s) for s in extras] == [
        ["e_{1,1}", "e_{1,2}", "e_{2,1}"],
        ["e_{1,1}", "e_{1,3}", "e_{2,1}"],
        ["e_{1,1}", "e_{1,2}", "e_{2,2}"],
        ["e_{1,1}", "e_{1,3}", "e_{2,2}"],
        ["e_{1,1}", "e_{1,2}", "e_{2,3}"],
        ["e_{1,1}", "e_{1,3}", "e_{2,3}"],
    ]


def test_predicted_covers_are_a_subset(small_instances):
    for g in small_instances:
        oracle_masks = set(minimal_vertex_covers_oracle(spanning_complex(g)))
        lemma_masks = set(covers_lemma41(g))
        assert lemma_masks <= oracle_masks
        if g.r == 1:
            assert lemma_masks == oracle_masks


def test_true_covers_recover_the_facet_ideal(fig1, triangle):
    for g in (triangle, fig1):
        c = spanning_complex(g)
        covers = minimal_vertex_covers_oracle(c)
        assert intersect_primes(covers) == facet_ideal(c)


def test_predicted_covers_do_not(fig1):
    c = spanning_complex(fig1)
    wrong = intersect_primes(covers_lemma41(fig1))
    assert wrong != facet_ideal(c)
    assert len(wrong) == 6
    assert {s.bit_count() for s in wrong} == {7}
    # fewer primes means a larger ideal
    for gen in facet_ideal(c):
        assert _contains(wrong, gen)


def test_block_ordering(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    order = paper_ordering(fig1, ideal)
    removed = [tuple(_indices(fig1.full_mask ^ ideal[i])) for i in order]
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
    assert [fig1.labels[v] for v in cert.witnesses] == [
        "e_{1,2}", "e_{1,3}", "e_{2,2}", "e_{2,3}", "e_{1,2}",
        "e_{1,2}", "e_{1,2}", "e_{1,3}", "e_{1,3}", "e_{1,3}",
    ]
    assert replay_certificate(ideal, cert)


def test_certificate_rejects_bad_orderings(fig1):
    ideal = facet_ideal(spanning_complex(fig1))
    with pytest.raises(ValueError):
        quasi_linear_certificate(ideal, [0, 0, 1])
    with pytest.raises(EmptyIdeal):
        quasi_linear_certificate((), [])


def test_certificate_failure_reports_step_and_degree():
    ideal = _ideal([0, 1], [2, 3])
    with pytest.raises(CertificateFails) as exc:
        quasi_linear_certificate(ideal, [0, 1])
    assert exc.value.step == 2
    assert exc.value.mindeg == 2
    assert "step 2" in str(exc.value)


def test_single_generator_is_vacuously_fine():
    ideal = _ideal([0])
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
        cert = cohen_macaulay_verdict(g, ideal)
        assert cert == quasi_linear_certificate(ideal, paper_ordering(g, ideal))
        assert replay_certificate(ideal, cert)


def _reference_certificate(gens, ordering):
    """The quadratic scan: every earlier generator, one bitmask difference
    each.  Returns ("ok", witnesses) or ("fails", step, mindeg)."""
    witnesses = []
    for p in range(2, len(gens) + 1):
        m = gens[ordering[p - 1]]
        best = None
        best_var = None
        for q in range(p - 1):
            d = gens[ordering[q]] & ~m
            size = d.bit_count()
            if best is None or size < best:
                best = size
                best_var = d.bit_length() - 1 if size == 1 else None
            elif size == 1 == best:
                best_var = min(best_var, d.bit_length() - 1)
        if best != 1:
            return "fails", p, best
        witnesses.append(best_var)
    return "ok", tuple(witnesses)


def _reference_replay(gens, ordering, witnesses):
    gens = [gens[i] for i in ordering]
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
    ideal = _ideal([0], [1, 2], [1, 3], [2, 3, 4])
    with pytest.raises(ValueError, match="one degree"):
        quasi_linear_certificate(ideal, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="one degree"):
        replay_certificate(ideal, QuotientCertificate((0, 1, 2, 3), (0, 0, 0)))


def test_cover_count_closed_form_and_the_lemma_gap_on_the_family():
    # With A = n - t - (r - 1) own edges in all, I_F has t + C(A, 2)
    # associated primes; Lemma 4.1 lists t + sum_j C(a_j, 2) of them and
    # misses the sum_{i<k} a_i a_k covers that cross shared edges.
    for r, m, t in family_instances(4, 5, 3):
        g = build_chain_graph(r, m, t)
        trees = oracle.spanning_tree_masks(g.endpoints, g.num_vertices)
        own = [mask.bit_count() for mask in g.own_masks]
        total = g.n - t - (r - 1)
        assert sum(own) == total
        found = len(oracle.minimal_hitting_sets(trees))
        assert found == t + math.comb(total, 2), (r, m, t)
        lemma = len(covers_lemma41(g))
        assert lemma == t + sum(math.comb(a, 2) for a in own), (r, m, t)
        crossing = sum(a * b for a, b in itertools.combinations(own, 2))
        assert found - lemma == crossing, (r, m, t)
