"""Series arithmetic plus the two independent dimension-count routes."""

import pytest
from hypothesis import given, strategies as st

from cyclechain import (
    FVector,
    IntPolynomial,
    RationalSeries,
    build_chain_graph,
    f_vector_exact,
    hilbert_function_oracle,
    hilbert_series,
)
from cyclechain.hilbert import _divide_by_one_minus_t, one_minus_t_power
from cyclechain.util import binom


def test_polynomial_arithmetic():
    p = IntPolynomial.of([1, 2, 0])
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    q = IntPolynomial.of([0, 0, 3])
    assert (p + q).coefficients == (1, 2, 3)
    assert (p * q).coefficients == (0, 0, 3, 6)
    assert p(10) == 21
    assert p.shift(2).coefficients == (0, 0, 1, 2)
    assert IntPolynomial.of([]).is_zero
    assert one_minus_t_power(2).coefficients == (1, -2, 1)


def test_normalization():
    # (1 - t^2) / (1 - t)^2 = (1 + t) / (1 - t)
    s = RationalSeries.normalized(IntPolynomial.of([1, 0, -1]), 2)
    assert s.numerator.coefficients == (1, 1)
    assert s.denom_power == 1
    assert s.is_normalized
    raw = RationalSeries(IntPolynomial.of([1, 0, -1]), 2)
    assert not raw.is_normalized
    assert raw.expand(6) == s.expand(6)


def test_series_addition():
    one_pole = RationalSeries(IntPolynomial.of([1]), 1)
    two_pole = RationalSeries(IntPolynomial.of([1]), 2)
    total = one_pole + two_pole
    assert total.expand(5) == [a + b for a, b in zip(one_pole.expand(5), two_pole.expand(5))]


def test_expand_validation():
    s = RationalSeries(IntPolynomial.of([1]), 0)
    assert s.expand(3) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        s.expand(-1)


def test_single_vertex_series():
    s = hilbert_series(FVector((1,)))
    assert s.numerator.coefficients == (1,)
    assert s.denom_power == 1
    assert s.expand(4) == [1, 1, 1, 1, 1]


def test_triangle_series(triangle):
    s = hilbert_series(f_vector_exact(triangle))
    assert s.numerator.coefficients == (1, 1, 1)
    assert s.denom_power == 2
    assert s.expand(3) == [1, 3, 6, 9]


def test_example_instance_series(fig1):
    s = hilbert_series(f_vector_exact(fig1))
    assert s.numerator.coefficients == (1, 2, 3, 3, 2)
    assert s.denom_power == 8
    # the numerator at 1 is the number of facets
    assert s.numerator(1) == 11
    assert s.expand(10) == [
        1, 10, 55, 219, 704, 1936, 4722, 10470, 21483, 41338, 75361,
    ]


def test_series_expansion_matches_dimension_formula(fig1):
    expansion = hilbert_series(f_vector_exact(fig1)).expand(10)
    assert expansion == hilbert_function_oracle(fig1, 10)
    assert hilbert_function_oracle(fig1, 0) == [1]
    assert hilbert_function_oracle(fig1, 1) == [1, fig1.n]


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_series_of_any_integer_vector_expands_by_binomials(f):
    # formal identity, independent of any complex
    s = hilbert_series(FVector(tuple(f)))
    expansion = s.expand(8)
    assert expansion[0] == 1
    for j in range(1, 9):
        assert expansion[j] == sum(
            fi * binom(j - 1, i) for i, fi in enumerate(f)
        )


def test_literal_monomial_route(triangle, fig1):
    assert hilbert_function_oracle(triangle, 3, literal=True) == \
        hilbert_function_oracle(triangle, 3)
    assert hilbert_function_oracle(fig1, 2, literal=True) == \
        hilbert_function_oracle(fig1, 2)
    with pytest.raises(ValueError):
        hilbert_function_oracle(triangle, -1)


def test_numerator_nonnegative_on_sample():
    for r, m, t in ((1, [5], 2), (2, [4, 4], 0), (3, [3, 4, 3], 1)):
        s = hilbert_series(f_vector_exact(build_chain_graph(r, m, t)))
        assert all(c >= 0 for c in s.numerator.coefficients)
        assert s.denom_power == build_chain_graph(r, m, t).num_vertices - 1


def test_division_by_one_minus_t_is_exact_or_an_internal_error():
    assert _divide_by_one_minus_t(IntPolynomial.of([1, -1])).coefficients == (1,)
    # 1 + t has p(1) = 2: not a multiple of 1-t, and not a ValueError,
    # which the CLI would report as invalid input
    with pytest.raises(ArithmeticError) as exc:
        _divide_by_one_minus_t(IntPolynomial.of([1, 1]))
    assert not isinstance(exc.value, ValueError)
