"""The series read off the h-vector plus the two independent dimension-count
routes."""

import random

import pytest
from hypothesis import given, strategies as st

from cyclechain import (
    RationalSeries,
    build_chain_graph,
    f_vector_exact,
    hilbert_function_oracle,
    hilbert_series,
)
from cyclechain.util import binom


def test_expand_validation():
    s = RationalSeries((1,), 0)
    assert s.expand(3) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        s.expand(-1)


def test_single_vertex_series():
    s = hilbert_series((1,))
    assert s.numerator == (1,)
    assert s.denom_power == 1
    assert s.expand(4) == [1, 1, 1, 1, 1]
    # no faces at all: the series of the empty complex is 1
    s = hilbert_series((0, 0))
    assert (s.numerator, s.denom_power) == ((1,), 0)


def test_triangle_series(triangle):
    s = hilbert_series(f_vector_exact(triangle))
    assert s.numerator == (1, 1, 1)
    assert s.denom_power == 2
    assert s.expand(3) == [1, 3, 6, 9]


def test_example_instance_series(fig1):
    s = hilbert_series(f_vector_exact(fig1))
    assert s.numerator == (1, 2, 3, 3, 2)
    assert s.denom_power == 8
    # the numerator at 1 is the number of facets
    assert sum(s.numerator) == 11
    assert s.expand(10) == [
        1, 10, 55, 219, 704, 1936, 4722, 10470, 21483, 41338, 75361,
    ]


def test_series_expansion_matches_dimension_formula(fig1):
    expansion = hilbert_series(f_vector_exact(fig1)).expand(10)
    assert expansion == hilbert_function_oracle(fig1, 10)
    assert hilbert_function_oracle(fig1, 0) == [1]
    assert hilbert_function_oracle(fig1, 1) == [1, fig1.n]
    with pytest.raises(ValueError):
        hilbert_function_oracle(fig1, -1)


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=6),
    st.integers(0, 3),
)
def test_series_of_any_integer_vector_expands_by_binomials(f, zeros):
    # formal identity, independent of any complex
    s = hilbert_series(tuple(f))
    expansion = s.expand(8)
    assert expansion[0] == 1
    for j in range(1, 9):
        assert expansion[j] == sum(
            fi * binom(j - 1, i) for i, fi in enumerate(f)
        )
    # lowest terms: no factor 1-t is left to cancel
    if s.denom_power > 0:
        assert sum(s.numerator) != 0
    padded = hilbert_series(tuple(f) + (0,) * zeros)
    assert padded == s


def test_numerator_nonnegative_on_sample():
    for r, m, t in ((1, [5], 2), (2, [4, 4], 0), (3, [3, 4, 3], 1)):
        s = hilbert_series(f_vector_exact(build_chain_graph(r, m, t)))
        assert all(c >= 0 for c in s.numerator)
        assert s.denom_power == build_chain_graph(r, m, t).num_vertices - 1


def _expand_by_binomials(numerator, k, upto):
    """The series coefficients from 1/(1-t)^k = sum_j C(j+k-1, k-1) t^j,
    each a sum of binomials over the numerator."""
    if k == 0:
        return [numerator[j] if j < len(numerator) else 0 for j in range(upto + 1)]
    return [
        sum(c * binom(j - a + k - 1, k - 1) for a, c in enumerate(numerator))
        for j in range(upto + 1)
    ]


def test_running_sums_equal_the_binomial_expansion():
    rng = random.Random(17)
    for k in range(71):
        for upto in (0, rng.randrange(1, 201), rng.randrange(1, 21)):
            # lengths past upto + 1 exercise the cut
            length = rng.randrange(0, upto + 40)
            numerator = tuple(rng.randrange(-50, 51) for _ in range(length))
            got = RationalSeries(numerator, k).expand(upto)
            assert got == _expand_by_binomials(numerator, k, upto), (numerator, k, upto)
