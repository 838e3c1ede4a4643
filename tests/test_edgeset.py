"""Algebra laws for the bitmask-backed edge sets."""

import pytest
from hypothesis import given, strategies as st

from cyclechain import CapacityExceeded
from cyclechain.edgeset import MAX_GROUND, EdgeSet


@st.composite
def mask_pair(draw):
    g = draw(st.integers(1, 16))
    full = (1 << g) - 1
    return g, draw(st.integers(0, full)), draw(st.integers(0, full))


def test_constructors():
    e = EdgeSet.of([3, 1, 1], 5)
    assert e.mask == 0b01010
    assert tuple(e) == (1, 3)
    assert len(EdgeSet(0, 7)) == 0


def test_ground_capacity():
    EdgeSet((1 << MAX_GROUND) - 1, MAX_GROUND)
    with pytest.raises(CapacityExceeded):
        EdgeSet(0, MAX_GROUND + 1)


def test_invalid_construction():
    with pytest.raises(ValueError):
        EdgeSet(0b100, 2)
    with pytest.raises(ValueError):
        EdgeSet.of([5], 5)


def test_mixed_grounds_rejected():
    with pytest.raises(ValueError):
        EdgeSet(0, 3) | EdgeSet(0, 4)
    with pytest.raises(ValueError):
        EdgeSet(0b111, 3).issubset(EdgeSet(0b11111, 5))


def test_membership_and_iteration():
    e = EdgeSet.of([0, 4, 2], 6)
    assert list(e) == [0, 2, 4]
    assert 4 in e and 1 not in e
    assert bool(e) and not EdgeSet(0, 6)


@given(mask_pair())
def test_boolean_ops_match_int_masks(gab):
    g, a, b = gab
    x, y = EdgeSet(a, g), EdgeSet(b, g)
    assert (x | y).mask == a | b
    assert (x & y).mask == a & b
    assert (x ^ y).mask == a ^ b
    assert (x - y).mask == a & ~b


@given(mask_pair())
def test_de_morgan(gab):
    g, a, b = gab
    x, y = EdgeSet(a, g), EdgeSet(b, g)
    assert (x | y).complement() == x.complement() & y.complement()
    assert (x & y).complement() == x.complement() | y.complement()


@given(mask_pair())
def test_subset_and_disjoint(gab):
    g, a, b = gab
    x, y = EdgeSet(a, g), EdgeSet(b, g)
    assert x.issubset(y) == (len(x - y) == 0)
    assert (not (x & y)) == (len(x & y) == 0)
    assert x.issubset(x)
    assert (x ^ y) == (x | y) - (x & y)


@given(mask_pair())
def test_partition_identity(gab):
    g, a, b = gab
    x, y = EdgeSet(a, g), EdgeSet(b, g)
    assert ((x - y) | (x & y)) == x
    assert len(x) == a.bit_count()
    assert x.complement().complement() == x
