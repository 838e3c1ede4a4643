"""The independent routes everything else is checked against."""

import ast
import pathlib
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cyclechain import SearchSpaceTooLarge, oracle
from cyclechain.oracle import (
    MAX_FACE_GROUND,
    bareiss_determinant,
    downset_face_counts,
    downset_faces,
    kirchhoff_count,
    minimal_hitting_sets,
    spanning_tree_masks,
)

TRIANGLE_EDGES = ((0, 1), (1, 2), (2, 0))
K4_EDGES = tuple((u, v) for u in range(4) for v in range(u + 1, 4))


def test_oracle_imports_only_the_standard_library_and_errors():
    # the oracles stay independent of the formula side, so no module of
    # the package but its exception types may feed them
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append((node.level, node.module))
    assert (1, "errors") in imports
    for level, name in imports:
        if level:
            assert (level, name) == (1, "errors"), name
        else:
            assert name.split(".")[0] in sys.stdlib_module_names, name


def _det_reference(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, head in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * head * _det_reference(minor)
    return total


@st.composite
def square_matrix(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


def test_determinant_known_values():
    assert bareiss_determinant([[1, 0], [0, 1]]) == 1
    assert bareiss_determinant([[2, 3], [4, 5]]) == -2
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[5]]) == 5


@given(square_matrix())
def test_determinant_matches_cofactor_expansion(m):
    assert bareiss_determinant(m) == _det_reference(m)


@given(square_matrix(), st.data())
def test_determinant_row_swap_flips_sign(m, data):
    n = len(m)
    if n < 2:
        return
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    swapped = [row[:] for row in m]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert bareiss_determinant(swapped) == -bareiss_determinant(m)


def test_tree_count_known_graphs():
    assert kirchhoff_count(TRIANGLE_EDGES, 3) == 3
    assert kirchhoff_count(K4_EDGES, 4) == 16
    assert kirchhoff_count(((0, 1), (1, 2)), 3) == 1


def test_tree_count_deleted_vertex_invariance():
    counts = {kirchhoff_count(K4_EDGES, 4, deleted=v) for v in range(4)}
    assert counts == {16}
    with pytest.raises(ValueError):
        kirchhoff_count(K4_EDGES, 4, deleted=4)


def test_tree_enumeration_small():
    masks = spanning_tree_masks(TRIANGLE_EDGES, 3)
    assert masks == [0b011, 0b101, 0b110]
    assert len(spanning_tree_masks(K4_EDGES, 4)) == 16


def test_tree_enumeration_cap():
    with pytest.raises(SearchSpaceTooLarge):
        spanning_tree_masks(K4_EDGES, 4, cap=3)


def test_downset_counts():
    assert downset_face_counts([0b111]) == [3, 3, 1]
    assert downset_face_counts([0b011, 0b110, 0b101]) == [3, 3]
    assert len(downset_faces([0b111])) == 7
    with pytest.raises(SearchSpaceTooLarge):
        downset_faces([(1 << 20) - 1], cap=100)


def _downset_reference(facet_masks) -> set[int]:
    """Every nonempty face, found by removing one element at a time."""
    faces: set[int] = set()
    stack = [f for f in set(facet_masks) if f]
    while stack:
        m = stack.pop()
        if m in faces:
            continue
        faces.add(m)
        rest = m
        while rest:
            low = rest & -rest
            if m ^ low and m ^ low not in faces:
                stack.append(m ^ low)
            rest ^= low
    return faces


@st.composite
def facet_family(draw):
    """Up to 12 ground bits, spread over positions 0..19, and any masks on
    them: zero, repeated, nested or of mixed sizes, or none at all."""
    ground = sorted(draw(st.sets(st.integers(0, 19), max_size=12)))
    subset = st.sets(st.sampled_from(ground)) if ground else st.just(set())
    picked = draw(st.lists(subset, max_size=8))
    return [sum(1 << b for b in bits) for bits in picked]


@given(facet_family())
def test_downset_matches_the_face_search(facets):
    ref = _downset_reference(facets)
    sizes = [0] * (max(map(int.bit_count, ref), default=0) + 1)
    for face in ref:
        sizes[face.bit_count()] += 1
    faces = downset_faces(facets)
    assert len(faces) == len(ref)
    assert faces.counts() == downset_face_counts(facets) == sizes[1:]
    if ref:
        assert len(downset_faces(facets, cap=len(ref))) == len(ref)
        with pytest.raises(SearchSpaceTooLarge, match=f"cap of {len(ref) - 1}$"):
            downset_faces(facets, cap=len(ref) - 1)


def test_downset_refuses_a_facet_over_the_cap_before_the_ground():
    # 40 ground bits would also exceed the ground limit; the facet's own
    # 2^40 - 1 faces are refused first
    with pytest.raises(SearchSpaceTooLarge, match="cap of 16777216$"):
        downset_faces([(1 << 40) - 1])


def test_downset_refuses_a_wide_ground_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge, match=f"40 edges .* {MAX_FACE_GROUND}$"):
            downset_faces([1 << 39, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_hitting_sets_small():
    assert minimal_hitting_sets([0b011, 0b110]) == [0b010, 0b101]
    assert minimal_hitting_sets([]) == [0]
    assert minimal_hitting_sets([0b01, 0b10, 0b0]) == []


@given(st.lists(st.integers(1, 0xFF), min_size=1, max_size=7))
def test_hitting_sets_are_minimal_transversals(sets):
    out = minimal_hitting_sets(sets)
    for h in out:
        assert all(h & s for s in sets)
        for i in range(8):
            if h & (1 << i):
                smaller = h ^ (1 << i)
                assert not all(smaller & s for s in sets)
    for a in out:
        for b in out:
            if a != b:
                assert a & b != a


@st.composite
def set_family(draw):
    """Up to 7 sets on an 8-bit ground, then repeats of some of them and
    possibly an empty member."""
    sets = draw(st.lists(st.integers(1, 0xFF), max_size=7))
    if sets:
        sets += draw(st.lists(st.sampled_from(sets), max_size=3))
    if draw(st.booleans()):
        sets.append(0)
    return draw(st.permutations(sets))


@given(set_family())
def test_hitting_sets_are_all_minimal_transversals(sets):
    hitting = [h for h in range(1 << 8) if all(h & s for s in sets)]
    minimal = [h for h in hitting if not any(k != h and k & h == k for k in hitting)]
    minimal.sort(key=lambda m: (m.bit_count(), m))
    assert minimal_hitting_sets(sets) == minimal


def test_hitting_sets_cap(monkeypatch):
    # {0,1} and {2,3} give the four transversals 02, 03, 12, 13; {0,2}
    # keeps 02, 03, 12 and grows 13 into 013 and 123, both dominated
    sets = [0b0011, 0b1100, 0b0101]
    monkeypatch.setattr(oracle, "_TRANSVERSAL_CAP", 3)
    with pytest.raises(
        SearchSpaceTooLarge,
        match="^intermediate transversal family exceeds the cap of 3$",
    ):
        minimal_hitting_sets(sets)
    # five products in the last step, but no family above four
    monkeypatch.setattr(oracle, "_TRANSVERSAL_CAP", 4)
    assert minimal_hitting_sets(sets) == [0b0101, 0b0110, 0b1001]
