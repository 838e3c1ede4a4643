import itertools

import pytest

from cyclechain import (
    BadAttachment,
    CapacityExceeded,
    IndexOutOfRange,
    InvalidLength,
    all_cycles,
    build_chain_graph,
    composite_cycle,
    composite_length,
    intersection_formula,
    intersection_report,
)


def test_example_instance_shape(fig1):
    assert fig1.n == 10
    assert fig1.t == 4
    assert fig1.num_vertices == 9
    assert fig1.labels == (
        "e_{1,1}", "e_{1,2}", "e_{1,3}",
        "e_{2,1}", "e_{2,2}", "e_{2,3}",
        "e_1", "e_2", "e_3", "e_4",
    )
    assert fig1.endpoints == (
        (0, 1), (1, 2), (2, 0),
        (1, 3), (3, 4), (4, 0),
        (0, 5), (5, 6), (6, 7), (7, 8),
    )
    assert fig1.common_edge_indices == (0,)
    assert fig1.cycle_offsets == (0, 3)
    assert fig1.forest_attachments == (0, 5, 6, 7)


def test_shared_edge_is_first_of_next_cycle(chain3):
    # e_{j,1} is the edge shared with cycle j+1, so commons sit at the
    # start of each block except the last.
    assert chain3.common_edge_indices == (0, 3)
    assert chain3.cycle_offsets == (0, 3, 5)
    assert chain3.n == 7


def test_shared_and_own_masks_split_the_cycles(fig1, chain3, triangle):
    assert fig1.shared_mask == 0b1
    assert fig1.own_masks == (0b110, 0b111000)
    assert chain3.shared_mask == 0b1001
    assert chain3.own_masks == (0b110, 0b10000, 0b1100000)
    assert triangle.shared_mask == 0
    assert triangle.own_masks == (0b111,)
    for g in (fig1, chain3):
        for cycle, own in zip(g.simple_cycle_masks, g.own_masks):
            assert cycle == own | cycle & g.shared_mask


@pytest.mark.parametrize(
    "r, m, forest",
    [
        (0, [], 0),
        (2, [3], 0),
        (1, [2], 0),
        (1, [3.5], 0),
        (1, [3], -1),
    ],
)
def test_invalid_parameters(r, m, forest):
    with pytest.raises(InvalidLength):
        build_chain_graph(r, m, forest)


@pytest.mark.parametrize(
    "r, m, forest",
    [
        (True, [3], 0),
        (2.0, [3, 4], 0),
        ("2", [3, 4], 0),
        (1, [3.0], 0),
        (1, [True], 0),
        (1, ["3"], 0),
        (1, "3", 0),
        (1, 3, 0),
        (1, [3], 1.7),
        (1, [3], True),
        (1, [3], "1"),
        (1, [3], None),
    ],
)
def test_non_int_values_are_rejected(r, m, forest):
    with pytest.raises(InvalidLength):
        build_chain_graph(r, m, forest)


@pytest.mark.parametrize("attach", [[0.0], [True], ["0"], [0, 1.5], [None]])
def test_non_int_attachments_are_rejected(attach):
    with pytest.raises(BadAttachment):
        build_chain_graph(2, [3, 4], attach)


def test_capacity():
    build_chain_graph(1, [64], 0)
    with pytest.raises(CapacityExceeded):
        build_chain_graph(1, [65], 0)
    with pytest.raises(CapacityExceeded):
        build_chain_graph(2, [30, 30], 10)


def test_forest_attachment_list():
    star = build_chain_graph(2, [3, 4], [0, 0, 0])
    assert star.endpoints[6:] == ((0, 5), (0, 6), (0, 7))
    path = build_chain_graph(2, [3, 4], [0, 5, 6, 7])
    assert path == build_chain_graph(2, [3, 4], 4)
    with pytest.raises(BadAttachment):
        build_chain_graph(2, [3, 4], [5])
    with pytest.raises(BadAttachment):
        build_chain_graph(2, [3, 4], [-1])


def test_equality_and_hashing(fig1):
    again = build_chain_graph(2, [3, 4], 4)
    assert again == fig1
    assert hash(again) == hash(fig1)
    star = build_chain_graph(2, [3, 4], [0, 0, 0, 0])
    assert star != fig1
    assert len({fig1, again, star}) == 2
    assert fig1 != "fig1"


def test_cycle_count_closed_form():
    # r(r+1)/2 cycles: one per run of consecutive simple cycles
    counts = [len(all_cycles(build_chain_graph(r, [3] * r, 0))) for r in range(1, 7)]
    assert counts == [1, 3, 6, 10, 15, 21]


def test_composite_cycles_example(fig1):
    cs = all_cycles(fig1)
    assert [(c.start, c.span) for c in cs] == [(1, 0), (2, 0), (1, 1)]
    lengths = [composite_length(fig1, c.start, c.span) for c in cs]
    assert lengths == [3, 4, 5]
    big = composite_cycle(fig1, 1, 1)
    assert big.edges == 0b111110


def test_composite_is_xor_of_simple_masks(chain3):
    for c in all_cycles(chain3):
        acc = 0
        for j in range(c.start - 1, c.start + c.span):
            acc ^= chain3.simple_cycle_masks[j]
        assert c.edges == acc
        assert c.edges.bit_count() == composite_length(chain3, c.start, c.span)


def test_composite_range_validation(fig1):
    with pytest.raises(IndexOutOfRange):
        composite_cycle(fig1, 0, 0)
    with pytest.raises(IndexOutOfRange):
        composite_cycle(fig1, 1, 2)
    with pytest.raises(IndexOutOfRange):
        composite_cycle(fig1, 3, 0)


def test_composite_lengths_r3(chain3):
    assert sorted(c.edges.bit_count() for c in all_cycles(chain3)) == [3, 3, 3, 4, 4, 5]


def test_intersection_formula_matches_exact(small_instances):
    for g in small_instances:
        for comp in intersection_report(g):
            assert comp.agree, (g.r, g.m, comp)
        # the report passes the smaller span first; a swapped call predicts
        # the same size, and the same row unless the spans are equal (rows
        # 1 and 8 are mirror images)
        for a, b in itertools.product(all_cycles(g), repeat=2):
            swapped = intersection_formula(g, b, a)
            straight = intersection_formula(g, a, b)
            assert swapped[0] == straight[0]
            assert a.span == b.span or swapped == straight


def test_intersection_report_shape():
    g = build_chain_graph(4, [3, 4, 5, 3], 1)
    report = intersection_report(g)
    k = len(all_cycles(g))
    # self-pairs are included; their intersection is the full length
    assert len(report) == k * (k + 1) // 2
    rows = {comp.row for comp in report}
    assert len(rows) > 3
    cs = all_cycles(g)
    a, b = cs[0], cs[1]
    predicted, _ = intersection_formula(g, a, b)
    assert predicted == (a.edges & b.edges).bit_count()
