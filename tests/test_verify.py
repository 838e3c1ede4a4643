import gc
import os
import subprocess
import sys
import weakref

import pytest

from cyclechain import (
    build_chain_graph,
    chain_graph,
    cohen_macaulay_verdict,
    enumerate_trees_characterized,
    facet_ideal,
    hilbert_function_oracle,
    ideal,
    oracle,
    simplicial,
    spanning,
    spanning_complex,
    verify,
    verify_family,
    verify_instance,
)
from cyclechain import hilbert as hilbert_module
from cyclechain.verify import (
    CHECK_NAMES,
    NOTE_NAMES,
    _dispatch_order,
    _pool_workers,
    family_instances,
)


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def _note_statuses(report):
    return {c.name: c.status for c in report.notes}


def test_check_roster():
    assert CHECK_NAMES == (
        "trees", "count", "fvector", "hilbert", "covers", "decomposition", "cm",
    )
    assert NOTE_NAMES == ("fvector_paper", "intersections")


def test_single_cycle_all_match(triangle):
    report = verify_instance(triangle)
    assert report.ok
    assert set(_statuses(report).values()) == {"match"}
    assert set(_note_statuses(report).values()) == {"match"}


def test_example_instance_reports_cover_gap(fig1):
    report = verify_instance(fig1)
    statuses = _statuses(report)
    assert statuses["covers"] == "mismatch"
    assert all(v == "match" for k, v in statuses.items() if k != "covers")
    assert not report.ok
    covers = next(c for c in report.checks if c.name == "covers")
    assert covers.detail["predicted"] == 8
    assert covers.detail["oracle"] == 14
    assert covers.detail["witness_only_in"] == "oracle"
    assert covers.detail["witness"] == ["e_{1,1}", "e_{1,2}", "e_{2,1}"]


def test_pairwise_note_drifts_at_three_cycles(fig1, chain3):
    assert _note_statuses(verify_instance(fig1))["fvector_paper"] == "match"
    notes = _note_statuses(verify_instance(chain3))
    assert notes["fvector_paper"] == "mismatch"
    assert notes["intersections"] == "match"


def test_check_selection(fig1):
    report = verify_instance(fig1, checks=("trees", "hilbert"))
    assert [c.name for c in report.checks] == ["trees", "hilbert"]
    assert report.ok
    with pytest.raises(ValueError):
        verify_instance(fig1, checks=("trees", "nonsense"))


def test_capped_check_is_skipped_not_failed(fig1):
    report = verify_instance(fig1, checks=("trees",), tree_cap=1)
    assert _statuses(report)["trees"] == "skipped"
    assert report.ok
    assert "cap" in next(iter(report.checks)).detail


def test_json_shape(fig1):
    payload = verify_instance(fig1, checks=("count",)).to_json()
    assert payload["instance"] == {
        "r": 2, "m": [3, 4], "t": 4, "n": 10, "attach": [0, 5, 6, 7],
    }
    assert payload["checks"][0] == {"name": "count", "status": "match"}
    assert "elapsed" not in payload["checks"][0]


def test_family_enumeration():
    assert family_instances(2, 3, 1) == [
        (1, (3,), 0), (1, (3,), 1), (2, (3, 3), 0), (2, (3, 3), 1),
    ]
    assert len(family_instances(4, 5, 3)) == 480
    with pytest.raises(ValueError):
        family_instances(0, 3, 0)
    with pytest.raises(ValueError):
        family_instances(1, 2, 0)


def test_family_verification_counts_gap_instances():
    reports = verify_family(2, 3, 1, checks=("covers",))
    assert len(reports) == 4
    assert [rep.ok for rep in reports] == [True, True, False, False]


def test_parallel_equals_serial():
    serial = verify_family(2, 3, 1, checks=("count", "covers"))
    parallel = verify_family(2, 3, 1, checks=("count", "covers"), jobs=2)
    assert [rep.to_json() for rep in serial] == [rep.to_json() for rep in parallel]


def test_verdict_matches_attachment_shape():
    star = build_chain_graph(2, [3, 3], [0, 0, 0])
    report = verify_instance(star, checks=("trees", "count", "cm"))
    assert report.ok
    assert report.to_json()["instance"]["attach"] == [0, 0, 0]


def _count_calls(monkeypatch, *names, module=oracle):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("graph", ["fig1", "chain3"])
def test_each_shared_oracle_runs_once_per_instance(monkeypatch, request, graph):
    g = request.getfixturevalue(graph)
    calls = _count_calls(
        monkeypatch, "spanning_tree_masks", "downset_faces", "minimal_hitting_sets"
    )
    report = verify_instance(g)
    assert calls == {
        "spanning_tree_masks": 1, "downset_faces": 1, "minimal_hitting_sets": 1,
    }
    statuses = _statuses(report)
    assert statuses["fvector"] == statuses["hilbert"] == "match"
    assert statuses["decomposition"] == "match"


def test_verify_instance_makes_the_calls_the_traced_benchmark_requires(
    monkeypatch, fig1
):
    # perfbench's traced family run exits 1 unless it records these calls,
    # and it counts faces as len() of what downset_faces returns
    facets = spanning_complex(fig1)
    assert len(oracle.downset_faces(facets)) == sum(oracle.downset_face_counts(facets))
    oracles = _count_calls(monkeypatch, "downset_faces", "minimal_hitting_sets")
    primes = _count_calls(monkeypatch, "intersect_primes", module=ideal)
    verify_instance(fig1)
    assert all(oracles.values()) and all(primes.values()), (oracles, primes)


def test_a_failing_certificate_is_an_inconclusive_cm_mismatch(monkeypatch, fig1):
    # generators 0 and 4 of the running example differ in two edges, so the
    # colon at step 2 has minimum degree 2
    monkeypatch.setattr(
        ideal,
        "paper_ordering",
        lambda g, gens: [0, 4] + [k for k in range(1, len(gens)) if k != 4],
    )
    (cm,) = verify_instance(fig1, checks=("cm",)).checks
    assert cm.status == "mismatch"
    assert cm.detail == {
        "verdict": "inconclusive: colon at step 2 has mindeg 2",
        "step": 2,
        "mindeg": 2,
    }


def test_a_certificate_that_does_not_replay_is_a_cm_mismatch(monkeypatch, fig1):
    monkeypatch.setattr(ideal, "replay_certificate", lambda gens, cert: False)
    (cm,) = verify_instance(fig1, checks=("cm",)).checks
    assert (cm.status, cm.detail) == (
        "mismatch", {"verdict": "certificate does not replay"},
    )


def test_hilbert_check_sees_a_wrong_coefficient_past_degree_10(monkeypatch):
    # h_k first shows in degree k, so a check through degree 10 passed this
    g = build_chain_graph(4, [5] * 4, 0)
    real = hilbert_module.hilbert_series

    def h11_plus_one(fv):
        series = real(fv)
        h = list(series.numerator)
        if len(h) > 11:
            h[11] += 1
        return series._replace(numerator=tuple(h))

    assert _statuses(verify_instance(g, checks=("hilbert",))) == {"hilbert": "match"}
    monkeypatch.setattr(hilbert_module, "hilbert_series", h11_plus_one)
    (check,) = verify_instance(g, checks=("hilbert",)).checks
    assert check.status == "mismatch"
    assert check.detail["witness_degree"] == 11


def test_intersection_note_reports_each_pair_the_predictor_misses(monkeypatch, triangle):
    monkeypatch.setattr(chain_graph, "intersection_formula", lambda g, a, b: (0, 9))
    report = verify_instance(triangle, checks=("count",))
    assert report.ok
    (note,) = [c for c in report.notes if c.name == "intersections"]
    assert (note.status, note.detail) == (
        "mismatch", [{"a": [1, 0], "b": [1, 0], "exact": 3, "predicted": 0, "row": 9}],
    )


def test_capped_face_oracle_skips_both_checks_after_one_call(monkeypatch, fig1):
    calls = _count_calls(monkeypatch, "downset_faces")
    report = verify_instance(fig1, checks=("fvector", "hilbert"), face_cap=50)
    assert calls == {"downset_faces": 1}
    fvector, hilbert = report.checks
    assert fvector.status == hilbert.status == "skipped"
    assert fvector.detail == hilbert.detail
    assert "cap of 50" in fvector.detail
    assert report.ok


def test_count_check_tests_the_shipped_count(monkeypatch, fig1):
    assert _statuses(verify_instance(fig1, checks=("count",)))["count"] == "match"
    monkeypatch.setattr(spanning, "count_trees_characterized", lambda g: 12)
    report = verify_instance(fig1, checks=("count",))
    (count,) = report.checks
    assert count.status == "mismatch"
    assert count.detail == {"characterized": 12, "determinant": 11}


def _drop_the_first_listed_tree(monkeypatch):
    real = simplicial.enumerate_trees_characterized

    def drop_one(g):
        return real(g)[1:]

    monkeypatch.setattr(simplicial, "enumerate_trees_characterized", drop_one)


def test_face_oracles_read_only_the_graph(monkeypatch, fig1):
    # a production listing that loses a tree fails the trees check, but
    # the face oracle and the Hilbert oracle close the downset of the
    # brute-force trees, so fvector and hilbert still hold
    expected = hilbert_function_oracle(fig1, 10)
    _drop_the_first_listed_tree(monkeypatch)
    statuses = _statuses(verify_instance(fig1, checks=("trees", "fvector", "hilbert")))
    assert statuses == {"trees": "mismatch", "fvector": "match", "hilbert": "match"}
    assert hilbert_function_oracle(fig1, 10) == expected


def test_tree_cap_skips_the_face_checks_too(fig1):
    report = verify_instance(fig1, checks=("trees", "fvector", "hilbert"), tree_cap=5)
    assert set(_statuses(report).values()) == {"skipped"}
    assert {c.detail for c in report.checks} == {
        "45 deletion candidates exceed the cap of 5"
    }
    assert report.ok


def test_cover_oracle_reads_only_the_graph(monkeypatch, triangle):
    # the covers of the brute-force trees still meet in the true facet
    # ideal, which the listing that lost a tree no longer gives
    _drop_the_first_listed_tree(monkeypatch)
    report = verify_instance(triangle, checks=("trees", "covers", "decomposition"))
    assert _statuses(report) == {
        "trees": "mismatch", "covers": "match", "decomposition": "mismatch",
    }
    decomposition = report.checks[2].detail
    assert (decomposition["intersection"], decomposition["facet_ideal"]) == (3, 2)


def test_tree_cap_skips_the_cover_checks_too(fig1):
    report = verify_instance(fig1, checks=("covers", "decomposition"), tree_cap=5)
    assert [(c.status, c.detail) for c in report.checks] == [
        ("skipped", "45 deletion candidates exceed the cap of 5")
    ] * 2
    assert report.ok


def test_tree_cap_skips_cm_before_listing_a_tree(monkeypatch):
    g = build_chain_graph(4, [5] * 4, 0)
    built = _count_calls(monkeypatch, "enumerate_trees_characterized", module=simplicial)
    report = verify_instance(g, checks=("cm",), tree_cap=100)
    assert [(c.status, c.detail) for c in report.checks] == [
        ("skipped", "551 spanning trees exceed the cap of 100")
    ]
    assert built == {"enumerate_trees_characterized": 0}
    assert report.ok


def test_fvectors_of_different_lengths_mismatch_at_the_shorter_end(monkeypatch, fig1):
    real = oracle.downset_face_counts
    monkeypatch.setattr(oracle, "downset_face_counts", lambda *a: real(*a)[:-1])
    (fvector,) = verify_instance(fig1, checks=("fvector",)).checks
    assert fvector.status == "mismatch"
    assert fvector.detail == {
        "exact": [10, 45, 119, 202, 224, 157, 63, 11],
        "bruteforce": [10, 45, 119, 202, 224, 157, 63],
        "witness_index": 7,
    }


def test_count_alone_builds_neither_the_listing_nor_the_facet_ideal(monkeypatch, fig1):
    built = _count_calls(monkeypatch, "enumerate_trees_characterized", module=simplicial)
    ideals = _count_calls(monkeypatch, "facet_ideal", module=ideal)
    assert _statuses(verify_instance(fig1, checks=("count",))) == {"count": "match"}
    assert built == {"enumerate_trees_characterized": 0}
    assert ideals == {"facet_ideal": 0}


def test_each_stage_runs_once_per_instance(monkeypatch, fig1):
    built = _count_calls(
        monkeypatch,
        "enumerate_trees_characterized",
        "spanning_complex",
        module=simplicial,
    )
    ideals = _count_calls(monkeypatch, "facet_ideal", module=ideal)
    assert verify_instance(fig1).checks[0].status == "match"
    assert built == {"enumerate_trees_characterized": 1, "spanning_complex": 1}
    assert ideals == {"facet_ideal": 1}


def test_exact_fvector_is_computed_once_per_instance(monkeypatch, fig1):
    calls = _count_calls(monkeypatch, "f_vector_exact", module=simplicial)
    report = verify_instance(fig1)
    assert calls == {"f_vector_exact": 1}
    assert _statuses(report)["fvector"] == _statuses(report)["hilbert"] == "match"
    assert _note_statuses(report)["fvector_paper"] == "match"


def test_exact_fvector_over_its_cap_skips_both_checks_and_the_note():
    report = verify_instance(build_chain_graph(7, [3] * 7, 0), checks=("fvector", "hilbert"))
    (note,) = [c for c in report.notes if c.name == "fvector_paper"]
    assert [(c.name, c.status, c.detail) for c in (*report.checks, note)] == [
        (name, "skipped", "28 cycles means 2^28 subsets; limit is 2^21")
        for name in ("fvector", "hilbert", "fvector_paper")
    ]
    assert report.ok


def test_no_module_state_keeps_a_graph_alive():
    # a graph no other test builds, so a cache filled earlier cannot hide it
    g = build_chain_graph(2, [6, 3], 3)
    enumerate_trees_characterized(g)
    facets = spanning_complex(g)
    assert hilbert_function_oracle(g, 3)[3] > 0
    assert len(cohen_macaulay_verdict(g, facet_ideal(facets)).ordering) == len(facets)
    assert verify_instance(g).checks[0].status == "match"
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None


def test_pool_workers_are_clamped():
    assert _pool_workers(2, 120, 2) == 2
    assert _pool_workers(2, 120, 8) == 2
    assert _pool_workers(10**9, 120, 2) == 2
    assert _pool_workers(10**9, 120, 64) == 30
    assert _pool_workers(10**9, 9, 64) == 3
    assert _pool_workers(2, 4, 8) == 1
    assert _pool_workers(2, 5, 1) == 1
    assert _pool_workers(1, 120, 8) == 1
    assert _pool_workers(0, 120, 8) == 1
    assert _pool_workers(-3, 120, 8) == 1


def test_dispatch_order_hands_out_the_largest_graphs_first():
    work = [(r, m, t, None, 0, 0) for r, m, t in family_instances(3, 4, 2)]
    order = _dispatch_order(work)
    assert sorted(order) == list(range(len(work)))
    edges = [sum(work[i][1]) - (work[i][0] - 1) + work[i][2] for i in order]
    assert edges == sorted(edges, reverse=True)
    assert work[order[0]][:3] == (3, (4, 4, 4), 2)


def test_pool_over_two_chunks_equals_serial(monkeypatch):
    monkeypatch.setattr(verify, "_available_cpus", lambda: 2)
    serial = verify_family(2, 3, 2, checks=("count", "covers"))
    parallel = verify_family(2, 3, 2, checks=("count", "covers"), jobs=2)
    assert len(serial) == 6
    assert [rep.to_json() for rep in serial] == [rep.to_json() for rep in parallel]


def test_import_loads_no_process_pool():
    code = (
        "import sys, cyclechain; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
