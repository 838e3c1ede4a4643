"""End-to-end runs of the console entry point."""

import json
import os
import resource
import subprocess
import sys

import pytest

import cyclechain
from cyclechain import EmptyIdeal, ideal, simplicial, spanning
from cyclechain.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


FIG1 = ("--r", "2", "--m", "3,4", "--t", "4")


def test_gen(capsys):
    code, obj, _ = run_json(capsys, "gen", *FIG1)
    assert code == 0
    assert obj["n"] == 10
    assert obj["vertices"] == 9
    assert obj["forest_attachments"] == [0, 5, 6, 7]
    assert obj["edges"][0] == {"index": 0, "label": "e_{1,1}", "endpoints": [0, 1]}
    assert obj["edges"][3] == {"index": 3, "label": "e_{2,1}", "endpoints": [1, 3]}


def test_cycles(capsys):
    code, obj, _ = run_json(capsys, "cycles", *FIG1)
    assert code == 0
    assert obj["count"] == 3
    assert [c["length"] for c in obj["cycles"]] == [3, 4, 5]
    assert obj["cycles"][2]["edges"] == [
        "e_{1,2}", "e_{1,3}", "e_{2,1}", "e_{2,2}", "e_{2,3}",
    ]


def test_trees_count_only(capsys):
    code, obj, _ = run_json(capsys, "trees", *FIG1, "--count-only")
    assert code == 0
    assert obj == {"count": 11}


def test_trees_count_only_does_not_enumerate(capsys, monkeypatch):
    def refuse(g):
        raise AssertionError("--count-only enumerated the trees")

    monkeypatch.setattr(spanning, "enumerate_trees_characterized", refuse)
    m = ",".join(["6"] * 8)
    code, obj, _ = run_json(capsys, "trees", "--r", "8", "--m", m, "--count-only")
    assert code == 0
    g = cyclechain.build_chain_graph(8, [6] * 8, 0)
    assert obj == {"count": spanning.count_trees_kirchhoff(g)}


def test_trees_by_class(capsys):
    code, obj, _ = run_json(capsys, "trees", *FIG1, "--by-class")
    assert code == 0
    assert obj["count"] == 11
    assert obj["by_class"] == {"C1": 6, "C2": 5}
    assert len(obj["trees"]) == len(obj["removals"]) == 11
    assert all(len(tr) == 8 for tr in obj["trees"])
    assert {rm["class"] for rm in obj["removals"]} == {"C1", "C2"}


def test_fvector_methods(capsys):
    code, obj, _ = run_json(capsys, "fvector", *FIG1)
    assert code == 0
    assert obj == {"f": [10, 45, 119, 202, 224, 157, 63, 11], "dim": 7}
    code, brute, _ = run_json(capsys, "fvector", *FIG1, "--method", "brute")
    assert code == 0
    assert brute["f"] == obj["f"]
    code, cmp_, _ = run_json(
        capsys, "fvector", "--r", "3", "--m", "3,3,3", "--method", "paper"
    )
    assert code == 0
    assert cmp_["exact"] == [7, 21, 32, 21]
    assert cmp_["pairwise_form"] == [89, 134, 121, 51]
    assert cmp_["agree"] is False
    assert cmp_["mismatched_indices"] == [0, 1, 2, 3]
    assert cmp_["r2_closed_form"] is None


def test_hilbert(capsys):
    code, obj, _ = run_json(capsys, "hilbert", *FIG1, "--expand", "4")
    assert code == 0
    assert obj == {
        "numerator": [1, 2, 3, 3, 2],
        "denom_power": 8,
        "expansion": [1, 10, 55, 219, 704],
    }


def test_covers(capsys):
    code, lemma, _ = run_json(capsys, "covers", *FIG1, "--method", "lemma")
    assert code == 0
    assert lemma["count"] == 8
    code, oracle, _ = run_json(capsys, "covers", *FIG1, "--method", "oracle")
    assert code == 0
    assert oracle["count"] == 14
    assert ["e_{1,1}", "e_{1,2}", "e_{2,1}"] in oracle["covers"]


def test_decompose(capsys):
    code, obj, _ = run_json(capsys, "decompose", *FIG1)
    assert code == 0
    assert obj["equals_facet_ideal"] is True
    assert len(obj["primes"]) == 14
    assert len(obj["generators"]) == 11


def test_certify(capsys):
    code, obj, _ = run_json(capsys, "certify", "--r", "1", "--m", "3")
    assert code == 0
    assert obj == {
        "steps": 3,
        "ordering": [["e_{1,1}"], ["e_{1,2}"], ["e_{1,3}"]],
        "ordering_indices": [2, 1, 0],
        "witnesses": ["e_{1,2}", "e_{1,3}"],
        "replayed": True,
    }


def test_certify_enumerates_trees_once(capsys, monkeypatch):
    calls = []
    real = spanning.enumerate_trees_characterized

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(spanning, "enumerate_trees_characterized", counted)
    monkeypatch.setattr(simplicial, "enumerate_trees_characterized", counted)
    # a graph no other test builds, so a cache filled earlier cannot hide it
    code, obj, _ = run_json(capsys, "certify", "--r", "2", "--m", "5,6", "--t", "1")
    assert code == 0
    assert obj["steps"] == 29 and obj["replayed"] is True
    assert len(calls) == 1


def test_verify_exit_codes(capsys):
    code, obj, err = run_json(capsys, "verify", *FIG1, "--checks", "trees,count")
    assert code == 0
    assert obj["ok"] is True
    assert "check trees" in err
    # the full check set includes the cover comparison, which faithfully
    # reports the gap in the predicted list
    code, obj, _ = run_json(capsys, "verify", *FIG1)
    assert code == 5
    assert obj["ok"] is False
    names = {c["name"]: c["status"] for c in obj["checks"]}
    assert names["covers"] == "mismatch"


def test_verify_family(capsys):
    code, obj, _ = run_json(
        capsys, "verify", "--family", "2,3,1", "--checks", "count"
    )
    assert code == 0
    assert obj["instances"] == 4
    assert obj["mismatches"] == 0
    assert len(obj["reports"]) == 4


def test_verify_stdout_is_deterministic(capsys):
    _, first, err1 = run(capsys, "verify", "--family", "2,3,1", "--checks", "count,trees")
    _, second, err2 = run(capsys, "verify", "--family", "2,3,1", "--checks", "count,trees")
    assert first == second
    assert err1 and err2


def test_spec_file(capsys, tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"r": 2, "m": [3, 4], "forest": {"count": 4}}))
    code, obj, _ = run_json(capsys, "gen", "--spec", str(spec))
    assert code == 0
    assert obj["forest_attachments"] == [0, 5, 6, 7]

    spec.write_text(json.dumps({"r": 2, "m": [3, 3], "forest": {"attach": [0, 0]}}))
    code, obj, _ = run_json(capsys, "gen", "--spec", str(spec))
    assert code == 0
    assert obj["forest_attachments"] == [0, 0]


def test_spec_file_errors(capsys, tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text("{not json")
    code, _, err = run(capsys, "gen", "--spec", str(spec))
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "gen", "--spec", str(tmp_path / "missing.json"))
    assert code == 2

    spec.write_text(json.dumps({"r": 1, "m": [3]}))
    code, _, err = run(capsys, "gen", "--spec", str(spec), "--r", "1")
    assert code == 2


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"r": 2, "m": [3, 4], "forst": {"count": 3}}, "forst"),
        ({"r": 2, "m": [3, 4], "forest": {"attach": [0], "count": 3}}, "forest"),
        ({"r": 2, "forest": {"count": 1}}, '"m"'),
        ({"m": [3, 4]}, '"r"'),
    ],
)
def test_malformed_spec_is_rejected(capsys, tmp_path, spec, named):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "gen", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize(
    "spec",
    [
        {"r": 2.9, "m": [3, 4], "forest": {"count": 1.7}},
        {"r": 2.9, "m": [3, 4]},
        {"r": 2, "m": [3, 4], "forest": {"count": 1.7}},
        {"r": True, "m": [3]},
        {"r": "2", "m": [3, 4]},
        {"r": 2, "m": [3, 4.0]},
        {"r": 2, "m": "34"},
        {"r": 2, "m": [3, 4], "forest": {"count": "1"}},
        {"r": 2, "m": [3, 4], "forest": {"count": False}},
        {"r": 2, "m": [3, 4], "forest": {"attach": 3}},
        {"r": 2, "m": [3, 4], "forest": {"attach": [0.5]}},
        {"r": 2, "m": [3, 4], "forest": {"attach": [0, "1"]}},
    ],
)
def test_spec_values_are_rejected_not_coerced(capsys, tmp_path, spec):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "gen", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_invalid_parameters(capsys):
    code, _, err = run(capsys, "gen", "--r", "0", "--m", "3")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "gen", "--r", "2", "--m", "3")
    assert code == 2
    code, _, _ = run(capsys, "trees", "--r", "1", "--m", "not-a-number")
    assert code == 2


def test_unreadable_arguments_exit_2(capsys):
    for argv in (
        ("verify", *FIG1, "--checks", "count,bogus"),
        ("verify", "--family", "0,3,0"),
        ("verify", "--family", "2,x,0"),
        ("verify", "--family", "2,3"),
        ("verify", "--family", "1,3,0", "--r", "5", "--m", "3,3,3,3,3"),
        ("verify", "--family", "1,3,0", "--spec", "/nonexistent"),
        ("verify", "--family", "1,3,0", "--t", "1"),
        ("verify", *FIG1, "--jobs", "0"),
        ("verify", "--family", "1,3,0", "--jobs", "-3"),
        ("verify", *FIG1, "--tree-cap", "-1"),
        ("verify", *FIG1, "--face-cap", "-1"),
        ("hilbert", *FIG1, "--expand", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_zero_caps_skip_the_capped_oracles(capsys):
    code, obj, _ = run_json(
        capsys, "verify", "--r", "1", "--m", "4", "--t", "1",
        "--tree-cap", "0", "--face-cap", "0",
    )
    assert code == 0
    status = {c["name"]: c["status"] for c in obj["checks"]}
    assert status["trees"] == status["fvector"] == status["hilbert"] == "skipped"


def test_internal_value_error_is_not_invalid_input(monkeypatch):
    def broken(g):
        raise ValueError("internal bug")

    monkeypatch.setattr(simplicial, "f_vector_exact", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["fvector", *FIG1])


def test_internal_empty_ideal_is_not_invalid_input(monkeypatch):
    def broken(c):
        raise EmptyIdeal("internal bug")

    monkeypatch.setattr(ideal, "facet_ideal", broken)
    with pytest.raises(EmptyIdeal, match="internal bug"):
        main(["certify", *FIG1])


def test_capacity_exit(capsys):
    code, _, err = run(capsys, "gen", "--r", "1", "--m", "70")
    assert code == 3 and "capacity" in err
    for method in ("exact", "paper"):
        code, out, _ = run(
            capsys, "fvector", "--method", method, "--r", "7", "--m", "3,3,3,3,3,3,3"
        )
        assert code == 3 and out == ""


def test_hilbert_expand_is_capped(capsys):
    code, obj, _ = run_json(
        capsys, "hilbert", "--r", "1", "--m", "3", "--expand", "10000"
    )
    assert code == 0
    assert len(obj["expansion"]) == 10_001
    code, out, err = run(
        capsys, "hilbert", "--r", "1", "--m", "3", "--expand", "10001"
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_closed_stdout_exits_1_without_an_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    src = os.path.dirname(os.path.dirname(cyclechain.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cyclechain.cli", "trees", "--r", "3", "--m", "5,5,5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def _run_in_1_gib(*argv):
    """The CLI in a fresh process whose address space is capped at 1 GiB."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(cyclechain.__file__))
    return subprocess.run(
        [sys.executable, "-m", "cyclechain.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit,
        timeout=120,
    )


def test_face_oracle_over_its_cap_exits_3_within_1_gib():
    proc = _run_in_1_gib("fvector", "--method", "brute", "--r", "5", "--m", "6,6,6,6,6")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_verify_skips_the_face_checks_within_1_gib():
    proc = _run_in_1_gib(
        "verify", "--r", "4", "--m", "8,8,8,8", "--checks", "fvector,hilbert"
    )
    assert proc.returncode == 0
    checks = json.loads(proc.stdout)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("fvector", "skipped"),
        ("hilbert", "skipped"),
    ]


@pytest.mark.parametrize(
    "checks", ["count", "count,trees,fvector,hilbert,covers,decomposition"]
)
def test_verify_lists_no_trees_it_need_not_within_1_gib(checks):
    # listing the 7,997,214 spanning trees of (9, [6]^9) outgrows 1 GiB;
    # count needs no listing, and the tree search skips the others first
    proc = _run_in_1_gib(
        "verify", "--r", "9", "--m", ",".join(["6"] * 9), "--checks", checks
    )
    assert proc.returncode == 0, proc.stderr
    statuses = [(c["name"], c["status"]) for c in json.loads(proc.stdout)["checks"]]
    assert statuses == [("count", "match")] + [
        (name, "skipped") for name in checks.split(",")[1:]
    ]


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "trees", *FIG1, "--count-only", "--pretty")
    assert code == 0
    assert out.strip() == "11 spanning trees"


def test_bad_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
