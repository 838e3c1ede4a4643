"""The benchmark (perfbench/run.py) judges every CLI answer with its
check_answer, through the public API; a change that breaks how it reads an
answer fails here instead of as wrong ops in a benchmark run."""

import importlib.util
import json
import pathlib

import pytest

from cyclechain.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports spans.py
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("graph", [(2, [3, 4], 4), (3, [4, 5, 4], 0)])
def test_check_answer_accepts_this_checkouts_answers(bench, capsys, graph):
    r, m, t = graph
    flags = ["--r", str(r), "--m", ",".join(map(str, m)), "--t", str(t)]
    refs, round_f = bench.References(), {}
    # fvector before hilbert, so hilbert is judged against the printed f
    for kind in ("trees", "fvector", "hilbert", "certify"):
        assert main([kind, *flags]) == 0
        answer = json.loads(capsys.readouterr().out)
        op = bench.Op(kind, graph, [kind, *flags])
        assert bench.check_answer(op, answer, refs, round_f) == "", kind
    assert list(round_f) == [json.dumps(graph)]
