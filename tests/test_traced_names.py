"""The benchmark's tracer (perfbench/spans.py) looks each traced name up on
its cyclechain module and crashes on a missing one; a name deleted from the
package fails here instead of in a traced benchmark run."""

import importlib
import importlib.util
import pathlib

from cyclechain import hilbert, util

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    for short, names in _traced().items():
        module = importlib.import_module("cyclechain." + short)
        for name in names:
            assert callable(getattr(module, name, None)), f"cyclechain.{short}.{name}"
    assert callable(hilbert.RationalSeries.expand)
    assert callable(util.binom)
