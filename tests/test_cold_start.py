"""What every CLI process pays before it does any work: the modules that
importing the package loads, and the record types built at import.

The records are named tuples and the complex is a plain tuple of facet
masks, so the package never imports dataclasses, which loads inspect, ast, dis and
tokenize.  The benchmark's tracer still wraps RationalSeries.expand on the
class.
"""

import json
import os
import pathlib
import subprocess
import sys

import cyclechain
from cyclechain import (
    CheckResult,
    CompositeCycle,
    FVectorComparison,
    OracleReport,
    QuotientCertificate,
    RationalSeries,
)
from cyclechain.chain_graph import PairComparison

SRC = os.path.dirname(os.path.dirname(cyclechain.__file__))
SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
RECORDS = (
    CompositeCycle,
    PairComparison,
    RationalSeries,
    QuotientCertificate,
    FVectorComparison,
    CheckResult,
    OracleReport,
)


def _fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter with the package on its path."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=60,
    ).stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compared against what the interpreter had loaded before, so modules
    # that site preloads do not count
    code = (
        "import sys, json; before = set(sys.modules); import cyclechain.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    loaded = json.loads(_fresh_python(code))
    assert "cyclechain.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded


def test_tracer_records_expand_on_the_named_tuple():
    code = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
rec = spans.Recorder()
spans.install(rec)
from cyclechain.hilbert import RationalSeries
print(json.dumps([RationalSeries((1,), 1).expand(3), [s[0] for s in rec.spans]]))
"""
    coeffs, names = json.loads(_fresh_python(code))
    assert coeffs == [1, 1, 1, 1]
    assert "hilbert.expand" in names


def test_records_are_named_tuples_whose_fields_shadow_no_tuple_method():
    for cls in RECORDS:
        assert issubclass(cls, tuple), cls
        assert not set(cls._fields) & set(dir(tuple)), cls
    assert repr(RationalSeries((1, 2), 3)) == (
        "RationalSeries(numerator=(1, 2), denom_power=3)"
    )
