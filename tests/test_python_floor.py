"""The sources parse as Python 3.10, the floor pyproject.toml declares.

ast.parse with feature_version rejects syntax newer than 3.10 (such as
except*) whichever interpreter runs the suite.  It checks grammar only,
not which library APIs exist.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_sources_parse_at_the_python_floor():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
