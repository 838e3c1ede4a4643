"""The README's library example runs, and every value its comments state
is the value the line gives, so a change to the public API cannot leave
the example stale."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def _stated_value(line: str):
    """(value,) for the Python literal a line's trailing comment states,
    or None when the comment states none."""
    if "#" not in line:
        return None
    try:
        return (ast.literal_eval(line.split("#", 1)[1].strip()),)
    except (ValueError, SyntaxError):
        return None


def test_readme_example_gives_the_values_it_states():
    source = _python_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        stated = _stated_value(lines[stmt.end_lineno - 1])
        if stated is not None:
            assert value == stated[0], ast.unparse(stmt)
            checked.append(stated[0])
    assert checked == [
        11, (10, 45, 119, 202, 224, 157, 63, 11), [1, 10, 55, 219], True,
    ]
