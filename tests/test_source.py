"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import bifree

SRC = Path(bifree.__file__).parent


def _check_statements(path):
    """Line numbers of assert statements and raised AssertionErrors."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_no_check_vanishes_under_optimize():
    # `python -O` strips assert statements; structural checks raise
    # InvariantViolation instead
    found = {p.name: _check_statements(p) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 1
    assert {name: lines for name, lines in found.items() if lines} == {}
