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


def _float_uses(path):
    """Line numbers of float (or complex) literals and of float() calls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            lines.append(node.lineno)
    return lines


def test_no_floating_point():
    # every value is an exact rational; a float literal or a float() call
    # in the package is a slip
    found = {p.name: _float_uses(p) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def _dead_names(paths):
    """{module: sorted names} of imports a module never uses, and of private
    module-level functions and constants that neither their own module nor
    an importing module reads."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    loads = {stem: set() for stem in trees}
    imported = {stem: set() for stem in trees}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[stem].add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level:
                source = node.module or ""
                for alias in node.names:
                    imported.get(source, set()).add(alias.name)
    dead = {}
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        found = []
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    local = (alias.asname or alias.name).partition(".")[0]
                    if local not in loads[stem]:
                        found.append(local)
            elif isinstance(node, (ast.FunctionDef, ast.Assign)):
                targets = ([node.name] if isinstance(node, ast.FunctionDef)
                           else [t.id for t in ast.walk(node)
                                 if isinstance(t, ast.Name)
                                 and isinstance(t.ctx, ast.Store)])
                for name in targets:
                    if (name.startswith("_") and not name.startswith("__")
                            and name not in loads[stem]
                            and name not in imported[stem]):
                        found.append(name)
        if found:
            dead[stem] = sorted(found)
    return dead


def test_no_dead_names():
    # an unused import or an unread private helper is dead code
    assert _dead_names(sorted(SRC.glob("*.py"))) == {}
