"""Source hygiene checks over the package itself."""

import ast
from pathlib import Path

import eicp

PACKAGE_DIR = Path(eicp.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one silently
    # disappears; consistency checks raise ConsistencyError instead.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_only_gf_eliminates():
    # Every echelon reduction goes through gf's basis; a module that reaches
    # for its elimination helpers is growing a private elimination of its own.
    # The package __init__ re-exports field_inv as public API.
    private = {"field_inv", "_reduce_against"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("gf.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in private]
    assert not found, f"elimination helpers used outside gf: {found}"
