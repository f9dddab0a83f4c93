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
