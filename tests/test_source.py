"""Source hygiene checks over the package itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_unused_private_helpers():
    # A module-level private function or class that nothing in the package
    # names outside its own body is dead code a refactor left behind.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    references = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(name == node.name and not (where == module and
                                                  node.lineno <= line <= node.end_lineno)
                       for name, where, line in references):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, f"private helpers nothing uses: {unused}"


def test_no_unused_imports():
    # An imported name that nothing in its module names is left over from a
    # refactor. __init__'s imports are the package's re-exports, and a
    # `from __future__` import binds no name.
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).resolve().parent.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(a.asname or a.name, node.lineno) for a in node.names]
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported if name not in names]
    assert not unused, f"imports nothing uses: {unused}"


def test_no_environment_reads_or_warnings_in_package():
    # Every setting is an argument or a CLI flag, and every problem is an
    # exception or a reported violation, so a caller sees all of both.
    banned = {"environ", "getenv", "warn"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name in banned]
                continue
            else:
                continue
            if name in banned:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"environment reads or warnings in the package: {found}"


def test_field_order_built_only_where_a_field_enters():
    # A field enters through gf's constructors or through an instance (model),
    # and each checks its q. Every other module passes on a q one of them has
    # checked, so wrapping it in FieldOrder there checks nothing new.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("gf.py", "model.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "FieldOrder" in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not found, f"FieldOrder called outside gf and model: {found}"


def test_one_recheck_for_built_codes():
    # A code the program builds is re-checked by codes.checked_code alone;
    # verify_code is the report `eicp verify` prints, and only codes raises
    # the "checker rejects" error, from one function.
    found, raisers = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name not in ("codes.py", "cli.py", "__init__.py"):
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for n in names if n == "verify_code"]
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Raise) and any(
                    isinstance(c, ast.Constant) and "checker rejects" in str(c.value)
                    for c in ast.walk(node)) for node in ast.walk(func)):
                raisers.append(f"{path.name} {func.name}")
    assert not found, f"verify_code named outside codes, cli and __init__: {found}"
    assert raisers == ["codes.py checked_code"], raisers


def test_oracle_names_no_packed_kernel():
    # The oracle is the independent route: it runs on the reference kernel
    # and shares neither the packed kernel nor the branch and bound's
    # candidates and searches. The rule holds for minrank_oracle and every
    # module-level function or class of minrank.py it reaches by name, so a
    # helper the walk gains is held to it too. The walk's memo keys its basis
    # states by reference `rows` and its verdicts by ids the oracle assigns to
    # reference `coords`, never by packed ints.
    banned = {"packed_space", "PackedSpace", "pack", "build_candidates", "_row_search",
              "_column_search"}
    tree = ast.parse((PACKAGE_DIR / "minrank.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = set(), ["minrank_oracle"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Name) and node.id in defs]
    assert {"minrank_oracle", "_first_serving_subset", "_verdict", "_Budget"} <= reached
    found = []
    for name in sorted(reached):
        for node in ast.walk(defs[name]):
            named = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if named in banned:
                found.append(f"{name}:{node.lineno} {named}")
    assert not found, f"the oracle names the branch and bound's kernel: {found}"
    keys = [node.args[0] for node in ast.walk(defs["minrank_oracle"])
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"]
    assert keys and all(isinstance(k, ast.Attribute) and k.attr == "coords" for k in keys), (
        "the oracle's ids are not keyed by reference coords")


def test_permutations_only_order_users_or_rename_through_model():
    # Messages are renamed by model._renamed alone, in one walk over the
    # message renamings: _canonical_family_reps marks each class's orbit and
    # hands the automorphisms it finds to _orbit_kappa. The one other walk
    # over permutations orders users for canonical_form.
    callers, names = [], {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            named = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(func)}
            if "permutations" in named:
                callers.append(f"{path.stem}.{func.name}")
                names[callers[-1]] = named
    assert callers == ["experiments._canonical_family_reps", "graphs.canonical_form"], callers
    assert "_renamed" in names["experiments._canonical_family_reps"]


def test_one_guard_raise_in_minrank_searches():
    # Stage one, stage two and the oracle count their nodes on one _Budget,
    # so its spend is the only GuardExceededError raised once a search is
    # running. The pool's size pre-check refuses an enumeration before it starts.
    tree = ast.parse((PACKAGE_DIR / "minrank.py").read_text())
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(f"{node.name}.{m.name}", m) for node in tree.body
                  if isinstance(node, ast.ClassDef) for m in node.body
                  if isinstance(m, ast.FunctionDef)]
    raisers = sorted(name for name, func in functions if any(
        isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Name) and n.id == "GuardExceededError" for n in ast.walk(node))
        for node in ast.walk(func)))
    assert raisers == ["_Budget.spend", "_transmission_pool"], raisers


def test_readme_python_example_runs(monkeypatch, capsys):
    # The README's Python API block runs as written, from the repository
    # root, and each print prints the value its trailing comment shows.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S).group(1)
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    monkeypatch.chdir(root)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
    assert len(shown) == 3


def test_package_parses_as_python_3_10():
    # pyproject.toml and the README promise Python 3.10 or newer. This checks
    # syntax only, with the 3.10 grammar: it cannot tell whether a library
    # API the code calls exists in 3.10.
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Public names nothing in the package or perfbench/ names, each with the
# reason it stays.
UNCALLED_PUBLIC_NAMES = {
    "can_decode": "acceptance criterion 11 builds its invariance variants from it",
    "uncoded_scheme": "acceptance criterion 11 builds its invariance variants from it",
    "serialize_code": "it writes the code files that `eicp verify` reads",
    "compare_schemes": "the fourth study of ROADMAP direction 14 reads it",
    "build_problem_graph": "the paper's bipartite problem graph",
    "BipartiteProblemGraph.message_out": "the paper's bipartite problem graph",
    "BipartiteProblemGraph.message_in": "the paper's bipartite problem graph",
    "graph_candidate_supports": "the paper's bipartite problem graph",
    "build_candidates": "the public view of stage one's rows; the solver's packed rows are tested"
                        " against it",
    "canonical_form": "the public isomorphism key; tests hold the study class reps to it",
    "GfVector.scale": "the reference scaling; PackedSpace.multiples is tested against it",
}


def test_public_names_have_callers():
    # A public module-level function or class, or a public method, that
    # nothing in the package (bar __init__'s re-exports) or perfbench/ names
    # outside its own body needs a reason on the list above. A method counts
    # as named only by an attribute access or by one of perfbench/'s dotted
    # strings ("module.function"), so a local variable that shares its name
    # does not count; a function or class counts as named by a loaded name
    # or an attribute access.
    perfbench_dir = PACKAGE_DIR.parents[1] / "perfbench"
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(perfbench_dir.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    references = []  # (name, path, line, how it is named)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((node.id, path, node.lineno, "name"))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path, node.lineno, "attribute"))
            elif (path.parent == perfbench_dir and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and re.fullmatch(r"\w+(\.\w+)+", node.value)):
                references.append((node.value.rsplit(".", 1)[1], path, node.lineno, "dotted"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE_DIR:
            continue
        defined = []
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, functions)]
        for qualname, node in defined:
            if node.name.startswith("_"):
                continue
            kinds = ("attribute", "dotted") if "." in qualname else ("name", "attribute")
            if not any(name == node.name and kind in kinds
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for name, where, line, kind in references):
                uncalled.append(qualname)
    unlisted = [name for name in uncalled if name not in UNCALLED_PUBLIC_NAMES]
    stale = [name for name in UNCALLED_PUBLIC_NAMES if name not in uncalled]
    assert not unlisted, f"public names nothing calls: {unlisted}"
    assert not stale, f"listed as uncalled but now called: {stale}"


# The package's modules, lowest layer first.
LAYERS = ["errors", "gf", "model", "codes", "graphs", "covers", "minrank", "experiments", "cli"]


def test_modules_import_only_lower_layers():
    # Every import sits at module level, and every relative import names a
    # module earlier in LAYERS, so the package has no import cycle. A module
    # not in LAYERS fails until it is given its place. __init__'s imports are
    # the package's re-exports.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        if path.stem not in LAYERS:
            found.append(f"{path.name}: not in LAYERS")
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                found.append(f"{path.name}:{node.lineno} import not at module level")
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found += [f"{path.name}:{node.lineno} imports {t}" for t in targets
                          if t not in LAYERS[:LAYERS.index(path.stem)]]
    assert not found, f"imports against the layer order: {found}"


@pytest.mark.parametrize("module", ["eicp.covers", "eicp.minrank"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    # Importing a module first runs __init__'s re-exports in their own order,
    # not the layer order, and an import cycle would fail partway through.
    # The layer rule above forbids cycles in the source; this runs the import.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
