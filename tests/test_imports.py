"""Every name imported under ``src/noodle``, ``tests`` and ``demos`` is used
(the package ``__init__`` files are exempt, since their imports are
re-exports), every re-export of the package is used by the package, a demo
or the benchmark, the package imports exactly the third-party modules that
``pyproject.toml`` declares, importing it loads no ``scipy`` module, no
class of the package defines a ``validate`` method, the CLI neither
calls ``type_problem`` nor tests membership in a list of kinds, the planner
names the spec in one handler, and only ``files.py`` computes unknown keys."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import noodle

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [
        path
        for top in ("src/noodle", "tests", "demos")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, unused


def _referenced_names(path: Path) -> set[str]:
    """Names and attributes a file reads, except inside the top-level
    function or class that they name (a definition does not use itself)."""
    names = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        reads = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        names |= reads - {getattr(stmt, "name", None)}
    return names


def test_every_reexport_is_used():
    # A public name that only tests read is dead surface: a re-export must
    # be used by the package itself, a demo or the benchmark.
    init = ast.parse((ROOT / "src/noodle/__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [
        path
        for top in ("src/noodle", "demos", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    used = set().union(*map(_referenced_names, users))
    assert sorted(exported - used) == []


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports, relative imports aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.split(r"[<>=!~\[;\s]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    imported = set().union(*map(_imported_modules, sorted((ROOT / "src/noodle").rglob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "noodle"}
    assert third_party == declared


def test_package_import_loads_no_scipy():
    # The package runs on NumPy alone, LAPACK included; scipy.linalg alone
    # more than doubled every command's start-up and loaded a second BLAS.
    import_path = [str(Path(noodle.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, import_path))}
    probe = (
        "import sys\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import noodle\n"
        "print(scipy())\n"
        "import noodle.cli\n"
        "print(scipy())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == ["[]", "[]", ""]


def test_no_class_defines_validate():
    # A type checks its rules where it is built (``__post_init__``); a
    # ``validate`` that callers must remember to call lets a bad value exist.
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {cls.name}.validate"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "validate"
    ]
    assert found == []


KIND_LISTS = ("SCORE_KINDS", "OOD_MODES", "LOSS_KINDS")


def test_cli_leaves_each_rule_to_its_object():
    # The checked objects own the type rules and the kind lists; a copy of
    # one in the CLI is how `noodle eval` and a spec came to disagree.
    # argparse `choices=` only offers the kinds, so it stays allowed.
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    path = ROOT / "src/noodle/cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and name(node.func) == "type_problem":
            found.append(f"{node.lineno}: calls type_problem")
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and name(right) in KIND_LISTS:
                    found.append(f"{node.lineno}: tests membership in {name(right)}")
    assert found == []


def test_planner_names_the_spec_in_one_handler():
    # The planner raises plain messages and one handler puts the spec's name
    # in front; a prefix written into each message is a prefix one can forget.
    tree = ast.parse((ROOT / "src/noodle/cli.py").read_text(encoding="utf-8"))
    plan = next(n for n in tree.body if getattr(n, "name", None) == "plan_experiment")

    def reads_source(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "source"]

    handlers = [h for h in ast.walk(plan) if isinstance(h, ast.ExceptHandler) and reads_source(h)]
    assert len(handlers) == 1, [h.lineno for h in handlers]
    assert reads_source(plan) == reads_source(handlers[0])


def test_only_files_computes_unknown_keys():
    # `files.reject_unknown` is the one home of the unknown-key rule, so its
    # messages keep one shape; a set difference elsewhere is a second copy.
    def is_set(node):
        call = getattr(node, "func", None)  # set(doc) or doc.keys()
        called = getattr(call, "id", None) or getattr(call, "attr", None)
        return isinstance(node, (ast.Set, ast.SetComp)) or called in ("set", "keys")

    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        if path.name != "files.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and is_set(node.left))
        or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "difference")
    ]
    assert found == []
