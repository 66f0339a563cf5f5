"""Every name imported under ``src/noodle``, ``tests`` and ``demos`` is used
(the package ``__init__`` files are exempt, since their imports are
re-exports), every re-export of the package is used by the package, a demo
or the benchmark, the package imports exactly the third-party modules that
``pyproject.toml`` declares, importing it loads no ``scipy`` module, no
class of the package defines a ``validate`` method, no ``__post_init__``
calls ``type`` or ``isinstance`` (``files.settle_fields`` types every
settings field), the CLI neither calls ``type_problem`` nor tests membership
in a list of kinds, the planner names the spec in one handler, only
``files.py`` computes unknown keys, no module under ``src/noodle`` reads
the environment (``os.environ`` or ``os.getenv``), and one rule says which
latents the unit sphere can hold: ``decompose.usable_columns``, a finite norm
above ``NORM_EPS`` (outside ``decompose.py`` no module compares with
``np.inf`` or calls ``np.isfinite`` on norms, and only ``losses.py`` reads
``NORM_EPS``), only ``files.py`` calls ``np.save``, ``np.load``,
``np.loadtxt``, ``json.dump`` or ``json.load``, only ``files.py`` spells
the data table's ``noisy_label`` column, only ``scoring.py`` (the home of
the store's row rules, ``check_store_rows``) calls ``np.bincount``, and only
``losses.py`` (the home of the transition prior's range,
``init_near_identity``) spells ``1.0 / num_classes``, and the store has one
home: only ``scoring.py`` calls ``EmbeddingStore(``, every ``build_store``
call in the package passes the class count, and only
``datagen.load_features_csv`` and ``scoring.load_store`` derive a class count
from a label maximum (``max(...) + 1``)."""

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


def test_post_init_leaves_types_to_the_one_rule():
    # `files.settle_fields` checks and stores every settings field; a type test
    # written out in one object is how NaN, inf and a list of widths got past
    # one object and not another.
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {cls.name}.__post_init__ calls {node.func.id}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("type", "isinstance")
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


def test_package_reads_no_environment():
    # Each run setting has one source, its command-line flag or the caller's
    # argument; an environment fallback is a second source that a spec, a
    # report and a test run cannot see.
    def reads(node):
        if isinstance(node, ast.Attribute):
            return node.attr in ("environ", "getenv")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return any(alias.name in ("environ", "getenv") for alias in node.names)
        return False

    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if reads(node)
    ]
    assert found == []


def test_one_rule_says_which_latents_are_usable():
    # `decompose.usable_columns` is the one home of the rule; the epoch count,
    # the store's check, `build_store` and kNN once judged zero, tiny and
    # overflowing latents four ways.  `losses.py` applies `NORM_EPS` to
    # residual norms, another question.
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or ""

    def judged(node, path):
        if isinstance(node, ast.Compare):
            return any(name(side) == "inf" for side in (node.left, *node.comparators))
        if isinstance(node, ast.Call) and name(node.func) == "isfinite":
            return any("norm" in name(part) for arg in node.args for part in ast.walk(arg))
        return name(node) == "NORM_EPS" and path.name != "losses.py"

    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        if path.name != "decompose.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if judged(node, path)
    ]
    assert found == []


FILE_CALLS = {"np": ("save", "load", "loadtxt"), "numpy": ("save", "load", "loadtxt"), "json": ("dump", "load")}


def test_only_files_reads_and_writes_array_and_json_files():
    # `files.py` holds every file format with its strict reader; a file
    # written or read elsewhere is a format that no reader checks.
    def calls(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in FILE_CALLS:
                yield from (f"imports {alias.name}" for alias in node.names if alias.name in FILE_CALLS[node.module])
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr in FILE_CALLS.get(getattr(func.value, "id", None), ()):
                yield f"calls {func.value.id}.{func.attr}"

    found = [
        f"{path.relative_to(ROOT)}: {call}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        if path.name != "files.py"
        for call in calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_only_files_spells_the_data_table_schema():
    # `files.py` states the data table's columns once; a column name spelled
    # elsewhere is a second copy of the schema that its header check never sees.
    found = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        if path.name != "files.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"\bnoisy_label\b", line)
    ]
    assert found == []


def test_one_home_for_the_store_row_rules_and_the_prior_range():
    # `scoring.check_store_rows` states the store's two row rules and
    # `losses.init_near_identity` the prior's range (1/K, 1).  The row rules
    # were once written out six times, each with its own `bincount`, and one
    # copy judged the raw latents instead of the rows the store keeps.
    def restates(node, path):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bincount":
            return path.name != "scoring.py"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            right = getattr(node.right, "id", None) or getattr(node.right, "attr", None)
            return getattr(node.left, "value", None) == 1 and right == "num_classes" and path.name != "losses.py"
        return False

    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if restates(node, path)
    ]
    assert found == []


# The two readers of a file whose class count is not written in it.
LABEL_MAX_READERS = {("datagen.py", "load_features_csv"), ("scoring.py", "load_store")}


def _store_home_breaches(path: Path) -> list[str]:
    """Where ``path`` builds a store outside ``scoring.py``, calls ``build_store``
    without the class count, or derives a class count from a label maximum."""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def is_label_max(node):  # max(...) + 1, either way round
        sides = (node.left, node.right)
        return isinstance(node.op, ast.Add) and any(
            getattr(one, "value", None) == 1
            and any(isinstance(part, ast.Call) and name(part.func) == "max" for part in ast.walk(other))
            for one, other in (sides, sides[::-1])
        )

    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if not isinstance(node, (ast.Call, ast.BinOp)):
                continue
            where = f"{path.name}:{node.lineno}"
            if isinstance(node, ast.BinOp):
                if is_label_max(node) and (path.name, getattr(top, "name", None)) not in LABEL_MAX_READERS:
                    found.append(f"{where}: a class count from a label maximum")
            elif name(node.func) == "EmbeddingStore" and path.name != "scoring.py":
                found.append(f"{where}: builds an EmbeddingStore")
            elif name(node.func) == "build_store" and len(node.args) + len(node.keywords) < 3:
                found.append(f"{where}: build_store without the class count")
    return found


def test_the_store_has_one_home():
    # `EmbeddingStore` checks every store rule and derives its statistics, and
    # the class count comes from the run.  `build_store` once guessed it as the
    # largest label plus one, so noisy labels without the top class gave a
    # 3-class head a store of 2 class means.
    found = [
        breach
        for path in sorted((ROOT / "src/noodle").rglob("*.py"))
        for breach in _store_home_breaches(path)
    ]
    assert found == []
