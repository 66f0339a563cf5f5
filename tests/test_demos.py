"""Every demo runs to completion with warnings as errors, and the sweep demo and the
README's library example print the numbers they document."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noodle

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    import_path = [str(Path(noodle.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, import_path))}
    return subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True, text=True, timeout=120, env=env
    )


def _run_demo(name: str, *args: str) -> subprocess.CompletedProcess:
    return _run_python(str(ROOT / "demos" / f"{name}.py"), *args)


@pytest.mark.parametrize(
    "name", ["01_subspace_recovery", "02_label_noise_and_correction", "03_train_and_detect"]
)
def test_demo_runs(name):
    result = _run_demo(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_noise_sweep_demo_prints_its_table():
    result = _run_demo("04_noise_sweep", "--rates", "0.0,0.4")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:5]]
    assert rows == [
        ["0.00", "noodle", "0.0950", "0.9736", "1.0000"],
        ["0.00", "ce", "0.1138", "0.9656", "1.0000"],
        ["0.40", "noodle", "0.6587", "0.8210", "0.9025"],
        ["0.40", "ce", "0.9563", "0.5870", "0.6450"],
    ]


def test_readme_library_example_prints_its_documented_line():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    documented = code.rsplit("# ", 1)[1].strip()
    assert documented == "0.652 0.91239 0.793"
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == documented + "\n"
