"""The demos print the numbers they document."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import noodle

ROOT = Path(__file__).resolve().parents[1]


def test_noise_sweep_demo_prints_its_table():
    import_path = [str(Path(noodle.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, import_path))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_noise_sweep.py"), "--rates", "0.0,0.4"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:5]]
    assert rows == [
        ["0.00", "noodle", "0.0950", "0.9736", "1.0000"],
        ["0.00", "ce", "0.1138", "0.9656", "1.0000"],
        ["0.40", "noodle", "0.6587", "0.8210", "0.9025"],
        ["0.40", "ce", "0.9563", "0.5870", "0.6450"],
    ]
