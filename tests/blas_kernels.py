"""Which pinned tests hold under each OpenBLAS kernel.

The numbers that ``tests/test_acceptance.py`` and ``tests/test_demos.py`` pin
come from runs of 40 to 100 training epochs, which amplify last-bit
differences between BLAS kernels.  This script runs both files once per
kernel in ``KERNELS``, with ``OPENBLAS_CORETYPE`` set in its child process's
environment only, and prints which tests pass under each.  A kernel whose
child dies on an illegal instruction is reported as "cannot run here".

    python3 tests/blas_kernels.py

Pytest does not collect this file, and it is no part of the tier-1 suite: it
takes about 90 s per kernel on 2 vCPUs.  :func:`runtime_kernel` names the
kernel that this process runs, for the acceptance summary lines.
"""

from __future__ import annotations

import ctypes
import glob
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# The kernel that expected_results.json and the pinned demo and README lines come from.
PINNED_KERNEL = "SkylakeX"
KERNELS = ("SkylakeX", "Haswell", "Zen", "Sandybridge")
TEST_FILES = ("tests/test_acceptance.py", "tests/test_demos.py")
OUTCOMES = ("PASSED", "FAILED", "ERROR", "SKIPPED")


def runtime_kernel() -> str:
    """The OpenBLAS kernel that NumPy's bundled library runs here, as that
    library names it, or ``"unknown"`` when the library or its symbol is
    missing (another NumPy build, or another BLAS)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        corename = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        corename = corename.scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def run_under(kernel: str) -> dict[str, str] | None:
    """Each test's outcome under ``kernel``, or None when the child process
    dies on an illegal instruction."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    command = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *TEST_FILES]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode == -signal.SIGILL:
        return None
    outcomes = {}
    for line in result.stdout.splitlines():
        outcome, _, test = line.partition(" ")
        if outcome in OUTCOMES and "::" in test:
            outcomes[test.split(" - ")[0]] = outcome.lower()
    if not outcomes:
        sys.exit(f"no test outcome under {kernel}:\n{result.stdout}{result.stderr}")
    return outcomes


def main() -> None:
    print(f"this process runs the {runtime_kernel()} kernel; the pins come from {PINNED_KERNEL}")
    results = {kernel: run_under(kernel) for kernel in KERNELS}
    tests = sorted({test for outcomes in results.values() if outcomes for test in outcomes})
    width = max(map(len, tests))
    print(f"{'test':<{width}}  " + "  ".join(f"{kernel:<15}" for kernel in KERNELS))
    for test in tests:
        cells = ("cannot run here" if outcomes is None else outcomes.get(test, "-") for outcomes in results.values())
        print(f"{test:<{width}}  " + "  ".join(f"{cell:<15}" for cell in cells))


if __name__ == "__main__":
    main()
