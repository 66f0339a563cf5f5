"""Benchmark of the noodle package: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 bench/run.py --workload protocol_cm --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

One run sets its workload up, runs operations in a single closed loop until
``--seconds`` have passed (and at least its panel plus one repeat are done),
checks the outputs, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` untraced and traced operations alternate and the metrics are
the per-layer ones.  The line before it holds the run's provenance.
``--workload all`` runs every workload both ways in child processes and
prints a table.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("protocol_cm", "sweep_cli", "eval_store")

# End-to-end metrics: (name, unit).  fpr95 is reported in the provenance
# line only: its spread between workload seeds is wider than any bound the
# regression gate allows (see README).
END_TO_END = [
    ("setup_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("cells_per_min", "1/min"),
    ("eval_queries_per_s", "1/s"),
    ("auroc", "frac"),
    ("id_accuracy", "frac"),
    ("auroc.mahalanobis", "frac"),
    ("peak_rss_mb", "MB"),
]


def _pin_threads() -> None:
    """One BLAS/OpenMP thread per process, so workers x threads <= nproc.
    Set in this process's environment only (children inherit it)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, inherited: dict) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = dict(numpy.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except Exception:  # the config layout varies between NumPy releases
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env_inherited": inherited,
        "threads_env_seen": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _ratio(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    import numpy as np

    import layers
    from spans import Tracer, patched
    from workloads import WORKLOADS

    work = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](work, seed)
    tracer = Tracer()
    try:
        setup_times = []
        # Untraced runs cycle the panel; traced runs alternate untraced and
        # traced operations on the same entry (the sweep adds a one-worker
        # untraced sweep so that overhead and pool efficiency compare like
        # with like).
        if not trace:
            schedule = ["untraced"]
        elif name == "sweep_cli":
            schedule = ["untraced", "untraced_1worker", "traced"]
        else:
            schedule = ["untraced", "traced"]
        ops = []
        deadline = perf_counter() + seconds
        entry = 0
        while True:
            for mode in schedule:
                setup_times.append(wl.prepare(entry))
                if mode == "traced":
                    with patched(tracer, layers.LAYERS), tracer.span("op", entry=entry):
                        ops.append(wl.run(entry, mode))
                else:
                    ops.append(wl.run(entry, mode))
            entry = (entry + 1) % wl.panel
            done = perf_counter() >= deadline
            if done and (trace or len(ops) > wl.panel):
                break

        problems = []
        first: dict[int, object] = {}
        for op in ops:
            if op.failed:
                continue
            if op.entry in first and op.fingerprint != first[op.entry].fingerprint:
                problems.append(f"entry {op.entry}: outputs differ between repeats ({op.mode})")
            first.setdefault(op.entry, op)
        rng = np.random.default_rng(seed)
        problems += wl.verify(first, rng)
        attempted = sum(op.attempted for op in ops)
        failed = sum(op.failed for op in ops)
        quality = wl.quality(first, with_mahalanobis=not trace)
        detail = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "setup_s": setup_times,
            "ops": [
                {k: getattr(op, k) for k in ("entry", "mode", "wall", "attempted", "failed", "cells",
                                             "rows_epochs", "train_s", "queries")}
                for op in ops
            ],
            "quality_per_entry": quality,
            "fpr95": float(np.mean([q["fpr95"] for q in quality])) if quality else None,
        }

        if not trace:
            untraced = [op for op in ops if op.mode == "untraced" and not op.failed]
            # Throughput is total work over total time across the run's
            # untraced operations.
            rows_epochs = sum(op.rows_epochs for op in untraced)
            train_wall = sum(op.train_s for op in untraced)
            wall = sum(op.wall for op in untraced)
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          getattr(wl, "pool_peak_kb", 0))
            if len(first) < wl.panel:
                problems.append(f"only {len(first)} of {wl.panel} panel entries completed")
            values = {
                "setup_s": _median(setup_times),
                "train_samples_per_s": _ratio(rows_epochs, train_wall),
                "cells_per_min": _ratio(60.0 * sum(op.cells for op in untraced), wall),
                "eval_queries_per_s": _ratio(sum(op.queries for op in untraced), wall),
                "auroc": float(np.mean([q["auroc"] for q in quality])) if quality else 0.0,
                "id_accuracy": float(np.mean([q["id_accuracy"] for q in quality])) if quality else 0.0,
                "auroc.mahalanobis": (
                    float(np.mean([q["auroc.mahalanobis"] for q in quality])) if quality else 0.0),
                "peak_rss_mb": peak_kb / 1024.0,
            }
            result_metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        else:
            roots = [sp for sp in tracer.spans if sp.name == "op" and sp.parent == -1]
            summaries = []
            for root in roots:
                inside = [sp for sp in tracer.spans if root.start <= sp.start and sp.end <= root.end]
                summaries.append(layers.summarize_op(inside, root))
            by_mode = {m: [op for op in ops if op.mode == m and not op.failed] for m in schedule}
            base = by_mode["untraced_1worker" if name == "sweep_cli" else "untraced"]
            overheads = [t.wall / u.wall - 1.0 for u, t in zip(base, by_mode["traced"])]
            extra = {
                "trace.overhead_frac": _median(overheads),
                "ops_failed_frac": failed / attempted if attempted else 1.0,
                "cli.pool_efficiency": 0.0,
            }
            if name == "sweep_cli":
                extra["cli.pool_efficiency"] = _median(
                    one.wall / (wl.workers * two.wall)
                    for two, one in zip(by_mode["untraced"], by_mode["untraced_1worker"]))
            missing = layers.missing_layers(name, summaries) if summaries else ["all"]
            if missing:
                problems.append(f"expected layers recorded no calls: {', '.join(missing)}")
            result_metrics = layers.per_layer_metrics(summaries, extra)
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["problems"] = problems
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return result, detail


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a child process."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            rows.append((name, trace, result))
    for name, trace, result in rows:
        print(f"\n== {name} ({'per-layer, traced' if trace else 'end-to-end, untraced'}) "
              f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:45s} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    _pin_threads()
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    if not (SRC / "noodle" / "__init__.py").is_file():
        print(f"benchmark: package source not found under {SRC.relative_to(ROOT)}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import warnings

    # Known, expected warnings from the workloads' shapes (a final batch
    # smaller than k_rank); they are noise on stderr, not failures.
    warnings.filterwarnings("ignore", message=r"k_rank=\d+ exceeds min\(shape\)")

    OUT_DIR.mkdir(exist_ok=True)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail["provenance"] = provenance(args.seed, inherited)
    detail["result"] = result
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for problem in detail["problems"]:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": detail["provenance"], "fpr95": detail["fpr95"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
