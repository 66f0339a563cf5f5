"""The three benchmark workloads.

Each workload turns the workload seed into a fixed *panel* of input sets
(entry ``k`` uses data seed ``100 * seed + k``) and runs operations on panel
entries in a single closed loop.  Before each operation, :meth:`prepare`
sets its inputs up; that time is the set-up metric, so set-up samples are
spread over the run like the operations are.  Quality
metrics are the mean over the panel, so they are a deterministic function of
the seed no matter how many operations the time budget allows; operations
beyond the panel repeat entries, which the self-check uses to assert bit
reproducibility.

The package is driven through module attributes (``trainer.train``, not a
name imported into this file) so that the tracing wrappers installed by
:mod:`layers` see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from noodle import cli, datagen, metrics, model, scoring, trainer

import checks

KNN_K = 50
TPR = 0.95
NOISE_RATE = 0.4
T_DIAG_INIT = 0.65
OOD_MODES = ("far_cluster", "uniform_shell")
KNN_SAMPLE = 16  # queries per score array recomputed by brute force


@dataclass
class Op:
    """One timed operation on one panel entry."""

    entry: int
    mode: str                 # "untraced", "traced", or "untraced_1worker" (sweep)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    cells: int = 0            # completed units: protocol cells, sweep cells, eval calls
    rows_epochs: int = 0      # training rows x epochs completed
    train_s: float = 0.0      # wall of the training in the op
    queries: int = 0          # scored queries x score kinds
    fingerprint: object = None  # must repeat across ops on one entry
    keep: dict = field(default_factory=dict)


def _fail(op: Op, what: str) -> None:
    op.failed += 1
    print(f"benchmark: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _sample(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(KNN_SAMPLE, n), replace=False))


def _mean_auroc(params, store, id_x, ood_xs, kind: str) -> float:
    def scores(x):
        c = model.forward(params, x)
        return scoring.batch_scores(kind, store, c.latent, c.probs, c.logits, KNN_K)

    id_scores = scores(id_x)
    return float(np.mean([metrics.auroc(id_scores, scores(x)) for x in ood_xs]))


# ---------------------------------------------------------------------------


class ProtocolCM:
    """The acceptance protocol cell at 40% label noise, through library calls."""

    name = "protocol_cm"
    panel = 4
    gen = dict(classes=4, per_class=500, dim=32, separation=6.0, spread=1.0,
               val_per_class=50, test_per_class=250, ood_size=1000, ood_modes=OOD_MODES)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seeds = [100 * seed + k for k in range(self.panel)]

    def prepare(self, entry: int) -> float:
        """Generate the entry's data files."""
        start = perf_counter()
        cli.generate_dataset_files(self.work / f"data{entry}", self.seeds[entry],
                                   noise_rate=NOISE_RATE, **self.gen)
        return perf_counter() - start

    def run(self, entry: int, mode: str) -> Op:
        op = Op(entry, mode, attempted=1)
        data_dir = self.work / f"data{entry}"
        try:
            t0 = perf_counter()
            data = datagen.load_features_csv(data_dir / "train.csv")
            config = trainer.TrainConfig(seed=self.seeds[entry], t_diag_init=T_DIAG_INIT,
                                         loss_kind="cm", lam=0.001)
            t1 = perf_counter()
            result = trainer.train(data, config)
            t2 = perf_counter()
            test = datagen.load_features_csv(data_dir / "test_id.csv")
            cache = model.forward(result.params, test.features)
            id_scores = scoring.batch_scores(
                "knn", result.store, cache.latent, cache.probs, cache.logits, KNN_K)
            acc = metrics.id_accuracy(np.argmax(cache.logits, axis=0), test.clean_labels)
            reports, ood_xs = [], []
            for mode_name in OOD_MODES:
                x = datagen.load_ood_csv(data_dir / f"ood_{mode_name}.csv")
                c = model.forward(result.params, x)
                ood_scores = scoring.batch_scores("knn", result.store, c.latent, c.probs, c.logits, KNN_K)
                reports.append(metrics.make_report(mode_name, id_scores, ood_scores, acc,
                                                   self.seeds[entry], config.config_hash(), TPR))
                ood_xs.append(x)
            t3 = perf_counter()
        except Exception:
            _fail(op, f"protocol cell {entry}")
            return op
        op.wall, op.train_s = t3 - t0, t2 - t1
        op.cells = 1
        op.rows_epochs = len(data) * config.epochs
        op.queries = len(test) + sum(len(x) for x in ood_xs)
        op.fingerprint = trainer.params_checksum(result.params)
        op.keep = dict(result=result, reports=reports, id_x=test.features, ood_xs=ood_xs)
        return op

    def quality(self, first: dict[int, Op], with_mahalanobis: bool) -> list[dict]:
        out = []
        for k in sorted(first):
            keep = first[k].keep
            row = {
                "auroc": float(np.mean([r.auroc for r in keep["reports"]])),
                "fpr95": float(np.mean([r.fpr95 for r in keep["reports"]])),
                "id_accuracy": keep["reports"][0].id_accuracy,
            }
            if with_mahalanobis:
                res = keep["result"]
                row["auroc.mahalanobis"] = _mean_auroc(
                    res.params, res.store, keep["id_x"], keep["ood_xs"], "mahalanobis")
            out.append(row)
        return out

    def verify(self, first: dict[int, Op], rng: np.random.Generator) -> list[str]:
        problems = []
        for k, op in sorted(first.items()):
            keep = op.keep
            res = keep["result"]
            for r in keep["reports"]:
                problems += checks.check_report(f"entry {k} {r.dataset}", r.id_scores, r.ood_scores,
                                                r.auroc, r.fpr95, r.tpr)
            xs = [keep["id_x"], *keep["ood_xs"]]
            arrays = [keep["reports"][0].id_scores, *[r.ood_scores for r in keep["reports"]]]
            for x, reported in zip(xs, arrays):
                idx = _sample(rng, len(x))
                latent = model.forward(res.params, x[idx]).latent
                problems += checks.check_knn(f"entry {k}", res.store.embeddings, latent, KNN_K,
                                             reported[idx])
        return problems


# ---------------------------------------------------------------------------


class _RssSampler:
    """Peak of the summed resident set of this process and its children,
    sampled from /proc while a process pool runs."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            pids = {me}
            try:
                for tid in os.listdir(f"/proc/{me}/task"):
                    with open(f"/proc/{me}/task/{tid}/children", encoding="ascii") as fh:
                        pids.update(int(p) for p in fh.read().split())
            except OSError:
                pass
            self.peak_kb = max(self.peak_kb, sum(self._rss_kb(p) for p in pids))
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class SweepCLI:
    """``noodle experiment`` through ``cli.main``: files and the process pool."""

    name = "sweep_cli"
    panel = 3
    workers = 2
    seeds_per_sweep = 4
    rows = 4 * 250
    epochs = 30

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.pool_peak_kb = 0
        self._count = 0

    def _spec(self, k: int) -> dict:
        base = 100 * self.seed + self.seeds_per_sweep * k
        return {
            "format": "noodle-experiment",
            "version": 1,
            "dataset": {"classes": 4, "per_class": 250, "dim": 16, "ood_modes": list(OOD_MODES)},
            "noise": {"rate": NOISE_RATE},
            "train": {"epochs": self.epochs, "batch_size": 64, "t_diag_init": T_DIAG_INIT},
            "methods": [
                {"name": "noodle", "loss_kind": "cm", "lambda": 0.001, "score": "knn", "k": KNN_K},
                {"name": "ce", "loss_kind": "ce", "lambda": 0.0, "score": "knn", "k": KNN_K},
            ],
            "seeds": [base + j for j in range(self.seeds_per_sweep)],
        }

    def prepare(self, entry: int) -> float:
        """Write the entry's spec and start the CLI's interpreter once (a cold
        ``import noodle.cli``): the set-up a sweep user pays."""
        start = perf_counter()
        path = self.work / f"spec{entry}.json"
        path.write_text(json.dumps(self._spec(entry), indent=1), encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", "import noodle.cli"],
                       env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        return perf_counter() - start

    def run(self, entry: int, mode: str) -> Op:
        workers = 1 if mode != "untraced" else self.workers
        op = Op(entry, mode, attempted=len(self._spec(entry)["seeds"]) * 2)
        out = self.work / f"op{self._count}"
        self._count += 1
        argv = ["experiment", "--spec", str(self.work / f"spec{entry}.json"), "--out", str(out),
                "--threads", str(workers)]
        try:
            sampler = _RssSampler() if workers > 1 else contextlib.nullcontext()
            with sampler, contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = cli.main(argv)
                wall = perf_counter() - start
            if workers > 1:
                self.pool_peak_kb = max(self.pool_peak_kb, sampler.peak_kb)
            if code != 0:
                raise RuntimeError(f"noodle experiment exited {code}")
            comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        except Exception:
            op.failed = op.attempted
            _fail(op, f"sweep on entry {entry}")
            return op
        # cli.main exits 0 even when cells fail; the failures are only in the
        # comparison, so that is where they are counted.
        op.failed = sum(len(m["failures"]) for m in comparison["methods"].values())
        op.wall = wall
        op.train_s = wall  # training runs inside the sweep; only its wall is seen
        op.cells = op.attempted - op.failed
        op.rows_epochs = op.cells * self.rows * self.epochs
        for m in comparison["methods"].values():
            for summary in m["per_seed"].values():
                op.queries += summary["average"]["n_id"] + summary["average"]["n_ood"]
        op.fingerprint = (
            (out / "comparison.json").read_bytes(),
            tuple(
                trainer.params_checksum(model.load_checkpoint(run / "checkpoint.json")[0])
                for run in sorted(out.glob("runs/*/seed*"))
            ),
        )
        op.keep = dict(out=out, comparison=comparison)
        return op

    def _noodle_cells(self, op: Op):
        out = op.keep["out"]
        for seed in self._spec(op.entry)["seeds"]:
            run = out / "runs" / "noodle" / f"seed{seed}"
            data = out / "data" / f"seed{seed}"
            yield seed, run, data

    def quality(self, first: dict[int, Op], with_mahalanobis: bool) -> list[dict]:
        out = []
        for k in sorted(first):
            op = first[k]
            row = next(r for r in op.keep["comparison"]["rows"] if r["method"] == "noodle")
            q = {"auroc": row["auroc_mean"], "fpr95": row["fpr95_mean"],
                 "id_accuracy": row["id_acc_mean"]}
            if with_mahalanobis:
                values = []
                for _, run, data in self._noodle_cells(op):
                    params = model.load_checkpoint(run / "checkpoint.json")[0]
                    store = scoring.load_store(run / "store")
                    id_x = datagen.load_features_csv(data / "test_id.csv").features
                    ood_xs = [datagen.load_ood_csv(data / f"ood_{m}.csv") for m in OOD_MODES]
                    values.append(_mean_auroc(params, store, id_x, ood_xs, "mahalanobis"))
                q["auroc.mahalanobis"] = float(np.mean(values))
            out.append(q)
        return out

    def verify(self, first: dict[int, Op], rng: np.random.Generator) -> list[str]:
        problems = []
        for k, op in sorted(first.items()):
            out = op.keep["out"]
            for report_path in sorted(out.glob("runs/*/seed*/report_*.json")):
                doc = json.loads(report_path.read_text(encoding="utf-8"))
                problems += checks.check_report(
                    str(report_path.relative_to(out)), doc["id_scores"], doc["ood_scores"],
                    doc["metrics"]["auroc"], doc["metrics"]["fpr95"], doc["tpr"])
            for seed, run, data in self._noodle_cells(op):
                params = model.load_checkpoint(run / "checkpoint.json")[0]
                store = scoring.load_store(run / "store")
                id_x = datagen.load_features_csv(data / "test_id.csv").features
                doc = json.loads((run / f"report_ood_{OOD_MODES[0]}.json").read_text(encoding="utf-8"))
                idx = _sample(rng, len(id_x))
                latent = model.forward(params, id_x[idx]).latent
                problems += checks.check_knn(f"sweep entry {k} seed {seed}", store.embeddings,
                                             latent, KNN_K, np.asarray(doc["id_scores"])[idx])
        return problems


# ---------------------------------------------------------------------------


class EvalStore:
    """``cli.run_eval`` on a prepared checkpoint and store, once per score kind."""

    name = "eval_store"
    panel = 3
    gen = dict(classes=10, per_class=500, dim=32, test_per_class=200, ood_size=2000,
               ood_modes=OOD_MODES)
    epochs = 10

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seeds = [100 * seed + k for k in range(self.panel)]
        self._prepared: tuple[Path, float] | None = None
        self._count = 0

    def prepare(self, entry: int) -> float:
        """Generate the entry's data and train its checkpoint and store into a
        fresh directory, which the next :meth:`run` evaluates."""
        d = self.work / f"op{self._count}"
        self._count += 1
        start = perf_counter()
        cli.generate_dataset_files(d, self.seeds[entry], noise_rate=NOISE_RATE, **self.gen)
        config = trainer.TrainConfig(seed=self.seeds[entry], epochs=self.epochs,
                                     t_diag_init=T_DIAG_INIT)
        cli.run_training(d / "train.csv", config, d / "run")
        wall = perf_counter() - start
        self._prepared = (d, wall)
        return wall

    def run(self, entry: int, mode: str) -> Op:
        op = Op(entry, mode)
        d, setup_wall = self._prepared
        out = d / "eval"
        summaries = {}
        start = perf_counter()
        for kind in scoring.SCORE_KINDS:
            op.attempted += 1
            try:
                summaries[kind] = cli.run_eval(
                    d / "run" / "checkpoint.json", d / "run" / "store", d / "test_id.csv",
                    [d / f"ood_{m}.csv" for m in OOD_MODES], kind, KNN_K, TPR,
                    self.seeds[entry], out / kind)
            except Exception:
                _fail(op, f"eval {kind} on entry {entry}")
                continue
            op.cells += 1
            op.queries += summaries[kind]["average"]["n_id"] + summaries[kind]["average"]["n_ood"]
        op.wall = perf_counter() - start
        # No training is timed here; the training throughput a user of this
        # workload sees is the set-up's training over set-up plus evaluation.
        op.rows_epochs = self.gen["classes"] * self.gen["per_class"] * self.epochs
        op.train_s = setup_wall + op.wall
        params = model.load_checkpoint(d / "run" / "checkpoint.json")[0]
        op.fingerprint = (trainer.params_checksum(params), tuple(
            (out / kind / "eval_summary.json").read_bytes() for kind in summaries))
        op.keep = dict(data=d, out=out, summaries=summaries)
        return op

    def quality(self, first: dict[int, Op], with_mahalanobis: bool) -> list[dict]:
        out = []
        for k in sorted(first):
            s = first[k].keep["summaries"]
            out.append({
                "auroc": s["knn"]["average"]["auroc"],
                "fpr95": s["knn"]["average"]["fpr95"],
                "id_accuracy": s["knn"]["average"]["id_accuracy"],
                "auroc.mahalanobis": s["mahalanobis"]["average"]["auroc"],
            })
        return out

    def verify(self, first: dict[int, Op], rng: np.random.Generator) -> list[str]:
        problems = []
        for k, op in sorted(first.items()):
            out, d = op.keep["out"], op.keep["data"]
            for report_path in sorted(out.glob("*/report_*.json")):
                doc = json.loads(report_path.read_text(encoding="utf-8"))
                problems += checks.check_report(
                    str(report_path.relative_to(out)), doc["id_scores"], doc["ood_scores"],
                    doc["metrics"]["auroc"], doc["metrics"]["fpr95"], doc["tpr"])
            params = model.load_checkpoint(d / "run" / "checkpoint.json")[0]
            store = scoring.load_store(d / "run" / "store")
            xs = [datagen.load_features_csv(d / "test_id.csv").features,
                  *[datagen.load_ood_csv(d / f"ood_{m}.csv") for m in OOD_MODES]]
            for m, x in zip(("id", *OOD_MODES), xs):
                doc = json.loads((out / "knn" / f"report_ood_{OOD_MODES[0] if m == 'id' else m}.json")
                                 .read_text(encoding="utf-8"))
                reported = np.asarray(doc["id_scores" if m == "id" else "ood_scores"])
                idx = _sample(rng, len(x))
                latent = model.forward(params, x[idx]).latent
                problems += checks.check_knn(f"eval entry {k} {m}", store.embeddings, latent,
                                             KNN_K, reported[idx])
        return problems


WORKLOADS = {w.name: w for w in (ProtocolCM, SweepCLI, EvalStore)}
