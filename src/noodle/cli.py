"""Command-line entry points: data generation, training, evaluation, sweeps.

Subcommands::

    noodle gen-data   --out DIR [--seed N --classes K --noise-rate F ...]
    noodle train      --data train.csv --out DIR [--config cfg.json ...]
    noodle eval       --checkpoint ckpt --store BASE --id-test f --ood f --out DIR [...]
    noodle experiment --spec exp.json --out DIR [--threads N]

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure
during training.  All outputs are deterministic functions of their inputs and
seeds; no timestamps are written, so reruns are byte-identical.

``run_experiment`` is the one (method x seed) sweep runner, behind ``noodle
experiment`` and for library callers alike.  The commands and ``plan_experiment``
build the same checked settings (``DataSpec``, ``TrainConfig``, ``EvalSpec``),
so a spec shares each rule and fails before any write.  The cells drive the
same helpers as the commands (CSV round trips included), so a single-method
single-seed sweep reproduces a manual gen-data/train/eval chain exactly.
"""

from __future__ import annotations

import argparse
import sys
import threading
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, astuple, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

from .datagen import (
    OOD_MODES,
    DataSpec,
    LabeledSet,
    NoiseSpec,
    inject_symmetric_noise,
    load_features_csv,
    load_ood_csv,
    make_gaussian_mixture,
    make_ood_set,
    save_features_csv,
    save_ood_csv,
)
from .files import array_checksum, read_json, reject_unknown, require_keys, write_json
from .losses import LOSS_KINDS
from .metrics import ScoreReport, emit_report, id_accuracy, make_report
from .model import DivergenceError, MlpParams, forward, load_checkpoint, save_checkpoint
from .scoring import SCORE_KINDS, EmbeddingStore, EvalSpec, batch_scores, load_store, save_store
from .trainer import TrainConfig, train

EXPERIMENT_FORMAT = "noodle-experiment"


# ---------------------------------------------------------------------------
# gen-data

def generate_dataset_files(out_dir: Path, seed: int, **overrides) -> list[tuple[Path, int]]:
    """Write train/val/test_id plus one OOD file per mode; returns the manifest.
    ``overrides`` are :class:`DataSpec` fields, checked before any draw.

    One sequential random stream drives everything, so the whole file set is
    a function of ``seed`` alone.  Train, val, and test are slices of a single
    mixture draw (shared class means); label noise touches the train split
    only.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    p = DataSpec.from_dict(overrides)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = (p.per_class, p.val_per_class, p.test_per_class)
    # Every draw comes before the first write, so a failing draw leaves no files.
    try:
        full = make_gaussian_mixture(p.classes, sum(counts), p.dim, p.separation, p.spread, rng)
        # Rows come in one block per class; a split is the same slice of each block.
        features = full.features.reshape(p.classes, sum(counts), -1)
        labels = full.clean_labels.reshape(p.classes, sum(counts))
        noise = NoiseSpec("symmetric", p.noise_rate)
        bounds = np.cumsum((0, *counts))
        sets = {}
        for name, lo, hi in zip(("train", "val", "test_id"), bounds, bounds[1:]):
            clean = labels[:, lo:hi].ravel()
            noisy = inject_symmetric_noise(clean, noise, p.classes, rng) if name == "train" else clean
            sets[name] = LabeledSet(features[:, lo:hi].reshape(clean.size, -1), clean, noisy, p.classes)
        ood = {mode: make_ood_set(sets["train"], p.ood_size, mode, rng) for mode in p.ood_modes}
    except MemoryError:
        raise ValueError(
            f"the file set does not fit in memory: classes {p.classes} x (per_class {p.per_class} + "
            f"val_per_class {p.val_per_class} + test_per_class {p.test_per_class}) rows and "
            f"ood_size {p.ood_size} per OOD mode, in dim {p.dim}"
        ) from None

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: list[tuple[Path, int]] = []
    for name, dataset in sets.items():
        path = out_dir / f"{name}.csv"
        save_features_csv(dataset, path)
        manifest.append((path, len(dataset)))
    for mode, ood_features in ood.items():
        path = out_dir / f"ood_{mode}.csv"
        save_ood_csv(ood_features, path)
        manifest.append((path, ood_features.shape[0]))
    return manifest


def cmd_gen_data(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    params = {f.name: getattr(args, f.name) for f in fields(DataSpec)}
    params["ood_modes"] = args.ood_modes.split(",")
    manifest = generate_dataset_files(out_dir, args.seed, **params)
    for path, rows in manifest:
        print(f"wrote {path} ({rows} rows)")
    return 0


# ---------------------------------------------------------------------------
# train

# `noodle train` flag -> (config key, argparse options).  The config key is
# also the argparse dest; `--lambda` names its metavar LAM in `--help`.
TRAIN_FLAGS = {
    "--seed": ("seed", dict(type=int)),
    "--epochs": ("epochs", dict(type=int)),
    "--lambda": ("lambda", dict(type=float, metavar="LAM", help="sparsity weight")),
    "--loss": ("loss_kind", dict(choices=LOSS_KINDS)),
    "--batch-size": ("batch_size", dict(type=int)),
    "--lr": ("lr", dict(type=float)),
    "--pi-iters": ("pi_iters", dict(type=int)),
}


def run_training(data_path: Path, config: TrainConfig, out_dir: Path) -> list[Path]:
    """Train on a CSV and persist checkpoint, store, and loss trace.  The
    checkpoint's meta records the store's checksum and how many training
    samples the store dropped."""
    data = load_features_csv(data_path)
    result = train(data, config)
    out_dir.mkdir(parents=True, exist_ok=True)

    checkpoint = out_dir / "checkpoint.json"
    save_checkpoint(
        result.params,
        checkpoint,
        transition_theta=result.transition.theta,
        meta={
            "config": config.to_dict(),
            "config_hash": config.config_hash(),
            "data_file": data_path.name,
            "store_checksum": array_checksum(result.store.labels, result.store.embeddings),
            "store_dropped": len(data) - len(result.store),
        },
    )
    store_base = out_dir / "store"
    save_store(result.store, store_base)
    trace_path = out_dir / "trace.json"
    write_json(
        trace_path,
        {
            "format": "noodle-trace",
            "version": 1,
            "config_hash": config.config_hash(),
            "epoch_mean_loss": result.loss_trace,
        },
    )
    return [checkpoint, Path(str(store_base) + ".csv"), trace_path]


def cmd_train(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    doc = read_json(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key, _ in TRAIN_FLAGS.values()}
    config = TrainConfig.from_dict({**doc, **{k: v for k, v in flags.items() if v is not None}})
    for path in run_training(Path(args.data), config, out_dir):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# eval

def evaluate(
    params: MlpParams,
    store: EmbeddingStore,
    id_set: LabeledSet,
    ood_sets: Iterable[tuple[str, np.ndarray]],
    evaluation: EvalSpec,
    seed: int,
    config_hash: str,
) -> list[ScoreReport]:
    """One report per ``(name, features)`` OOD set, against the ID set's scores
    under ``evaluation``'s score kind, ``k`` and TPR.

    The ID set is forwarded once; its accuracy is the argmax over the logits
    against the clean labels.  ``ood_sets`` is consumed lazily, so a generator
    that loads each set keeps at most one OOD feature matrix alive."""
    id_cache = forward(params, id_set.features)
    id_acc = id_accuracy(np.argmax(id_cache.logits, axis=0), id_set.clean_labels)
    score, k, tpr = evaluation.score, evaluation.k, evaluation.tpr
    id_scores = batch_scores(score, store, id_cache.latent, id_cache.probs, id_cache.logits, k)
    reports = []
    for name, features in ood_sets:
        cache = forward(params, features)
        ood_scores = batch_scores(score, store, cache.latent, cache.probs, cache.logits, k)
        reports.append(make_report(name, id_scores, ood_scores, id_acc, seed, config_hash, tpr))
    return reports


def _check_report_names(ood_paths: Iterable, what: str) -> None:
    """Each OOD file's stem names its report, so no two files may share one."""
    stems = [Path(p).stem for p in ood_paths]
    repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
    if repeated:
        raise ValueError(f"{what} share a report name: {', '.join(repeated)}")


def run_eval(
    checkpoint_path: Path,
    store_base: Path,
    id_test_path: Path,
    ood_paths: list[Path],
    score: str,
    k: int,
    tpr: float,
    seed: int,
    out_dir: Path,
) -> dict:
    """Score the ID test set against every OOD file; write one report per OOD
    set plus ``eval_summary.json``, their rows and an average row.  Returns
    the summary dict.

    ``score``, ``k`` and ``tpr`` make an :class:`EvalSpec`, checked before
    any file is read.  The store must be the one trained with the checkpoint:
    its checksum must equal the checkpoint meta's ``store_checksum``, so a
    store of another width, class count, encoder or run is rejected with
    ``ValueError``, and so are a checkpoint without that key or its
    ``config_hash`` and two OOD files with one stem."""
    evaluation = EvalSpec(score, k, tpr)
    if not ood_paths:
        raise ValueError("need at least one OOD file")
    _check_report_names(ood_paths, "OOD files")
    for path in [checkpoint_path, Path(str(store_base) + ".csv"), id_test_path, *ood_paths]:
        if not Path(path).exists():
            raise FileNotFoundError(f"missing input file: {path}")

    params, _, meta = load_checkpoint(checkpoint_path)
    require_keys(meta, ("config_hash", "store_checksum"), checkpoint_path)
    store = load_store(store_base)
    if array_checksum(store.labels, store.embeddings) != meta["store_checksum"]:
        raise ValueError(
            f"{store_base}.csv: not the store trained with {checkpoint_path} (store_checksum differs)"
        )
    config_hash = meta["config_hash"]
    ood_sets = ((Path(p).stem, load_ood_csv(p)) for p in ood_paths)
    reports = evaluate(
        params, store, load_features_csv(id_test_path), ood_sets, evaluation, seed, config_hash
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        emit_report(report, out_dir)
    rows = [report.summary_row() for report in reports]
    average = {
        "dataset": "average",
        "n_id": rows[0]["n_id"],
        "n_ood": int(sum(r["n_ood"] for r in rows)),
        "fpr95": float(np.mean([r["fpr95"] for r in rows])),
        "auroc": float(np.mean([r["auroc"] for r in rows])),
        "id_accuracy": rows[0]["id_accuracy"],
    }
    summary = {
        "format": "noodle-eval-summary",
        "version": 1,
        **asdict(evaluation),
        "seed": seed,
        "config_hash": config_hash,
        "rows": rows,
        "average": average,
    }
    write_json(out_dir / "eval_summary.json", summary)
    return summary


def cmd_eval(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    summary = run_eval(
        Path(args.checkpoint),
        Path(args.store),
        Path(args.id_test),
        [Path(p) for p in args.ood],
        args.score,
        args.k,
        args.tpr,
        args.seed,
        out_dir,
    )
    for row in [*summary["rows"], summary["average"]]:
        print(
            f"{row['dataset']}: fpr95={row['fpr95']:.4f} auroc={row['auroc']:.4f} "
            f"id_acc={row['id_accuracy']:.4f}"
        )
    print(f"wrote {out_dir / 'eval_summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# experiment


SPEC_KEYS = ("format", "version", "dataset", "noise", "train", "methods", "seeds", "eval")
METHOD_KEYS = ("name", "loss_kind", "lambda", "score", "k")
DATASET_FILE_KEYS = ("train_csv", "id_test_csv", "ood_csvs")


def plan_experiment(spec, source: str) -> tuple[DataSpec | dict, list[dict]]:
    """Check a spec and resolve it into its data and cells; every error starts with ``source``.

    Unknown keys (top level, ``noise``, ``eval``, each method), a ``format`` or
    ``version`` other than this one's, a ``noise_rate`` in ``dataset`` or a
    ``seed`` in ``train`` (the runner sets both), repeated or non-integer seeds,
    a mistyped or missing dataset file, two OOD files with one stem, a partial
    file set, and generator keys or ``noise`` beside the files are errors, not
    silent defaults.  So are a method name that is not one path component and
    any section its checked object rejects.  Returns the spec's dataset files
    or a :class:`DataSpec`, and one cell per (method, seed), method-major:
    ``name``, ``seed``, ``config`` (``train`` <- the method's
    ``loss_kind``/``lambda`` <- the seed, through ``TrainConfig.from_dict``)
    and ``eval`` (an :class:`EvalSpec`)."""
    try:
        if not isinstance(spec, dict):
            raise ValueError("experiment spec must be a JSON object")
        methods = spec.get("methods", [])
        seeds = spec.get("seeds", [])
        if not isinstance(methods, list) or not isinstance(seeds, list):
            raise ValueError("methods and seeds must be JSON lists")
        sections = [spec.get(key, {}) for key in ("dataset", "noise", "train", "eval")]
        if not all(isinstance(doc, dict) for doc in [*sections, *methods]):
            raise ValueError("dataset, noise, train, eval and each method must be objects")
        dataset, noise, train, eval_doc = sections
        reject_unknown(spec, SPEC_KEYS, "spec keys")
        reject_unknown(noise, ("rate",), "noise keys")
        reject_unknown(eval_doc, ("tpr",), "eval keys")
        for key, value in (("format", EXPERIMENT_FORMAT), ("version", 1)):
            if key in spec and (type(spec[key]) is not type(value) or spec[key] != value):
                raise ValueError(f"{key} must be {value!r}, got {spec[key]!r}")
        if not methods or not seeds:
            raise ValueError("need at least one method and one seed")
        if any(type(s) is not int for s in seeds) or len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be distinct integers, got {seeds}")
        names = [m.get("name") for m in methods]
        for name in names:
            if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ValueError(
                    "a method name must be one path component (a non-empty string "
                    f"without / or \\, not . or ..), got {name!r}"
                )
        if len(set(names)) != len(names):
            raise ValueError("every method needs a unique name")
        if "noise_rate" in dataset:
            raise ValueError("the noise rate belongs in noise.rate, not dataset")
        if "seed" in train:
            raise ValueError("the training seeds belong in seeds, not train")
        files = [dataset[k] for k in ("train_csv", "id_test_csv") if k in dataset]
        ood_csvs = dataset.get("ood_csvs", [])
        if "ood_csvs" in dataset and (not isinstance(ood_csvs, list) or not ood_csvs):
            raise ValueError(f"dataset.ood_csvs must be a non-empty list, got {ood_csvs!r}")
        for file in [*files, *ood_csvs]:
            if not isinstance(file, str):
                raise ValueError(f"a dataset file must be a path string, got {file!r}")
            if not Path(file).exists():
                raise FileNotFoundError(f"dataset file missing: {file}")
        _check_report_names(ood_csvs, "ood_csvs")
        given = [k for k in DATASET_FILE_KEYS if k in dataset]
        missing = [k for k in DATASET_FILE_KEYS if k not in dataset]
        if given and missing:
            raise ValueError(f"dataset gives {', '.join(given)} but not {', '.join(missing)}")
        ignored = [k for k in sorted(dataset) if k not in DATASET_FILE_KEYS] + (["noise"] if noise else [])
        if given and ignored:
            raise ValueError(f"dataset files are given, so {', '.join(ignored)} would be ignored")
        # A given file set is exactly the dataset section, and noise is empty.
        data = dataset if given else DataSpec.from_dict(dict(dataset, noise_rate=NoiseSpec(**noise).rate))
        try:
            evaluation = EvalSpec(**eval_doc)
        except ValueError as exc:
            raise ValueError(f"eval.{exc}") from exc
        cells = []
        for m in methods:
            try:
                reject_unknown(m, METHOD_KEYS, "method keys")
                overrides = {key: m[key] for key in ("loss_kind", "lambda") if key in m}
                method_eval = replace(evaluation, **{key: m[key] for key in ("score", "k") if key in m})
                configs = [TrainConfig.from_dict({**train, **overrides, "seed": seed}) for seed in seeds]
            except ValueError as exc:
                raise ValueError(f"method {m['name']!r}: {exc}") from exc
            cells += [dict(name=m["name"], seed=s, config=c, eval=method_eval) for s, c in zip(seeds, configs)]
    except (ValueError, FileNotFoundError) as exc:
        raise type(exc)(f"{source}: {exc}") from exc
    return data, cells


def load_experiment_spec(path: Path) -> dict:
    spec = read_json(path)
    plan_experiment(spec, str(path))
    return spec


def _run_cell(cell: dict) -> dict:
    """One planned cell: train then eval into its ``run_dir``. Runs in this
    process or in a pool worker, so it takes and returns plain picklable
    dicts."""
    try:
        run_dir = Path(cell["run_dir"])
        run_training(Path(cell["train_csv"]), cell["config"], run_dir)
        summary = run_eval(
            run_dir / "checkpoint.json",
            run_dir / "store",
            Path(cell["id_test_csv"]),
            [Path(p) for p in cell["ood_csvs"]],
            *astuple(cell["eval"]),  # score, k, tpr
            cell["seed"],
            run_dir,
        )
        return {"ok": True, "summary": summary}
    except Exception as exc:  # cell failures must not kill the sweep
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _run_cells(cells: list[dict], processes: int) -> list[dict]:
    """Run ``cells`` in this process and ``processes - 1`` pool workers and
    return their results in plan order.

    Every process takes the next cell from one queue: this one in a loop, each
    worker through the done-callback of its previous cell.  A cell is a pure
    function of its inputs, so which process runs it changes no output.  A
    failure of the pool itself (a worker that died) stops the hand-out and is
    raised once the pool has stopped, so no result is left unset."""
    results: list = [None] * len(cells)
    todo = deque(range(len(cells)))
    errors: list[Exception] = []
    # Reentrant: a future that is already done runs its callback at once.
    lock = threading.RLock()

    def take() -> int | None:
        with lock:
            return todo.popleft() if todo and not errors else None

    def feed(pool: ProcessPoolExecutor, done: Future | None = None, index: int = -1) -> None:
        # Holding the lock from take to submit means that once this process
        # finds the queue empty no cell can reach the pool as it shuts down.
        with lock:
            try:
                if done is not None:
                    results[index] = done.result()
                if (i := take()) is not None:
                    pool.submit(_run_cell, cells[i]).add_done_callback(partial(feed, pool, index=i))
            except Exception as exc:  # the pool's thread would only log it
                errors.append(exc)

    pool = ProcessPoolExecutor(max_workers=processes - 1) if processes > 1 else None
    with pool or nullcontext():
        for _ in range(processes - 1):
            feed(pool)
        while (i := take()) is not None:
            results[i] = _run_cell(cells[i])
    if errors:
        raise errors[0]
    return results


def run_experiment(spec: dict, spec_file: str, out_dir: Path, threads: int) -> dict:
    """Run every (method, seed) cell of ``spec`` and return the comparison.

    The spec is planned first (``spec_file`` names it in error messages and
    in ``comparison.json``).  Data is a function of the seed alone, so it is
    generated once per seed into ``data/seed<s>/`` (or taken from the spec's
    files) and shared by all methods.  Each cell trains and evaluates into
    ``runs/<method>/seed<s>/``; a failing cell is recorded under ``failures``
    and does not stop the sweep.  The cells run in ``min(threads, cells)``
    processes in all: this one and one fewer pool workers, so ``threads=1``
    or a single cell starts no pool.  Every output is byte-identical to a
    serial run.
    The comparison is also written to ``comparison.json``."""
    data, cells = plan_experiment(spec, spec_file)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")

    data_files: dict[int, dict] = {}
    for seed in dict.fromkeys(cell["seed"] for cell in cells):
        if isinstance(data, dict):
            data_files[seed] = data
            continue
        try:
            manifest = generate_dataset_files(out_dir / "data" / f"seed{seed}", seed, **asdict(data))
        except ValueError as exc:
            raise ValueError(f"{spec_file}: {exc}") from exc
        paths = {p.stem: p for p, _ in manifest}
        data_files[seed] = {
            "train_csv": str(paths["train"]),
            "id_test_csv": str(paths["test_id"]),
            "ood_csvs": [str(p) for name, p in sorted(paths.items()) if name.startswith("ood_")],
        }

    for cell in cells:
        run_dir = out_dir / "runs" / cell["name"] / f"seed{cell['seed']}"
        cell.update(data_files[cell["seed"]], run_dir=str(run_dir))
    results = _run_cells(cells, min(threads, len(cells)))

    rows, by_method = [], {}
    for name in dict.fromkeys(cell["name"] for cell in cells):
        mine = [(c["seed"], r) for c, r in zip(cells, results) if c["name"] == name]
        summaries = {seed: r["summary"] for seed, r in mine if r["ok"]}
        failures = {seed: r["error"] for seed, r in mine if not r["ok"]}
        row = {"method": name, "seeds": len(summaries), "failures": len(failures)}
        for key, out_key in (("fpr95", "fpr95"), ("auroc", "auroc"), ("id_accuracy", "id_acc")):
            values = np.array([s["average"][key] for s in summaries.values()])
            row[f"{out_key}_mean"] = float(values.mean()) if summaries else float("nan")
            row[f"{out_key}_std"] = float(values.std()) if summaries else float("nan")
        rows.append(row)
        by_method[name] = {
            "per_seed": {str(s): summary for s, summary in summaries.items()},
            "failures": {str(s): err for s, err in failures.items()},
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = {
        "format": EXPERIMENT_FORMAT,
        "version": 1,
        "spec_file": spec_file,
        "rows": rows,
        "methods": by_method,
    }
    write_json(out_dir / "comparison.json", comparison)
    return comparison


def cmd_experiment(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    spec = load_experiment_spec(spec_path)
    out_dir = Path(args.out)
    comparison = run_experiment(spec, spec_path.name, out_dir, args.threads)

    failures = sum(row["failures"] for row in comparison["rows"])
    for row in comparison["rows"]:
        print(
            f"{row['method']}: fpr95={row['fpr95_mean']:.4f}±{row['fpr95_std']:.4f} "
            f"auroc={row['auroc_mean']:.4f}±{row['auroc_std']:.4f} "
            f"id_acc={row['id_acc_mean']:.4f} ({row['seeds']} seeds, {row['failures']} failures)"
        )
    if failures:
        print(f"WARNING: {failures} cell(s) failed; see comparison.json", file=sys.stderr)
    print(f"wrote {out_dir / 'comparison.json'}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noodle",
        description="Noise-robust out-of-distribution detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write synthetic ID/OOD CSV files")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=0)
    for f in fields(DataSpec):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "ood_modes":
            g.add_argument(flag, default=",".join(f.default), help=f"comma-separated subset of {OOD_MODES}")
        else:
            g.add_argument(flag, type=type(f.default), default=f.default)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and build the reference store")
    t.add_argument("--data", required=True, help="training CSV")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--config", help="JSON file of train-config keys")
    for flag, (key, options) in TRAIN_FLAGS.items():
        t.add_argument(flag, dest=key, **options)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score ID/OOD files and emit reports")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--store", required=True, help="store base path (without .csv)")
    e.add_argument("--id-test", required=True)
    e.add_argument("--ood", action="append", required=True, help="repeatable OOD CSV path")
    e.add_argument("--score", choices=SCORE_KINDS, default=EvalSpec.score)
    e.add_argument("--k", type=int, default=EvalSpec.k)
    e.add_argument("--tpr", type=float, default=EvalSpec.tpr)
    e.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("experiment", help="run a (method x seed) sweep from a JSON spec")
    x.add_argument("--spec", required=True)
    x.add_argument("--out", required=True, help="output directory")
    x.add_argument("--threads", type=int, default=1, help="processes in all: this one and N-1 workers")
    x.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
