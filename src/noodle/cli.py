"""Command-line entry points: data generation, training, evaluation, sweeps.

Subcommands::

    noodle gen-data   --out DIR [--seed N --classes K --noise-rate F ...]
    noodle train      --data train.csv --out DIR [--config cfg.json ...]
    noodle eval       --checkpoint ckpt --store BASE --id-test f --ood f [...]
    noodle experiment --spec exp.json [--out DIR --threads N]

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure
during training.  All outputs are deterministic functions of their inputs and
seeds; no timestamps are written, so reruns are byte-identical.  The
environment variables ``NOODLE_OUT`` and ``NOODLE_THREADS`` provide defaults
for ``--out`` and ``--threads``.

``run_experiment`` is the one (method x seed) sweep runner, behind ``noodle
experiment`` and for library callers alike.  ``plan_experiment`` resolves a
spec into its cells once, so every configuration error is raised before any
write.  The cells drive the same helper functions as the individual commands
(including the CSV round trips), so a single-method single-seed sweep
reproduces a manual gen-data/train/eval chain exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable

import numpy as np

from .datagen import (
    OOD_MODES,
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
from .files import array_checksum, read_json, require_keys, type_problem, write_json, write_rows
from .losses import LOSS_KINDS
from .metrics import REPORT_CSV_HEADER, ScoreReport, emit_report, id_accuracy, make_report
from .model import DivergenceError, MlpParams, forward, load_checkpoint, save_checkpoint
from .scoring import DEFAULT_KNN_K, SCORE_KINDS, EmbeddingStore, batch_scores, load_store, save_store
from .trainer import TrainConfig, train

EXPERIMENT_FORMAT = "noodle-experiment"

COMPARISON_CSV_HEADER = (
    "method,seeds,fpr95_mean,fpr95_std,auroc_mean,auroc_std,id_acc_mean,id_acc_std,failures"
)


# ---------------------------------------------------------------------------
# gen-data

GEN_DEFAULTS = dict(
    classes=4,
    per_class=500,
    dim=32,
    separation=6.0,
    spread=1.0,
    noise_rate=0.0,
    val_per_class=50,
    test_per_class=250,
    ood_size=1000,
    ood_modes=("far_cluster",),
)


def generate_dataset_files(out_dir: Path, seed: int, **overrides) -> list[tuple[Path, int]]:
    """Write train/val/test_id plus one OOD file per mode; returns the manifest.

    One sequential random stream drives everything, so the whole file set is
    a function of ``seed`` alone.  Train, val, and test are slices of a single
    mixture draw (shared class means); label noise touches the train split
    only.
    """
    p = dict(GEN_DEFAULTS)
    unknown = sorted(set(overrides) - set(p))
    if unknown:
        raise ValueError(f"unknown generator parameters: {', '.join(unknown)}")
    p.update(overrides)
    for key, like in GEN_DEFAULTS.items():
        if problem := type_problem(key, p[key], like):
            raise ValueError(problem)
    modes = tuple(p["ood_modes"])
    for mode in modes:
        if mode not in OOD_MODES:
            raise ValueError(f"unknown OOD mode {mode!r}; expected one of {OOD_MODES}")
    if not modes or len(set(modes)) < len(modes):
        raise ValueError(f"need one or more distinct OOD modes, got {','.join(modes) or 'none'}")
    for key in ("per_class", "val_per_class", "test_per_class", "ood_size"):
        if p[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {p[key]}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = (p["per_class"], p["val_per_class"], p["test_per_class"])
    full = make_gaussian_mixture(
        p["classes"], sum(counts), p["dim"], p["separation"], p["spread"], rng
    )
    # Rows come in one block per class; a split is the same slice of each block.
    features = full.features.reshape(p["classes"], sum(counts), -1)
    labels = full.clean_labels.reshape(p["classes"], sum(counts))
    noise = NoiseSpec("symmetric", p["noise_rate"])
    bounds = np.cumsum((0, *counts))
    sets = {}
    for name, lo, hi in zip(("train", "val", "test_id"), bounds, bounds[1:]):
        clean = labels[:, lo:hi].ravel()
        noisy = inject_symmetric_noise(clean, noise, p["classes"], rng) if name == "train" else clean
        sets[name] = LabeledSet(features[:, lo:hi].reshape(clean.size, -1), clean, noisy, p["classes"])
    # Every draw comes before the first write, so a failing draw leaves no files.
    ood = {mode: make_ood_set(sets["train"], p["ood_size"], mode, rng) for mode in modes}

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
    out_dir = _resolve_out(args.out)
    params = {key: getattr(args, key) for key in GEN_DEFAULTS}
    params["ood_modes"] = tuple(args.ood_modes.split(","))
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
    "--k-rank": ("k_rank", dict(type=int)),
    "--pi-iters": ("pi_iters", dict(type=int)),
}


def build_train_config(doc: dict, overrides: dict) -> TrainConfig:
    """Defaults <- ``doc`` <- ``overrides``, rejecting unknown keys and
    invalid values; the one builder of a ``TrainConfig`` from outside input."""
    config = TrainConfig.from_dict({**doc, **overrides})
    config.validate()
    return config


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
    out_dir = _resolve_out(args.out)
    doc = read_json(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key, _ in TRAIN_FLAGS.values()}
    config = build_train_config(doc, {k: v for k, v in flags.items() if v is not None})
    for path in run_training(Path(args.data), config, out_dir):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# eval

# Defaults of `noodle eval` and of an experiment method's score/k and eval.tpr.
EVAL_DEFAULTS = dict(score="knn", k=DEFAULT_KNN_K, tpr=0.95)


def evaluate(
    params: MlpParams,
    store: EmbeddingStore,
    id_set: LabeledSet,
    ood_sets: Iterable[tuple[str, np.ndarray]],
    score: str,
    k: int,
    tpr: float,
    seed: int,
    config_hash: str,
) -> list[ScoreReport]:
    """One report per ``(name, features)`` OOD set, against the ID set's scores.

    The ID set is forwarded once; its accuracy is the argmax over the logits
    against the clean labels.  ``ood_sets`` is consumed lazily, so a generator
    that loads each set keeps at most one OOD feature matrix alive."""
    id_cache = forward(params, id_set.features)
    id_acc = id_accuracy(np.argmax(id_cache.logits, axis=0), id_set.clean_labels)
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
    set plus a combined table with an average row.  Returns the summary dict.

    The store must be the one trained with the checkpoint: its checksum must
    equal the checkpoint meta's ``store_checksum``, so a store of another
    width, class count, encoder or run is rejected with ``ValueError``, and so
    are a checkpoint without that key and two OOD files with one stem."""
    if score not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {score!r}; expected one of {SCORE_KINDS}")
    if not ood_paths:
        raise ValueError("need at least one OOD file")
    _check_report_names(ood_paths, "OOD files")
    for path in [checkpoint_path, Path(str(store_base) + ".csv"), id_test_path, *ood_paths]:
        if not Path(path).exists():
            raise FileNotFoundError(f"missing input file: {path}")

    params, _, meta = load_checkpoint(checkpoint_path)
    require_keys(meta, ("store_checksum",), checkpoint_path)
    store = load_store(store_base)
    if array_checksum(store.labels, store.embeddings) != meta["store_checksum"]:
        raise ValueError(
            f"{store_base}.csv: not the store trained with {checkpoint_path} (store_checksum differs)"
        )
    config_hash = meta.get("config_hash", "")
    ood_sets = ((Path(p).stem, load_ood_csv(p)) for p in ood_paths)
    reports = evaluate(
        params, store, load_features_csv(id_test_path), ood_sets, score, k, tpr, seed, config_hash
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
        "score": score,
        "k": k,
        "tpr": tpr,
        "seed": seed,
        "config_hash": config_hash,
        "rows": rows,
        "average": average,
    }
    write_json(out_dir / "eval_summary.json", summary)
    write_rows(
        out_dir / "eval_summary.csv",
        REPORT_CSV_HEADER,
        [(*row.values(), seed, config_hash) for row in [*rows, average]],
    )
    return summary


def cmd_eval(args: argparse.Namespace) -> int:
    out_dir = _resolve_out(args.out)
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
    print(f"wrote {out_dir / 'eval_summary.csv'}")
    return 0


# ---------------------------------------------------------------------------
# experiment


SPEC_KEYS = ("format", "version", "dataset", "noise", "train", "methods", "seeds", "out", "eval")
METHOD_KEYS = ("name", "loss_kind", "lambda", "score", "k")
DATASET_FILE_KEYS = ("train_csv", "id_test_csv", "ood_csvs")


def plan_experiment(spec, source: str) -> list[dict]:
    """Check a spec and resolve it into its cells; messages start with ``source``.

    Unknown keys (top level, ``noise``, ``eval``, each method), a ``noise_rate``
    in ``dataset`` or a ``seed`` in ``train`` (the runner sets both), repeated
    or non-integer seeds, a mistyped or missing dataset file, two OOD files
    with one stem, a partial file set, and generator keys or ``noise`` beside
    the files are errors, not silent defaults.  So are a method name that is
    not one path component, and a bad ``k``, ``eval.tpr``, ``out`` or train
    config, which would only fail once cells run.  Returns one cell per
    (method, seed), method-major: ``name``, ``seed``, ``config`` (``train`` <-
    the method's ``loss_kind``/``lambda`` <- the seed, through
    :func:`build_train_config`), ``score``, ``k`` and ``tpr``."""
    if not isinstance(spec, dict):
        raise ValueError(f"{source}: experiment spec must be a JSON object")
    methods = spec.get("methods", [])
    seeds = spec.get("seeds", [])
    if not isinstance(methods, list) or not isinstance(seeds, list):
        raise ValueError(f"{source}: methods and seeds must be JSON lists")
    sections = [spec.get(key, {}) for key in ("dataset", "noise", "train", "eval")]
    if not all(isinstance(doc, dict) for doc in [*sections, *methods]):
        raise ValueError(f"{source}: dataset, noise, train, eval and each method must be objects")
    dataset, noise, train, eval_doc = sections
    for where, doc, allowed in (
        ("spec", spec, SPEC_KEYS),
        ("noise", noise, ("rate",)),
        ("eval", eval_doc, ("tpr",)),
    ):
        unknown = sorted(set(doc) - set(allowed))
        if unknown:
            raise ValueError(f"{source}: unknown {where} keys: {', '.join(unknown)}")
    if not methods or not seeds:
        raise ValueError(f"{source}: need at least one method and one seed")
    if any(type(s) is not int for s in seeds) or len(set(seeds)) != len(seeds):
        raise ValueError(f"{source}: seeds must be distinct integers, got {seeds}")
    names = [m.get("name") for m in methods]
    for name in names:
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(
                f"{source}: a method name must be one path component (a non-empty string "
                f"without / or \\, not . or ..), got {name!r}"
            )
    if len(set(names)) != len(names):
        raise ValueError(f"{source}: every method needs a unique name")
    methods = [{"score": EVAL_DEFAULTS["score"], "k": EVAL_DEFAULTS["k"], **m} for m in methods]
    for m in methods:
        extra = sorted(set(m) - set(METHOD_KEYS))
        if extra:
            raise ValueError(f"{source}: method {m['name']!r} has unknown keys: {', '.join(extra)}")
        if m["score"] not in SCORE_KINDS:
            raise ValueError(f"{source}: method {m['name']!r} has unknown score kind")
        if type(m["k"]) is not int or m["k"] < 1:
            raise ValueError(f"{source}: method {m['name']!r} needs an integer k >= 1, got {m['k']!r}")
    tpr = eval_doc.get("tpr", EVAL_DEFAULTS["tpr"])
    if type(tpr) not in (int, float) or not 0.0 < tpr <= 1.0:
        raise ValueError(f"{source}: eval.tpr must be a number in (0, 1], got {tpr!r}")
    if problem := type_problem("noise.rate", noise.get("rate", 0.0), 0.0):
        raise ValueError(f"{source}: {problem}")
    out = spec.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"{source}: out must be a directory path string, got {out!r}")
    if "noise_rate" in dataset:
        raise ValueError(f"{source}: the noise rate belongs in noise.rate, not dataset")
    if "seed" in train:
        raise ValueError(f"{source}: the training seeds belong in seeds, not train")
    files = [dataset[k] for k in ("train_csv", "id_test_csv") if k in dataset]
    ood_csvs = dataset.get("ood_csvs", [])
    if "ood_csvs" in dataset and (not isinstance(ood_csvs, list) or not ood_csvs):
        raise ValueError(f"{source}: dataset.ood_csvs must be a non-empty list, got {ood_csvs!r}")
    for file in [*files, *ood_csvs]:
        if not isinstance(file, str):
            raise ValueError(f"{source}: a dataset file must be a path string, got {file!r}")
        if not Path(file).exists():
            raise FileNotFoundError(f"{source}: dataset file missing: {file}")
    _check_report_names(ood_csvs, f"{source}: ood_csvs")
    given = [k for k in DATASET_FILE_KEYS if k in dataset]
    missing = [k for k in DATASET_FILE_KEYS if k not in dataset]
    if given and missing:
        raise ValueError(f"{source}: dataset gives {', '.join(given)} but not {', '.join(missing)}")
    ignored = sorted(set(dataset) - set(DATASET_FILE_KEYS)) + (["noise"] if noise else [])
    if given and ignored:
        raise ValueError(f"{source}: dataset files are given, so {', '.join(ignored)} would be ignored")

    cells = []
    for m in methods:
        overrides = {key: m[key] for key in ("loss_kind", "lambda") if key in m}
        try:
            configs = [build_train_config(train, {**overrides, "seed": seed}) for seed in seeds]
        except ValueError as exc:
            raise ValueError(f"{source}: method {m['name']!r}: {exc}") from exc
        resolved = {"name": m["name"], "score": m["score"], "k": m["k"], "tpr": float(tpr)}
        cells += [dict(resolved, seed=seed, config=config) for seed, config in zip(seeds, configs)]
    return cells


def load_experiment_spec(path: Path) -> dict:
    spec = read_json(path)
    plan_experiment(spec, str(path))
    return spec


def _run_cell(cell: dict) -> dict:
    """One planned cell: train then eval into its ``run_dir``. Runs in a worker
    process when threads > 1, so it takes and returns plain picklable dicts."""
    try:
        run_dir = Path(cell["run_dir"])
        run_training(Path(cell["train_csv"]), cell["config"], run_dir)
        summary = run_eval(
            run_dir / "checkpoint.json",
            run_dir / "store",
            Path(cell["id_test_csv"]),
            [Path(p) for p in cell["ood_csvs"]],
            cell["score"],
            cell["k"],
            cell["tpr"],
            cell["seed"],
            run_dir,
        )
        return {"ok": True, "summary": summary}
    except Exception as exc:  # cell failures must not kill the sweep
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def run_experiment(spec: dict, spec_file: str, out_dir: Path, threads: int) -> dict:
    """Run every (method, seed) cell of ``spec`` and return the comparison.

    The spec is planned first (``spec_file`` names it in error messages and
    in ``comparison.json``).  Data is a function of the seed alone, so it is
    generated once per seed into ``data/seed<s>/`` (or taken from the spec's
    files) and shared by all methods.  Each cell trains and evaluates into
    ``runs/<method>/seed<s>/``; a failing cell is recorded under ``failures``
    and does not stop the sweep.  With ``threads`` > 1 the cells run in that
    many worker processes, and every output is byte-identical to a serial run.
    The comparison is also written to ``comparison.json`` and ``.csv``."""
    cells = plan_experiment(spec, spec_file)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    dataset = spec.get("dataset", {})

    data_files: dict[int, dict] = {}
    for seed in spec["seeds"]:
        if "train_csv" in dataset:
            data_files[seed] = {key: dataset[key] for key in DATASET_FILE_KEYS}
            continue
        gen_params = dict(dataset, noise_rate=float(spec.get("noise", {}).get("rate", 0.0)))
        manifest = generate_dataset_files(out_dir / "data" / f"seed{seed}", seed, **gen_params)
        paths = {p.stem: p for p, _ in manifest}
        data_files[seed] = {
            "train_csv": str(paths["train"]),
            "id_test_csv": str(paths["test_id"]),
            "ood_csvs": [str(p) for name, p in sorted(paths.items()) if name.startswith("ood_")],
        }

    for cell in cells:
        run_dir = out_dir / "runs" / cell["name"] / f"seed{cell['seed']}"
        cell.update(data_files[cell["seed"]], run_dir=str(run_dir))
    if threads > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(cell) for cell in cells]

    rows, by_method = [], {}
    for name in [method["name"] for method in spec["methods"]]:
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
    write_rows(
        out_dir / "comparison.csv",
        COMPARISON_CSV_HEADER,
        [[row[key] for key in COMPARISON_CSV_HEADER.split(",")] for row in rows],
    )
    return comparison


def cmd_experiment(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    spec = load_experiment_spec(spec_path)
    out_dir = Path(args.out) if args.out else Path(spec.get("out") or _require_out())
    threads = _env_threads() if args.threads is None else args.threads
    comparison = run_experiment(spec, spec_path.name, out_dir, threads)

    failures = sum(row["failures"] for row in comparison["rows"])
    for row in comparison["rows"]:
        print(
            f"{row['method']}: fpr95={row['fpr95_mean']:.4f}±{row['fpr95_std']:.4f} "
            f"auroc={row['auroc_mean']:.4f}±{row['auroc_std']:.4f} "
            f"id_acc={row['id_acc_mean']:.4f} ({row['seeds']} seeds, {row['failures']} failures)"
        )
    if failures:
        print(f"WARNING: {failures} cell(s) failed; see comparison.json", file=sys.stderr)
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _require_out() -> str:
    out = os.environ.get("NOODLE_OUT")
    if not out:
        raise ValueError("no output directory: pass --out or set NOODLE_OUT")
    return out


def _env_threads() -> int:
    raw = os.environ.get("NOODLE_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NOODLE_THREADS must be an integer, got {raw!r}") from None


def _resolve_out(flag_value: str | None) -> Path:
    return Path(flag_value if flag_value else _require_out())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noodle",
        description="Noise-robust out-of-distribution detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write synthetic ID/OOD CSV files")
    g.add_argument("--out", help="output directory (or NOODLE_OUT)")
    g.add_argument("--seed", type=int, default=0)
    for key, default in GEN_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if key == "ood_modes":
            g.add_argument(flag, default=",".join(default), help=f"comma-separated subset of {OOD_MODES}")
        else:
            g.add_argument(flag, type=type(default), default=default)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and build the reference store")
    t.add_argument("--data", required=True, help="training CSV")
    t.add_argument("--out", help="output directory (or NOODLE_OUT)")
    t.add_argument("--config", help="JSON file of train-config keys")
    for flag, (key, options) in TRAIN_FLAGS.items():
        t.add_argument(flag, dest=key, **options)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score ID/OOD files and emit reports")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--store", required=True, help="store base path (without .csv)")
    e.add_argument("--id-test", required=True)
    e.add_argument("--ood", action="append", required=True, help="repeatable OOD CSV path")
    e.add_argument("--score", choices=SCORE_KINDS, default=EVAL_DEFAULTS["score"])
    e.add_argument("--k", type=int, default=EVAL_DEFAULTS["k"])
    e.add_argument("--tpr", type=float, default=EVAL_DEFAULTS["tpr"])
    e.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    e.add_argument("--out", help="output directory (or NOODLE_OUT)")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("experiment", help="run a (method x seed) sweep from a JSON spec")
    x.add_argument("--spec", required=True)
    x.add_argument("--out", help="overrides the spec's output directory")
    x.add_argument("--threads", type=int, help="parallel cells (or NOODLE_THREADS)")
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
