"""Which noodle functions are traced, where, and how spans become metrics.

Every layer is named ``<module>.<function>`` after the module that defines
it; its sites are the modules whose globals the callers read (the package's
own callers plus the benchmark's workloads, which call through module
attributes so the same wrappers see them).
"""

from __future__ import annotations

import statistics

from spans import Site, Span, self_times


def _sites(origin: str, attr: str, *callers: str) -> list[Site]:
    return [Site(caller, attr, origin) for caller in callers]


def _clipped(args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return {"clipped": int(result > max_norm)}


def _dropped(args, kwargs, result):
    id_latents = args[0] if args else kwargs["id_latents"]
    return {"dropped": int(id_latents.shape[1] - len(result))}


def _rows(args, kwargs, result):
    return {"rows": int(len(result))}


def _lam(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"lam": float(config.lam)}


def _score_kind(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return f"scoring.batch_scores.{kind}"


def _score_attrs(args, kwargs, result):
    kind = args[0] if args else kwargs["kind"]
    store = args[1] if len(args) > 1 else kwargs["store"]
    queries = int(len(result))
    attrs = {"queries": queries}
    if kind == "knn":
        # Bytes the brute-force search reads, computed from array sizes
        # (every query touches every store row once; cache effects ignored).
        attrs["bytes"] = queries * len(store) * store.latent_dim * 8
    return attrs


# (span name, sites, attribute extractor); span names may depend on arguments.
LAYERS = [
    ("linalg.approx_topk_singular_vectors",
     _sites("noodle.linalg", "approx_topk_singular_vectors", "noodle.decompose"), None),
    ("linalg.qr_thin", _sites("noodle.linalg", "qr_thin", "noodle.linalg"), None),
    ("decompose.split_features", _sites("noodle.decompose", "split_features", "noodle.trainer"), None),
    ("decompose.grad_through_split",
     _sites("noodle.decompose", "grad_through_split", "noodle.trainer"), None),
    ("losses.classification_loss",
     _sites("noodle.losses", "classification_loss", "noodle.trainer"), None),
    ("losses.sparsity_loss", _sites("noodle.losses", "sparsity_loss", "noodle.trainer"), None),
    ("losses.joint_loss", _sites("noodle.losses", "joint_loss", "noodle.trainer"), None),
    ("model.forward", _sites("noodle.model", "forward", "noodle.trainer", "noodle.cli", "noodle.model"), None),
    ("model.backward", _sites("noodle.model", "backward", "noodle.trainer"), None),
    ("model.sgd_step", _sites("noodle.model", "sgd_step", "noodle.trainer"), None),
    ("model.clip_global_norm", _sites("noodle.model", "clip_global_norm", "noodle.trainer"), _clipped),
    ("model.save_checkpoint", _sites("noodle.model", "save_checkpoint", "noodle.cli"), None),
    ("model.load_checkpoint", _sites("noodle.model", "load_checkpoint", "noodle.cli"), None),
    ("trainer.train", _sites("noodle.trainer", "train", "noodle.cli", "noodle.trainer"), _lam),
    ("trainer.extract_reference_store",
     _sites("noodle.trainer", "extract_reference_store", "noodle.trainer"), None),
    (_score_kind, _sites("noodle.scoring", "batch_scores", "noodle.cli", "noodle.scoring"), _score_attrs),
    ("scoring.build_store", _sites("noodle.scoring", "build_store", "noodle.trainer"), _dropped),
    ("scoring.save_store", _sites("noodle.scoring", "save_store", "noodle.cli"), None),
    ("scoring.load_store", _sites("noodle.scoring", "load_store", "noodle.cli"), None),
    ("datagen.load_features_csv",
     _sites("noodle.datagen", "load_features_csv", "noodle.cli", "noodle.datagen"), _rows),
    ("datagen.load_ood_csv", _sites("noodle.datagen", "load_ood_csv", "noodle.cli", "noodle.datagen"), _rows),
    ("datagen.save_features_csv", _sites("noodle.datagen", "save_features_csv", "noodle.cli"), None),
    ("datagen.save_ood_csv", _sites("noodle.datagen", "save_ood_csv", "noodle.cli"), None),
    ("metrics.make_report", _sites("noodle.metrics", "make_report", "noodle.cli", "noodle.metrics"), None),
    ("metrics.emit_report", _sites("noodle.metrics", "emit_report", "noodle.cli"), None),
    ("cli.generate_dataset_files", _sites("noodle.cli", "generate_dataset_files", "noodle.cli"), None),
    ("cli.run_training", _sites("noodle.cli", "run_training", "noodle.cli"), None),
    ("cli.run_eval", _sites("noodle.cli", "run_eval", "noodle.cli"), None),
]

# Layers that write or parse CSV/JSON files; their self time is the I/O share.
IO_LAYERS = (
    "datagen.load_features_csv", "datagen.load_ood_csv", "datagen.save_features_csv",
    "datagen.save_ood_csv", "model.save_checkpoint", "model.load_checkpoint",
    "scoring.save_store", "scoring.load_store", "metrics.emit_report",
)

MODULES = ("linalg", "decompose", "losses", "model", "trainer", "scoring", "datagen", "metrics", "cli")

_TRAINING = (
    "linalg.approx_topk_singular_vectors", "linalg.qr_thin", "decompose.split_features",
    "decompose.grad_through_split", "losses.classification_loss", "losses.sparsity_loss",
    "losses.joint_loss", "model.forward", "model.backward", "model.sgd_step",
    "model.clip_global_norm", "trainer.train", "trainer.extract_reference_store",
    "scoring.build_store",
)
_EVAL = ("model.forward", "scoring.batch_scores.knn", "datagen.load_features_csv",
         "datagen.load_ood_csv", "metrics.make_report")
_FILES = ("cli.run_eval", "model.load_checkpoint", "scoring.load_store", "metrics.emit_report")

# A traced run fails if any of these records zero calls: a refactor that
# moves a lookup must move the site too, not silently zero the layer.
EXPECTED = {
    "protocol_cm": _TRAINING + _EVAL,
    "sweep_cli": _TRAINING + _EVAL + _FILES + (
        "cli.generate_dataset_files", "cli.run_training", "model.save_checkpoint",
        "scoring.save_store", "datagen.save_features_csv", "datagen.save_ood_csv",
    ),
    "eval_store": _EVAL + _FILES + (
        "scoring.batch_scores.mahalanobis", "scoring.batch_scores.msp", "scoring.batch_scores.energy",
    ),
}

SCORE_KINDS = ("knn", "mahalanobis", "msp", "energy")

# The per-layer metrics a traced run prints, with units.
PER_LAYER = [
    ("linalg.approx_topk_singular_vectors.calls", "count"),
    ("linalg.approx_topk_singular_vectors.self_s", "s"),
    ("linalg.qr_thin.calls", "count"),
    ("linalg.qr_thin.self_s", "s"),
    ("decompose.split_features.calls", "count"),
    ("decompose.split_features.self_s", "s"),
    ("decompose.split_features.useful_frac", "frac"),
    ("decompose.grad_through_split.self_s", "s"),
    ("losses.classification_loss.self_s", "s"),
    ("losses.sparsity_loss.self_s", "s"),
    ("losses.joint_loss.self_s", "s"),
    ("model.forward.self_s", "s"),
    ("model.backward.self_s", "s"),
    ("model.sgd_step.self_s", "s"),
    ("model.clip_global_norm.self_s", "s"),
    ("model.clip_global_norm.clipped", "count"),
    ("model.save_checkpoint.s", "s"),
    ("model.load_checkpoint.s", "s"),
    ("trainer.train.self_s", "s"),
    ("trainer.extract_reference_store.s", "s"),
    *[(f"scoring.batch_scores.{k}.{m}", u) for k in SCORE_KINDS for m, u in (("s", "s"), ("queries", "count"))],
    ("scoring.knn.bytes_computed", "bytes"),
    ("scoring.build_store.s", "s"),
    ("scoring.build_store.dropped", "count"),
    ("scoring.save_store.s", "s"),
    ("scoring.load_store.s", "s"),
    ("datagen.load_features_csv.s", "s"),
    ("datagen.load_features_csv.rows", "count"),
    ("datagen.load_ood_csv.s", "s"),
    ("datagen.load_ood_csv.rows", "count"),
    ("datagen.save_features_csv.s", "s"),
    ("datagen.save_ood_csv.s", "s"),
    ("cli.generate_dataset_files.s", "s"),
    ("metrics.make_report.s", "s"),
    ("metrics.emit_report.s", "s"),
    ("cli.run_training.s", "s"),
    ("cli.run_eval.s", "s"),
    ("cli.pool_efficiency", "frac"),
    *[(f"share.{m}.self_frac", "frac") for m in (*MODULES, "io", "untraced")],
    ("trace.op_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("ops_failed_frac", "frac"),
]


def _useful(span: Span, by_id: dict[int, Span]) -> bool:
    """A split is wasted when the nearest training caller runs with lam == 0;
    splits made for the reference store are always used."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == "trainer.extract_reference_store":
            return True
        if parent.name == "trainer.train":
            return parent.attrs.get("lam", 1.0) > 0.0
        parent = by_id.get(parent.parent)
    return True


def summarize_op(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer numbers for one traced operation (the spans under ``root``)."""
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    useful = 0
    for sp in spans:
        if sp.id == root.id:
            continue
        add(f"{sp.name}.calls", 1)
        add(f"{sp.name}.s", sp.duration)
        add(f"{sp.name}.self_s", selfs[sp.id])
        add(f"share.{sp.name.split('.')[0]}.self_frac", selfs[sp.id] / root.duration)
        if sp.name in IO_LAYERS:
            add("share.io.self_frac", selfs[sp.id] / root.duration)
        for key, value in sp.attrs.items():
            if key == "bytes":
                add("scoring.knn.bytes_computed", value)
            elif key != "lam":
                add(f"{sp.name}.{key}", value)
        if sp.name == "decompose.split_features" and _useful(sp, by_id):
            useful += 1
    splits = out.get("decompose.split_features.calls", 0)
    out["decompose.split_features.useful_frac"] = useful / splits if splits else 0.0
    out["share.untraced.self_frac"] = selfs[root.id] / root.duration
    out["trace.op_s"] = root.duration
    return out


def per_layer_metrics(op_summaries: list[dict[str, float]], extra: dict[str, float]) -> dict:
    """Median over traced operations of each listed metric; absent layers are 0."""
    metrics = {}
    for name, unit in PER_LAYER:
        if name in extra:
            value = extra[name]
        else:
            value = statistics.median(s.get(name, 0.0) for s in op_summaries)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def missing_layers(workload: str, op_summaries: list[dict[str, float]]) -> list[str]:
    """Expected layers that recorded no call in some traced operation."""
    return sorted(
        {name for name in EXPECTED[workload] for s in op_summaries if not s.get(f"{name}.calls")}
    )
