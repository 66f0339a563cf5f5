"""Reference-embedding store and OOD scoring functions.

All scores follow the convention *higher = more in-distribution*; the
detection rule is ``ID iff score >= tau`` with an inclusive boundary.  The
primary score is the k-th nearest neighbor distance on unit-normalized
embeddings; Mahalanobis, max-softmax, and energy scores are provided as
baselines.  Neighbor search is exact: scores equal a brute-force full sort.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .decompose import normalize_columns
from .files import read_json, read_table, require_keys, write_json, write_table

SCORE_KINDS = ("knn", "mahalanobis", "msp", "energy")

STORE_FORMAT = "noodle-store"

DEFAULT_KNN_K = 50
DEFAULT_COV_REG = 1e-3

# A zero-latent query cannot be placed on the unit sphere; it is scored at the
# sphere's diameter, i.e. farther than any real embedding can be.
ZERO_QUERY_SCORE = -2.0

# Queries are scored in chunks of about _CHUNK_BYTES of working memory; kNN takes exact
# distances for k + _KNN_EXTRA candidates, picked with a slack far above rounding error.
_CHUNK_BYTES = 1 << 20
_KNN_EXTRA = 16
_GRAM_SLACK = 1e-12


@dataclass
class EmbeddingStore:
    """Immutable bundle of normalized ID reference embeddings and the
    statistics needed by the distance scores."""

    embeddings: np.ndarray        # (n, latent_dim), unit rows
    labels: np.ndarray            # (n,)
    class_means: np.ndarray       # (num_classes, latent_dim), means of unit rows
    shared_precision: np.ndarray  # (latent_dim, latent_dim)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]

    def validate(self) -> None:
        norms = np.linalg.norm(self.embeddings, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("store embeddings must have unit norm")
        p = self.shared_precision
        if not np.allclose(p, p.T, atol=1e-9):
            raise ValueError("shared precision must be symmetric")
        try:
            np.linalg.cholesky((p + p.T) / 2.0)
        except np.linalg.LinAlgError:
            raise ValueError("shared precision must be positive definite") from None


def build_store(
    id_latents: np.ndarray,
    labels: np.ndarray,
    cov_reg: float = DEFAULT_COV_REG,
    meta: dict | None = None,
) -> EmbeddingStore:
    """Build the reference store from cleaned training latents.

    Args:
        id_latents: (latent_dim, n) matrix, one training sample per column
            (the in-subspace part of the training features).
        labels: length-n integer labels; every class in [0, max+1) must occur.
        cov_reg: ridge strength; the pooled within-class covariance is
            regularized as ``S + cov_reg * (tr S / latent_dim) * I`` before
            inversion, which keeps the conditioning scale-free.
        meta: free-form provenance (encoder checksum, config hash).

    Samples whose latent column has zero norm (dead ReLU paths) cannot live
    on the unit sphere and are dropped and counted in
    ``meta["dropped_zero_norm"]``; the remaining rows must cover every class.

    Raises:
        ValueError: on an empty class or fewer than num_classes + 1 samples
            after the degenerate drop.
    """
    if cov_reg <= 0:
        raise ValueError(f"cov_reg must be positive, got {cov_reg}")
    id_latents = np.asarray(id_latents, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if id_latents.ndim != 2 or labels.shape != (id_latents.shape[1],):
        raise ValueError("need (latent_dim, n) latents and n labels")
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    num_classes = int(labels.max()) + 1

    normalized, norms = normalize_columns(id_latents)
    alive = norms > 0
    dropped = int((~alive).sum())
    embeddings = normalized.T[alive]
    labels = labels[alive]
    n = labels.size
    if n < num_classes + 1:
        raise ValueError(f"need at least {num_classes + 1} usable samples, got {n}")

    dim = embeddings.shape[1]
    class_means = np.empty((num_classes, dim))
    for c in range(num_classes):
        members = embeddings[labels == c]
        if members.shape[0] == 0:
            raise ValueError(f"class {c} has no samples")
        class_means[c] = members.mean(axis=0)

    centered = embeddings - class_means[labels]
    cov = (centered.T @ centered) / n
    trace = float(np.trace(cov))
    scale = trace / dim if trace > 0 else 1.0
    regularized = cov + cov_reg * scale * np.eye(dim)
    precision = np.linalg.inv(regularized)
    # Symmetrize away inversion round-off so the PD invariant is exact.
    precision = (precision + precision.T) / 2.0

    meta = {**(meta or {}), "dropped_zero_norm": dropped}
    store = EmbeddingStore(embeddings, labels, class_means, precision, meta)
    store.validate()
    return store


def _chunks(count: int, bytes_per_query: int):
    width = max(1, _CHUNK_BYTES // bytes_per_query)
    return (slice(start, start + width) for start in range(0, count, width))


def _knn_scores(emb: np.ndarray, units: np.ndarray, k: int) -> np.ndarray:
    """Negated k-th smallest ``norm(e - u)`` over the rows ``e`` of ``emb`` for each unit
    column ``u``.  The Gram form ``|e|² - 2 e·u`` (less the constant ``|u|²``) loses about
    1e-8 next to a duplicate row, so it only picks candidates; a query whose candidates all
    lie within ``_GRAM_SLACK`` of the k-th may have more near-ties and is recomputed."""
    n, dim = emb.shape
    kth, width = min(k, n) - 1, min(k + _KNN_EXTRA, n)
    sq_rows = np.einsum("ij,ij->i", emb, emb)
    out = np.empty(units.shape[1])
    for cols in _chunks(units.shape[1], 8 * (n + width * dim)):
        u = units[:, cols].T
        gram = sq_rows - 2.0 * (u @ emb.T)
        order = np.argpartition(gram, width - 1, axis=1)[:, :width]
        near = np.take_along_axis(gram, order, axis=1)
        bound = np.partition(near, kth, axis=1)[:, kth] + _GRAM_SLACK
        # Summed as the rows of a C-ordered (rows, dim) array, the layout a
        # full sort reduces: other layouts add the coordinates in another order.
        diffs = np.subtract(emb[order], u[:, None, :], order="C")
        distances = np.linalg.norm(diffs.reshape(-1, dim), axis=1).reshape(order.shape)
        scores = np.partition(distances, kth, axis=1)[:, kth]
        for j in np.flatnonzero(near.max(axis=1) <= bound) if width < n else ():
            scores[j] = np.partition(np.linalg.norm(emb - u[j], axis=1), kth)[kth]
        out[cols] = -scores
    return out


def batch_scores(
    kind: str,
    store: EmbeddingStore | None,
    latents: np.ndarray,
    probs: np.ndarray,
    logits: np.ndarray,
    k: int = DEFAULT_KNN_K,
) -> np.ndarray:
    """Score every column of a forward pass with the chosen score kind.

    ``latents``, ``probs``, ``logits`` are the column-oriented outputs of one
    model forward; the distance scores use ``latents`` plus the store, the
    output-based scores ignore the store.  ``knn``, the negated distance to
    the k-th nearest store embedding (``k`` clamped to the store size), equals
    a brute-force full sort; ``mahalanobis`` is the negated minimum squared
    Mahalanobis distance to a class mean.  Both normalize the query; a zero
    query scores ``ZERO_QUERY_SCORE`` under ``knn`` and is used raw under
    ``mahalanobis``.  ``msp`` is the top probability, ``energy`` log-sum-exp.
    """
    if kind in ("knn", "mahalanobis"):
        units, norms = normalize_columns(latents)
        if units.shape[0] != store.latent_dim:
            raise ValueError(f"latents must have {store.latent_dim} rows, got {units.shape[0]}")
    if kind == "knn":
        if k < 1 or len(store) == 0:
            raise ValueError(f"need k >= 1 and a non-empty store, got k={k}, {len(store)} rows")
        return np.where(norms > 0, _knn_scores(store.embeddings, units, k), ZERO_QUERY_SCORE)
    if kind == "mahalanobis":
        out = np.empty(units.shape[1])
        for cols in _chunks(units.shape[1], 8 * store.class_means.size):
            diffs = store.class_means - units[:, cols].T[:, None, :]
            out[cols] = -np.einsum("qij,jk,qik->qi", diffs, store.shared_precision, diffs).min(1)
        return out
    if kind == "msp":
        probs = np.asarray(probs, dtype=float)
        if (probs < 0).any() or not (np.abs(probs.sum(axis=0) - 1.0) <= 1e-6).all():
            raise ValueError("probs columns must be valid distributions")
        return probs.max(axis=0)
    if kind == "energy":
        # A contiguous row per query sums it in the order a lone column is summed.
        rows = np.ascontiguousarray(np.asarray(logits, dtype=float).T)
        if not np.isfinite(rows).all():
            raise ValueError("logits must be finite")
        m = rows.max(axis=1)
        return m + np.log(np.exp(rows - m[:, None]).sum(axis=1))
    raise ValueError(f"unknown score kind {kind!r}; expected one of {SCORE_KINDS}")


def reject_nan(scores: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``scores`` holds a NaN: a NaN has no place in a
    ranking, while ``±inf`` does and is accepted."""
    if np.isnan(scores).any():
        raise ValueError(f"{name} contains NaN")


def select_threshold(id_scores: np.ndarray, tpr: float = 0.95) -> float:
    """Largest threshold keeping at least ``ceil(tpr * n)`` ID scores at or
    above it; equivalently the ``ceil(tpr * n)``-th largest ID score.

    The achieved TPR on the same scores is therefore >= ``tpr`` under the
    inclusive decision rule.
    """
    scores = np.asarray(id_scores, dtype=float).reshape(-1)
    if scores.size == 0:
        raise ValueError("cannot select a threshold from an empty score set")
    reject_nan(scores, "id_scores")
    if not 0.0 < tpr <= 1.0:
        raise ValueError(f"tpr must be in (0, 1], got {tpr}")
    n = scores.size
    # Guard the ceiling against float noise in tpr * n (e.g. 0.95 * 60).
    m = int(np.ceil(tpr * n - 1e-9))
    m = min(max(m, 1), n)
    return float(np.partition(scores, n - m)[n - m])


# ---------------------------------------------------------------------------
# Persistence: <base>.csv holds labels + embeddings, <base>.json the rest.


def save_store(store: EmbeddingStore, base_path: str | os.PathLike) -> None:
    base = os.fspath(base_path)
    write_table(base + ".csv", ("label",), "e", (store.labels,), store.embeddings)
    doc = {
        "format": STORE_FORMAT,
        "version": 1,
        "latent_dim": store.latent_dim,
        "num_classes": store.num_classes,
        "class_means": store.class_means.tolist(),
        "shared_precision": store.shared_precision.tolist(),
        "meta": store.meta,
    }
    write_json(base + ".json", doc)


def load_store(base_path: str | os.PathLike) -> EmbeddingStore:
    base = os.fspath(base_path)
    doc = read_json(base + ".json")
    if doc.get("format") != STORE_FORMAT:
        raise ValueError(f"{base}.json: not a store sidecar")
    require_keys(doc, ("latent_dim", "class_means", "shared_precision"), base + ".json")
    (labels,), embeddings = read_table(base + ".csv", ("label",), "e")
    if embeddings.shape[1] != doc["latent_dim"]:
        raise ValueError(
            f"{base}.csv: embedding width {embeddings.shape[1]} != sidecar {doc['latent_dim']}"
        )
    store = EmbeddingStore(
        embeddings,
        labels,
        np.array(doc["class_means"], dtype=float),
        np.array(doc["shared_precision"], dtype=float),
        doc.get("meta", {}),
    )
    store.validate()
    return store
