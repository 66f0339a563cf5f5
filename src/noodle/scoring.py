"""Reference-embedding store and OOD scoring functions.

All scores follow the convention *higher = more in-distribution*; the
detection rule is ``ID iff score >= tau`` with an inclusive boundary.  The
primary score is the k-th nearest neighbor distance on unit-normalized
embeddings; Mahalanobis, max-softmax, and energy scores are provided as
baselines.  Neighbor search is exact brute force, which at the store sizes
this package targets is both the fastest correct option and oracle-free.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .decompose import normalize_columns
from .files import read_json, read_table, write_json, write_table

SCORE_KINDS = ("knn", "mahalanobis", "msp", "energy")

STORE_FORMAT = "noodle-store"

DEFAULT_KNN_K = 50
DEFAULT_COV_REG = 1e-3

# A zero-latent query cannot be placed on the unit sphere; it is scored at the
# sphere's diameter, i.e. farther than any real embedding can be.
ZERO_QUERY_SCORE = -2.0


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
    on the unit sphere and are dropped with a warning; the remaining rows
    must still cover every class.

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
    if not alive.all():
        warnings.warn(
            f"dropping {int((~alive).sum())} zero-norm latent sample(s) from the store",
            RuntimeWarning,
            stacklevel=2,
        )
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

    store = EmbeddingStore(embeddings, labels, class_means, precision, dict(meta or {}))
    store.validate()
    return store


def _normalize_query(query: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    query = np.asarray(query, dtype=float).reshape(-1)
    if query.shape != (dim,):
        raise ValueError(f"query must have length {dim}, got {query.shape}")
    norm = float(np.linalg.norm(query))
    if norm <= 1e-12:
        return query, True
    return query / norm, False


def knn_score(store: EmbeddingStore, query_latent: np.ndarray, k: int = DEFAULT_KNN_K) -> float:
    """Negated distance from the normalized query to its k-th nearest
    reference embedding (exact brute-force search).

    ``k`` is clamped to the store size.  A zero-norm query is degenerate and
    scores ``ZERO_QUERY_SCORE`` (= -2, the unit-sphere diameter).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(store) == 0:
        raise ValueError("empty store")
    unit, degenerate = _normalize_query(query_latent, store.latent_dim)
    if degenerate:
        return ZERO_QUERY_SCORE
    distances = np.linalg.norm(store.embeddings - unit, axis=1)
    kth = min(k, distances.size) - 1
    return -float(np.partition(distances, kth)[kth])


def mahalanobis_score(store: EmbeddingStore, query_latent: np.ndarray) -> float:
    """Negated minimum class-conditional squared Mahalanobis distance of the
    normalized query under the shared precision."""
    unit, degenerate = _normalize_query(query_latent, store.latent_dim)
    if degenerate:
        unit = np.asarray(query_latent, dtype=float).reshape(-1)
    diffs = store.class_means - unit
    forms = np.einsum("ij,jk,ik->i", diffs, store.shared_precision, diffs)
    return -float(forms.min())


def msp_score(probs: np.ndarray) -> float:
    """Maximum softmax probability of one column."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError("probs must be a valid distribution")
    return float(probs.max())


def energy_score(logits: np.ndarray) -> float:
    """Stable log-sum-exp of one logit column."""
    logits = np.asarray(logits, dtype=float).reshape(-1)
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    m = float(logits.max())
    return m + float(np.log(np.exp(logits - m).sum()))


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
    output-based scores ignore the store.  Delegates to the single-query
    functions so batch and single paths cannot drift apart.
    """
    if kind == "knn":
        return np.array([knn_score(store, col, k) for col in latents.T])
    if kind == "mahalanobis":
        return np.array([mahalanobis_score(store, col) for col in latents.T])
    if kind == "msp":
        return np.array([msp_score(col) for col in probs.T])
    if kind == "energy":
        return np.array([energy_score(col) for col in logits.T])
    raise ValueError(f"unknown score kind {kind!r}; expected one of {SCORE_KINDS}")


def select_threshold(id_scores: np.ndarray, tpr: float = 0.95) -> float:
    """Largest threshold keeping at least ``ceil(tpr * n)`` ID scores at or
    above it; equivalently the ``ceil(tpr * n)``-th largest ID score.

    The achieved TPR on the same scores is therefore >= ``tpr`` under the
    inclusive decision rule.
    """
    scores = np.asarray(id_scores, dtype=float).reshape(-1)
    if scores.size == 0:
        raise ValueError("cannot select a threshold from an empty score set")
    if not 0.0 < tpr <= 1.0:
        raise ValueError(f"tpr must be in (0, 1], got {tpr}")
    n = scores.size
    # Guard the ceiling against float noise in tpr * n (e.g. 0.95 * 60).
    m = int(np.ceil(tpr * n - 1e-9))
    m = min(max(m, 1), n)
    return float(np.partition(scores, n - m)[n - m])


def detect(score, tau: float):
    """Inclusive decision rule: ID iff ``score >= tau``.

    Accepts a scalar (returns bool) or an array (returns a bool array).
    """
    arr = np.asarray(score, dtype=float)
    result = arr >= tau
    return bool(result) if arr.ndim == 0 else result


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
