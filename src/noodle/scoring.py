"""Reference-embedding store and OOD scoring functions.

All scores follow the convention *higher = more in-distribution*; the
detection rule is ``ID iff score >= tau`` with an inclusive boundary.  The
primary score is the k-th nearest neighbor distance on unit-normalized
embeddings; Mahalanobis, max-softmax, and energy scores are provided as
baselines.  Neighbor search is exact: scores equal a brute-force full sort.

The store's class means and shared precision are a pure function of its unit
rows and labels.  They are derived from those rows when the store is built
and again when it is loaded, so a saved store is one CSV of its rows.  The
checkpoint trained with a store records its checksum (see ``cli.run_eval``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .decompose import normalize_columns
from .files import read_table, write_table

SCORE_KINDS = ("knn", "mahalanobis", "msp", "energy")

DEFAULT_KNN_K = 50
# Ridge strength of the shared covariance, relative to its mean eigenvalue.
COV_REG = 1e-3

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


def _statistics(
    embeddings: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The class means of the unit ``embeddings`` rows and the shared precision
    of their pooled within-class covariance ``S``, inverted as
    ``S + COV_REG * (tr S / latent_dim) * I`` (a scale-free ridge) and
    symmetrized.  Every class in ``[0, num_classes)`` must have a row, and
    there must be at least ``num_classes + 1`` rows."""
    if (labels < 0).any():
        raise ValueError("labels must be nonnegative")
    n, dim = embeddings.shape
    if n < num_classes + 1:
        raise ValueError(f"need at least {num_classes + 1} usable samples, got {n}")
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
    precision = np.linalg.inv(cov + COV_REG * scale * np.eye(dim))
    # Symmetrize away inversion round-off so the precision is exactly symmetric.
    return class_means, (precision + precision.T) / 2.0


def build_store(id_latents: np.ndarray, labels: np.ndarray) -> EmbeddingStore:
    """Build the reference store from cleaned training latents.

    Args:
        id_latents: (latent_dim, n) matrix, one training sample per column
            (the in-subspace part of the training features).
        labels: length-n integer labels; every class in [0, max+1) must occur.

    Samples whose latent column has a zero norm (dead ReLU paths) or a norm
    that is not finite (it overflows) cannot live on the unit sphere and are
    dropped, silently: ``n - len(store)`` counts them.  The remaining rows
    must cover every class.  The class means and shared precision are derived
    from those rows, as :func:`load_store` derives them again from the saved
    rows.

    Raises:
        ValueError: on a negative label, an empty class or fewer than
            num_classes + 1 samples after the degenerate drop.
    """
    id_latents = np.asarray(id_latents, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if id_latents.ndim != 2 or labels.shape != (id_latents.shape[1],):
        raise ValueError("need (latent_dim, n) latents and n labels")
    num_classes = int(labels.max()) + 1
    # An overflowing norm is dropped below, so its overflow is no news.
    with np.errstate(over="ignore", invalid="ignore"):
        normalized, norms = normalize_columns(id_latents)
    alive = (norms > 0) & np.isfinite(norms)
    embeddings, labels = normalized.T[alive], labels[alive]
    class_means, precision = _statistics(embeddings, labels, num_classes)
    store = EmbeddingStore(embeddings, labels, class_means, precision)
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
# Persistence: <base>.csv holds labels + embeddings, the whole store; the
# statistics are derived from it.


def save_store(store: EmbeddingStore, base_path: str | os.PathLike) -> None:
    write_table(os.fspath(base_path) + ".csv", ("label",), "e", (store.labels,), store.embeddings)


def load_store(base_path: str | os.PathLike) -> EmbeddingStore:
    """Inverse of :func:`save_store`: the rows come from ``<base>.csv`` and the
    statistics are derived from them as :func:`build_store` derives them."""
    path = os.fspath(base_path) + ".csv"
    (labels,), embeddings = read_table(path, ("label",), "e")
    try:
        class_means, precision = _statistics(embeddings, labels, int(labels.max()) + 1)
        store = EmbeddingStore(embeddings, labels, class_means, precision)
        store.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return store
