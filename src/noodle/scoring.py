"""Reference-embedding store and OOD scoring functions.

All scores follow the convention *higher = more in-distribution*; the
detection rule is ``ID iff score >= tau`` with an inclusive boundary.  The
primary score is the k-th nearest neighbor distance on unit-normalized
embeddings; Mahalanobis, max-softmax, and energy scores are provided as
baselines.  Neighbor search is exact: scores equal a brute-force full sort.

The store's class means and shared precision are a pure function of its unit
rows and labels.  ``EmbeddingStore`` derives them whenever a store is built
or loaded, so a saved store is one ``.npy`` file of its rows and labels.  The
checkpoint trained with a store records its checksum (see ``cli.run_eval``).
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, field

import numpy as np

from .decompose import normalize_columns, usable_columns
from .files import read_labeled_array, settle_fields, write_labeled_array
from .losses import check_distributions

SCORE_KINDS = ("knn", "mahalanobis", "msp", "energy")

DEFAULT_KNN_K = 50
# Ridge strength of the shared covariance, relative to its mean eigenvalue.
COV_REG = 1e-3

# A query latent that the unit sphere cannot hold (``decompose.usable_columns``:
# its norm is at most 1e-12 or overflows) is scored at the sphere's diameter,
# i.e. farther than any real embedding can be.  Under ``mahalanobis`` it scores
# ``-4 * λ_max(shared_precision)``: a unit query and a class mean (a mean of
# unit rows) are at most 2 apart, so no usable query scores below that.
ZERO_QUERY_SCORE = -2.0

# Queries are scored in chunks of about _CHUNK_BYTES of working memory.  kNN takes exact
# distances only for the rows whose Gram value lies within _GRAM_SLACK (far above its
# rounding error) of the k-th; a query with more than k + _KNN_EXTRA rows up to that band
# is recomputed against the whole store, which keeps a chunk's exact distances small.
_CHUNK_BYTES = 1 << 20
_KNN_EXTRA = 16
_GRAM_SLACK = 1e-12


@dataclass(frozen=True)
class EvalSpec:
    """How a run is scored: the kind, ``k`` (an integer >= 1 for every kind; ``knn``
    uses it) and the FPR threshold's TPR in (0, 1], a float.  Checked when built."""

    score: str = "knn"
    k: int = DEFAULT_KNN_K
    tpr: float = 0.95

    def __post_init__(self) -> None:
        if problems := settle_fields(self):
            raise ValueError(problems[0])
        if self.score not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.score!r}; expected one of {SCORE_KINDS}")
        if self.k < 1:
            raise ValueError(f"need an integer k >= 1, got {self.k!r}")
        if not 0.0 < self.tpr <= 1.0:
            raise ValueError(f"tpr must be a number in (0, 1], got {self.tpr!r}")


@dataclass
class EmbeddingStore:
    """The reference store of a ``num_classes``-class run: unit ``embeddings`` rows,
    their ``labels`` and the statistics the distance scores read.  Built only when
    every label lies in ``[0, num_classes)``, the rows meet :func:`check_store_rows`
    and each has unit norm, it derives the class means and the shared precision: the
    pooled within-class covariance ``S`` inverted as ``S + COV_REG * (tr S / latent_dim)
    * I`` (a scale-free ridge; ``COV_REG`` if that is below the smallest normal float,
    whose inverse would overflow), symmetrized."""

    embeddings: np.ndarray        # (n, latent_dim), unit rows
    labels: np.ndarray            # (n,) in [0, num_classes)
    num_classes: InitVar[int]
    class_means: np.ndarray = field(init=False)       # (num_classes, latent_dim), means of unit rows
    shared_precision: np.ndarray = field(init=False)  # (latent_dim, latent_dim)

    def __post_init__(self, num_classes: int) -> None:
        if (self.labels < 0).any():
            raise ValueError("labels must be nonnegative")
        if (self.labels >= num_classes).any():
            raise ValueError(f"labels must be below the class count {num_classes}, got {self.labels.max()}")
        check_store_rows(self.labels, num_classes)
        if not np.allclose(np.linalg.norm(self.embeddings, axis=1), 1.0, atol=1e-9):
            raise ValueError("store embeddings must have unit norm")
        n, dim = self.embeddings.shape
        self.class_means = np.empty((num_classes, dim))
        for c in range(num_classes):
            self.class_means[c] = self.embeddings[self.labels == c].mean(axis=0)

        centered = self.embeddings - self.class_means[self.labels]
        cov = (centered.T @ centered) / n
        ridge = COV_REG * (float(np.trace(cov)) / dim)
        if ridge < np.finfo(float).tiny:
            ridge = COV_REG
        precision = np.linalg.inv(cov + ridge * np.eye(dim))
        # Symmetrize away inversion round-off so the precision is exactly symmetric.
        self.shared_precision = (precision + precision.T) / 2.0

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.embeddings.shape[1]


def check_store_rows(labels: np.ndarray, num_classes: int) -> None:
    """The store's two row rules for ``labels`` in ``[0, num_classes)``: every class has
    a row (for its mean), and there are ``num_classes + 1`` rows or more (for the covariance)."""
    missing = np.flatnonzero(np.bincount(labels, minlength=num_classes) == 0)
    if missing.size:
        raise ValueError(f"no row for class(es) {', '.join(map(str, missing))}")
    if len(labels) < num_classes + 1:
        raise ValueError(f"need at least {num_classes + 1} rows for {num_classes} classes, got {len(labels)}")


def build_store(id_latents: np.ndarray, labels: np.ndarray, num_classes: int) -> EmbeddingStore:
    """Build the reference store of a ``num_classes``-class run from cleaned training latents.

    Args:
        id_latents: (latent_dim, n) matrix, one training sample per column
            (the in-subspace part of the training features).
        labels: length-n integer labels in [0, num_classes).
        num_classes: the run's class count K.

    Samples whose ``id_latents`` column has a norm at most ``NORM_EPS`` (as
    dead ReLU paths and latents off the split's span leave it) or one that
    overflows cannot live on the unit sphere (``decompose.usable_columns``) and
    are dropped, silently: ``n - len(store)`` counts them.  The remaining rows
    make the :class:`EmbeddingStore`.

    Raises:
        ValueError: on latents and labels of mismatched shapes, a label
            outside [0, num_classes), or remaining rows that break
            :func:`check_store_rows` (a class that the drop empties).
    """
    id_latents = np.asarray(id_latents, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if id_latents.ndim != 2 or labels.shape != (id_latents.shape[1],):
        raise ValueError("need (latent_dim, n) latents and n labels")
    normalized, norms = normalize_columns(id_latents)
    alive = usable_columns(norms)
    return EmbeddingStore(normalized.T[alive], labels[alive], num_classes)


def _chunks(count: int, bytes_per_query: int):
    width = max(1, _CHUNK_BYTES // bytes_per_query)
    return (slice(start, start + width) for start in range(0, count, width))


def _knn_scores(emb: np.ndarray, units: np.ndarray, k: int) -> np.ndarray:
    """Negated k-th smallest ``norm(e - u)`` over the rows ``e`` of ``emb`` for each unit
    column ``u``.  One product ``[u, 1] @ [-2e, |e|²]ᵀ`` gives the Gram form ``|e|² - 2 e·u``
    (``norm(e - u)² - 1``) to about 1e-14, far inside ``_GRAM_SLACK``.  So with ``g`` the
    k-th smallest Gram value, every row below ``g - slack`` is nearer than the k-th and every
    row above ``g + slack`` farther, and the k-th distance is the ``(k - below)``-th smallest
    exact distance over the rows in between.  A query with more than ``k + _KNN_EXTRA`` rows
    up to ``g + slack`` has many near-ties and is recomputed against the whole store."""
    n, dim = emb.shape
    kth, width = min(k, n) - 1, k + _KNN_EXTRA
    lifted = np.vstack([-2.0 * emb.T, np.einsum("ij,ij->i", emb, emb)])
    out = np.empty(units.shape[1])
    # A chunk's Gram values and their partitioned copy.
    for cols in _chunks(units.shape[1], 16 * n):
        u = units[:, cols].T
        gram = np.hstack([u, np.ones((len(u), 1))]) @ lifted
        nearest = np.partition(gram, kth, axis=1)
        g = nearest[:, kth, None]
        below = (nearest[:, :kth] < g - _GRAM_SLACK).sum(axis=1)
        band = (gram >= g - _GRAM_SLACK) & (gram <= g + _GRAM_SLACK)
        queries, rows = np.divmod(np.flatnonzero(band), n)
        counts = np.bincount(queries, minlength=len(u))
        # Many near-ties, or no k-th in the band at all (a NaN query).
        full = (below + counts > width) | (below + counts <= kth)
        queries, rows = queries[~full[queries]], rows[~full[queries]]
        counts[full] = 0
        # Summed as the rows of a C-ordered (rows, dim) array, the layout a
        # full sort reduces: other layouts add the coordinates in another order.
        distances = np.linalg.norm(np.subtract(emb[rows], u[queries], order="C"), axis=1)
        ranked = distances[np.lexsort((distances, queries))]
        scores = np.empty(len(u))
        scores[~full] = ranked[(np.cumsum(counts) - counts + kth - below)[~full]]
        for j in np.flatnonzero(full):
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
    Mahalanobis distance to a class mean.  Both normalize the query; one that
    ``decompose.usable_columns`` rejects scores ``ZERO_QUERY_SCORE`` under
    ``knn`` and ``-4 * λ_max(shared_precision)``, the least score a usable
    query can reach, under ``mahalanobis``.  ``msp`` is the top probability,
    ``energy`` log-sum-exp.
    """
    if kind in ("knn", "mahalanobis"):
        units, norms = normalize_columns(latents)
        if units.shape[0] != store.latent_dim:
            raise ValueError(f"latents must have {store.latent_dim} rows, got {units.shape[0]}")
    if kind == "knn":
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
        return np.where(usable_columns(norms), _knn_scores(store.embeddings, units, k), ZERO_QUERY_SCORE)
    if kind == "mahalanobis":
        out = np.empty(units.shape[1])
        for cols in _chunks(units.shape[1], 8 * store.class_means.size):
            diffs = store.class_means - units[:, cols].T[:, None, :]
            out[cols] = -np.einsum("qij,jk,qik->qi", diffs, store.shared_precision, diffs).min(1)
        floor = -4.0 * np.linalg.eigvalsh(store.shared_precision)[-1]
        return np.where(usable_columns(norms), out, floor)
    if kind == "msp":
        return check_distributions(probs).max(axis=0)
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
# Persistence: <base>.npy holds labels + embeddings, the whole store, as one
# labeled array (see ``files``); the statistics are derived from it.


def store_path(base_path: str | os.PathLike) -> str:
    """The file that holds the store saved under ``base_path``: ``<base>.npy``."""
    return os.fspath(base_path) + ".npy"


def save_store(store: EmbeddingStore, base_path: str | os.PathLike) -> None:
    write_labeled_array(store_path(base_path), store.labels, store.embeddings)


def load_store(base_path: str | os.PathLike) -> EmbeddingStore:
    """Inverse of :func:`save_store`: the rows of ``<base>.npy``, whose class
    count is their largest label plus one, the run's class count for every
    store that :class:`EmbeddingStore` admits, since each class has a row.

    Raises:
        ValueError: naming the file, when it is not a labeled array or its
            rows break a rule of :class:`EmbeddingStore`.
    """
    path = store_path(base_path)
    labels, embeddings = read_labeled_array(path)
    try:
        return EmbeddingStore(embeddings, labels, int(labels.max()) + 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
