"""Per-batch low-rank/sparse split of latent feature matrices.

A batch of latents ``(latent_dim, batch)`` is column-normalized, a rank-k
orthonormal basis of the dominant subspace is estimated by randomized power
iteration, and the matrix is split into the in-subspace part and the residual:

    id_part = Q Q^T normalized,   ood_part = normalized - id_part.

Normalizing puts every sample's residual column on one scale for the
column-sparse L2,1 penalty, the column-outlier model of Outlier Pursuit
(Xu, Caramanis & Sanghavi 2010); it is not optional.

The basis is a *constant* of the backward pass (stop-gradient): regularizer
gradients flow through the projector and the column normalization, never
through the power iteration or QR.  Differentiating the iteration itself is
ill-conditioned near repeated singular values and buys nothing at the scale
this is used; the projector-with-frozen-Q gradient is the documented contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import approx_topk_singular_vectors

NORM_EPS = 1e-12


@dataclass
class FeatureSplit:
    """Outcome of one decomposition.

    ``col_norms[j] == 0`` flags a degenerate column that was passed through
    normalization unscaled.
    """

    basis: np.ndarray        # (latent_dim, k_rank), orthonormal columns
    id_part: np.ndarray      # (latent_dim, batch)
    ood_part: np.ndarray     # (latent_dim, batch)
    normalized: np.ndarray   # the column-normalized matrix that was split
    col_norms: np.ndarray    # (batch,), each column's norm before scaling


def usable_columns(norms: np.ndarray) -> np.ndarray:
    """The one rule for which columns the unit sphere can hold: a finite norm above
    ``NORM_EPS``.  Raw norms and :func:`normalize_columns`' recorded ones agree."""
    return (norms > NORM_EPS) & np.isfinite(norms)


def normalize_columns(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each column to unit Euclidean norm.

    Columns with norm <= ``NORM_EPS`` cannot be meaningfully normalized; they are
    passed through unchanged and their recorded norm is set to 0 so callers
    can treat them specially (the gradient pullback becomes the identity).  A
    norm that overflows is recorded as it is, without a floating-point warning.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(h, axis=0)
        degenerate = norms <= NORM_EPS
        out_norms = np.where(degenerate, 0.0, norms)
        scaled = h / np.where(degenerate, 1.0, norms)
    return scaled, out_norms


def split_features(
    h: np.ndarray,
    k_rank: int,
    n_iter: int,
    rng: np.random.Generator,
) -> FeatureSplit:
    """Column-normalize latents and split them into a subspace part and a residual.

    Args:
        h: (latent_dim, batch) latent feature matrix, one sample per column.
        k_rank: target subspace dimension, >= 1; values above min(latent_dim, batch)
            are clamped (this happens on small final batches).
        n_iter: power-iteration sweeps, >= 1.
        rng: drives the random subspace initialization; the split is a
            deterministic function of (h, k_rank, n_iter, rng state).
    """
    normalized, norms = normalize_columns(h)
    # A batch narrower than k_rank (an epoch's last) is split at its own rank.
    k_rank = min(k_rank, *normalized.shape)
    basis = approx_topk_singular_vectors(normalized, k_rank, n_iter, rng)
    id_part = basis @ (basis.T @ normalized)
    return FeatureSplit(basis, id_part, normalized - id_part, normalized, norms)


def grad_through_split(split: FeatureSplit, grad_ood: np.ndarray) -> np.ndarray:
    """Gradient of a function of ``ood_part`` with respect to the raw latents.

    With the basis frozen, ``d ood_part / d normalized = I - Q Q^T``, so the
    incoming gradient is first projected off the subspace.  It is then pulled
    back through the column normalization ``h / r``: for a column with norm
    ``r > 0`` and unit direction ``u``, the Jacobian is ``(I - u u^T) / r``.
    Degenerate columns (recorded norm 0) were never scaled, so their gradient
    passes through unchanged.
    """
    grad_ood = np.asarray(grad_ood, dtype=float)
    if grad_ood.shape != split.ood_part.shape:
        raise ValueError(f"gradient shape {grad_ood.shape} != {split.ood_part.shape}")
    g = grad_ood - split.basis @ (split.basis.T @ grad_ood)
    scaled = split.col_norms > 0
    # For scaled columns `normalized` holds the unit directions.
    radial = (split.normalized * g).sum(axis=0)
    pulled = (g - split.normalized * radial) / np.where(scaled, split.col_norms, 1.0)
    return np.where(scaled, pulled, g)
