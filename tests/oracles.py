"""Independent reference implementations used as test oracles.

Everything in this module recomputes an expected value by a different route
than the library (naive loops, full eigendecompositions, extended precision,
exhaustive scans), so agreement is evidence rather than tautology.  Oracles
deliberately favor clarity over speed; none of them is imported by package
code.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from noodle.losses import cross_entropy
from noodle.model import backward, clip_global_norm, forward, init_mlp, sgd_step, zero_grads_like
from noodle.trainer import GRAD_CLIP, LR, MOMENTUM, WEIGHT_DECAY, derive_streams


# ---------------------------------------------------------------------------
# Linear algebra


def topk_left_subspace(h: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k left singular subspace via eigendecomposition of H Hᵀ."""
    gram = h @ h.T
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order[:k]]


def principal_angles(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between two orthonormal column spans.

    Computed from the sines, ``svdvals(U - Q(QᵀU))``, which stays accurate for
    angles near zero where the cosine form loses all precision.
    """
    residual = basis - q @ (q.T @ basis)
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.arcsin(np.clip(sines, 0.0, 1.0))


def best_rank_k(h: np.ndarray, k: int) -> np.ndarray:
    """Exact best rank-k approximation from a full SVD."""
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def qr_sign_normalized(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.qr(a, mode="reduced")`` with each column of Q and row of R
    flipped so that R has a nonnegative diagonal."""
    q, r = np.linalg.qr(np.asarray(a, dtype=float), mode="reduced")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    return qr_sign_normalized(rng.standard_normal((n, n)))[0]


def gap_conditioned(
    d: int, n: int, k: int, gap: float, rng: np.random.Generator
) -> np.ndarray:
    """Random d×n matrix whose singular spectrum satisfies σ_k/σ_{k+1} >= gap.

    Built from its SVD directly: random orthonormal factors around a spectrum
    with the gap planted between positions k-1 and k.
    """
    r = min(d, n)
    assert 1 <= k < r
    tail = np.sort(rng.uniform(0.05, 1.0, size=r - k))[::-1]
    head = np.sort(rng.uniform(gap * tail[0], 4.0 * gap * tail[0], size=k))[::-1]
    spectrum = np.concatenate([head, tail])
    u = random_orthogonal(d, rng)[:, :r]
    v = random_orthogonal(n, rng)[:, :r]
    return (u * spectrum) @ v.T


# ---------------------------------------------------------------------------
# Finite differences


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Gradient of scalar ``f`` at ``x`` by central differences, one coordinate
    at a time.  ``f`` is called with the mutated array; the original content is
    restored before returning."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(x.shape)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Largest relative deviation over entries with |analytic| above ``floor``.

    Returns 0.0 when no entry clears the floor (nothing checkable).
    """
    analytic = np.asarray(analytic, dtype=float).reshape(-1)
    numeric = np.asarray(numeric, dtype=float).reshape(-1)
    mask = np.abs(analytic) > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(analytic[mask] - numeric[mask]) / np.abs(analytic[mask])))


# ---------------------------------------------------------------------------
# Metrics


def auroc_pairwise(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """O(n²) Mann-Whitney count: wins plus half-credit ties over all pairs."""
    id_scores = np.asarray(id_scores, dtype=float).reshape(-1)
    ood_scores = np.asarray(ood_scores, dtype=float).reshape(-1)
    wins = 0.0
    for s_id in id_scores:
        for s_ood in ood_scores:
            if s_id > s_ood:
                wins += 1.0
            elif s_id == s_ood:
                wins += 0.5
    return wins / (id_scores.size * ood_scores.size)


def fpr_threshold_scan(id_scores: np.ndarray, ood_scores: np.ndarray, tpr: float = 0.95) -> float:
    """Exhaustive scan: the largest candidate threshold admitting at least a
    ``tpr`` fraction of ID scores, then the OOD pass fraction at it."""
    id_scores = np.asarray(id_scores, dtype=float).reshape(-1)
    ood_scores = np.asarray(ood_scores, dtype=float).reshape(-1)
    n = id_scores.size
    tau = float(id_scores.min())
    for candidate in np.unique(id_scores)[::-1]:  # descending
        if (id_scores >= candidate).sum() >= tpr * n - 1e-9:
            tau = float(candidate)
            break
    return float((ood_scores >= tau).mean())


# ---------------------------------------------------------------------------
# Scoring


def knn_full_sort(embeddings: np.ndarray, unit_query: np.ndarray, k: int) -> float:
    """k-th smallest distance by sorting all of them; negated."""
    distances = np.sort(np.linalg.norm(embeddings - unit_query, axis=1))
    return -float(distances[min(k, distances.size) - 1])


def mahalanobis_direct(
    class_means: np.ndarray, precision: np.ndarray, unit_query: np.ndarray
) -> float:
    forms = []
    for mean in class_means:
        diff = unit_query - mean
        forms.append(float(diff @ precision @ diff))
    return -min(forms)


def pooled_regularized_covariance(
    embeddings: np.ndarray, labels: np.ndarray, cov_reg: float
) -> np.ndarray:
    """Within-class pooled covariance plus the trace-scaled ridge, recomputed
    from scratch (per-class loops, no shared code with the store builder)."""
    n, dim = embeddings.shape
    cov = np.zeros((dim, dim))
    for c in np.unique(labels):
        members = embeddings[labels == c]
        centered = members - members.mean(axis=0)
        cov += centered.T @ centered
    cov /= n
    ridge = cov_reg * np.trace(cov) / dim
    if ridge < np.finfo(float).tiny:
        ridge = cov_reg
    return cov + ridge * np.eye(dim)


def logsumexp_mp(logits: np.ndarray, dps: int = 50) -> float:
    """log Σ exp at 50 significant digits, rounded to float64 at the end."""
    mp.dps = dps
    total = mp.mpf(0)
    for value in np.asarray(logits, dtype=float).reshape(-1):
        total += mp.exp(mp.mpf(value))
    return float(mp.log(total))


# ---------------------------------------------------------------------------
# Training


def reference_ce_loop(data, config):
    """Plain cross-entropy training with no decomposition anywhere.

    Consumes only the initialization and shuffle streams of the seed, exactly
    as the full loop does on its lambda=0 / ce path; the decomposition stream
    is never touched.  Returns the final parameters.
    """
    streams = derive_streams(config.seed)
    params = init_mlp(data.dim, data.num_classes, streams.init, config.widths)
    state = zero_grads_like(params)
    n = len(data)
    batch_size = min(config.batch_size, n)
    for _ in range(config.epochs):
        order = streams.shuffle.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            cache = forward(params, data.features[idx])
            out = cross_entropy(cache.probs, data.noisy_labels[idx])
            grads = backward(params, cache, out.grad_logits)
            clip_global_norm(grads, GRAD_CLIP)
            sgd_step(params, grads, state, LR, MOMENTUM, WEIGHT_DECAY)
    return params
