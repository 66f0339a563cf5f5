"""Noise-robust classification losses, the column-sparsity regularizer, and
the joint training objective.

Every loss consumes class probabilities in column orientation ``(K, B)`` and
returns exact gradients *with respect to the logits* (the softmax Jacobian is
applied analytically), so callers never differentiate through the softmax
themselves.  A gradient field of ``None`` means the loss has no dependence on
that variable (identically zero).

Probabilities are floored at 1e-300 before any log or fractional power; this
keeps values and gradients finite when the softmax underflows, and is the only
deviation from the textbook formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import NORM_EPS

LOSS_KINDS = ("ce", "cm", "sce", "gce")

PROB_FLOOR = 1e-300

# The fixed parameters of the two symmetric/generalized CE hybrids, taken
# from the methods that introduced them.
SCE_ALPHA = 0.1
SCE_BETA = 1.0
SCE_CLAMP = -4.0
GCE_Q = 0.7


@dataclass
class LossOutput:
    """Scalar loss with exact gradients.

    ``grad_logits`` is (K, B), ``grad_theta`` is (K, K) against the
    unconstrained transition logits, ``grad_latent`` is (L, B) against the
    latent features.  ``None`` marks a field the loss does not depend on.
    """

    value: float
    grad_logits: np.ndarray | None = None
    grad_theta: np.ndarray | None = None
    grad_latent: np.ndarray | None = None


@dataclass
class TransitionMatrix:
    """Row-softmax parameterization of the label-confusion matrix.

    ``theta`` holds unconstrained logits; the realized matrix ``T`` is the
    row-wise softmax, so ``T[i][j] = Pr(observed label j | true label i)`` and
    every row is automatically a probability distribution under any SGD update
    of ``theta``.
    """

    theta: np.ndarray

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 2 or self.theta.shape[0] != self.theta.shape[1]:
            raise ValueError(f"theta must be square, got {self.theta.shape}")

    @property
    def num_classes(self) -> int:
        return self.theta.shape[0]

    def realized(self) -> np.ndarray:
        shifted = self.theta - self.theta.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


def init_near_identity(num_classes: int, t_diag_init: float = 0.99) -> TransitionMatrix:
    """Transition logits whose realized matrix has ``t_diag_init`` on the
    diagonal exactly and the remaining mass spread uniformly off-diagonal.

    Softmax cannot realize an exact identity, so initialization targets a
    diagonally dominant matrix instead; ``t_diag_init`` must lie in (1/K, 1).
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if not 1.0 / num_classes < t_diag_init < 1.0:
        raise ValueError(f"t_diag_init must be in (1/{num_classes}, 1), got {t_diag_init}")
    # Solving softmax([t, 0, ..., 0]) = [m, (1-m)/(K-1), ...] for t:
    value = np.log(t_diag_init * (num_classes - 1) / (1.0 - t_diag_init))
    return TransitionMatrix(np.eye(num_classes) * value)


def check_distributions(probs: np.ndarray) -> np.ndarray:
    """``probs`` as floats if each column is a distribution: no negative entry, a sum within 1e-6 of 1."""
    probs = np.asarray(probs, dtype=float)
    if (probs < 0).any() or not (np.abs(probs.sum(axis=0) - 1.0) <= 1e-6).all():
        raise ValueError("probs columns must be valid distributions")
    return probs


def _check_probs(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2:
        raise ValueError("probs must be (num_classes, batch)")
    k, b = probs.shape
    if labels.shape != (b,):
        raise ValueError(f"expected {b} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    return check_distributions(probs), labels, k, b


def _softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient on probabilities back to a gradient on logits."""
    inner = (probs * grad_probs).sum(axis=0, keepdims=True)
    return probs * (grad_probs - inner)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Mean negative log-likelihood of the given labels.

    value = -(1/B) sum_n log p_n[y_n];  grad_logits = (p - onehot) / B.
    """
    probs, labels, k, b = _check_probs(probs, labels)
    picked = probs[labels, np.arange(b)]
    value = -float(np.log(np.maximum(picked, PROB_FLOOR)).mean())
    grad = probs.copy()
    grad[labels, np.arange(b)] -= 1.0
    return LossOutput(value, grad_logits=grad / b)


def forward_corrected_ce(
    probs: np.ndarray, transition: TransitionMatrix, noisy_labels: np.ndarray
) -> LossOutput:
    """Cross-entropy against the noisy labels on the *corrected* posterior.

    The clean posterior ``p`` is pushed through the confusion model to the
    noisy-label posterior ``q = T^T p`` before the log-likelihood, so the
    network is asked to explain the observed labels as clean predictions
    filtered through label noise.  Returns exact gradients for the logits and
    for the unconstrained transition logits ``theta``.
    """
    probs, labels, k, b = _check_probs(probs, noisy_labels)
    if transition.num_classes != k:
        raise ValueError(f"transition is {transition.num_classes}-class, probs are {k}-class")
    t = transition.realized()
    q = t.T @ probs
    cols = np.arange(b)
    picked = q[labels, cols]
    value = -float(np.log(np.maximum(picked, PROB_FLOOR)).mean())

    # dL/dq is nonzero only at the observed-label entries.
    grad_q = np.zeros_like(q)
    grad_q[labels, cols] = np.where(picked > PROB_FLOOR, -1.0 / (b * picked), 0.0)
    grad_probs = t @ grad_q
    grad_t = probs @ grad_q.T
    # Row-softmax backward: each row of T pulls back independently.
    grad_theta = t * (grad_t - (t * grad_t).sum(axis=1, keepdims=True))
    return LossOutput(value, grad_logits=_softmax_vjp(probs, grad_probs), grad_theta=grad_theta)


def sce_loss(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Symmetric cross-entropy: ``alpha * CE(p, y) + beta * RCE(p, y)`` at
    ``alpha = SCE_ALPHA`` and ``beta = SCE_BETA``.

    The reverse term swaps prediction and target, ``RCE = -(1/B) sum_n sum_k
    p_n[k] * log(onehot_n[k])``, with ``log 0`` replaced by the finite clamp
    ``A = SCE_CLAMP`` (-4); it collapses to ``-A/B * sum_n (1 - p_n[y_n])``.
    """
    alpha, beta = SCE_ALPHA, SCE_BETA
    probs, labels, k, b = _check_probs(probs, labels)
    ce = cross_entropy(probs, labels)
    picked = probs[labels, np.arange(b)]
    rce = -SCE_CLAMP / b * float((1.0 - picked).sum())
    # d RCE / dp[k, n] = -A/B off the label entry, 0 on it.
    grad_probs = np.full_like(probs, -SCE_CLAMP / b)
    grad_probs[labels, np.arange(b)] = 0.0
    grad = alpha * ce.grad_logits + beta * _softmax_vjp(probs, grad_probs)
    return LossOutput(alpha * ce.value + beta * rce, grad_logits=grad)


def gce_loss(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Generalized cross-entropy ``(1/B) sum_n (1 - p_n[y_n]^q) / q`` at
    ``q = GCE_Q``.

    ``q`` interpolates between CE (the q -> 0 limit) and a
    mean-absolute-error-like loss at q = 1.
    """
    q = GCE_Q
    probs, labels, k, b = _check_probs(probs, labels)
    cols = np.arange(b)
    picked = np.maximum(probs[labels, cols], PROB_FLOOR)
    value = float(((1.0 - picked**q) / q).mean())
    grad_probs = np.zeros_like(probs)
    grad_probs[labels, cols] = -(picked ** (q - 1.0)) / b
    return LossOutput(value, grad_logits=_softmax_vjp(probs, grad_probs))


def sparsity_loss(ood_part: np.ndarray) -> LossOutput:
    """Batch-mean L2,1 norm of the residual feature matrix.

    value = ||ood_part||_{2,1} / B, the sum of the column norms over B;
    grad_latent is the matching column-wise subgradient / B: column ``j`` is
    ``ood_part[:, j] / ||ood_part[:, j]||`` when that norm exceeds
    ``NORM_EPS`` and the zero vector otherwise (the canonical element of the
    subdifferential at a zero column).  Penalizing the sum of residual column
    norms pushes each sample's feature vector toward the shared low-rank
    subspace, with columns (samples) competing individually, the batch
    analogue of column sparsity.
    """
    ood_part = np.asarray(ood_part, dtype=float)
    if ood_part.ndim != 2 or ood_part.shape[1] == 0:
        raise ValueError("ood_part must be (latent_dim, batch) with batch >= 1")
    b = ood_part.shape[1]
    norms = np.linalg.norm(ood_part, axis=0)
    nonzero = norms > NORM_EPS
    grad = np.where(nonzero, ood_part / np.where(nonzero, norms, 1.0), 0.0)
    return LossOutput(float(norms.sum()) / b, grad_latent=grad / b)


def joint_loss(corrected: LossOutput, sparse: LossOutput, weight: float) -> LossOutput:
    """The objective ``corrected + weight * sparse``: the classification
    loss's value, logit and transition gradients, plus the weighted sparsity
    value and latent gradient (the only fields a sparsity loss sets)."""
    if weight < 0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    return LossOutput(
        corrected.value + weight * sparse.value,
        corrected.grad_logits,
        corrected.grad_theta,
        weight * sparse.grad_latent,
    )


def classification_loss(
    kind: str,
    probs: np.ndarray,
    labels: np.ndarray,
    transition: TransitionMatrix | None = None,
) -> LossOutput:
    """Dispatch to the loss named by ``kind`` (one of ``ce, cm, sce, gce``).

    ``cm`` is the transition-matrix corrected cross-entropy and requires a
    TransitionMatrix; the others ignore it.  ``sce`` and ``gce`` run at their
    published parameters ``SCE_ALPHA``, ``SCE_BETA`` and ``GCE_Q``.
    """
    if kind == "ce":
        return cross_entropy(probs, labels)
    if kind == "cm":
        if transition is None:
            raise ValueError("loss kind 'cm' needs a transition matrix")
        return forward_corrected_ce(probs, transition, labels)
    if kind == "sce":
        return sce_loss(probs, labels)
    if kind == "gce":
        return gce_loss(probs, labels)
    raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
