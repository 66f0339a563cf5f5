"""Small ReLU MLP with manual forward/backward passes and SGD with momentum.

The network maps input rows to a latent space and then linearly to class
logits.  Latents and logits are handled in column orientation, ``(width,
batch)``, to match the decomposition kernels; inputs arrive as ``(batch,
dim)`` rows straight from a dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .files import read_json, require_keys, write_json

DEFAULT_WIDTHS = (64, 64, 32)

CHECKPOINT_FORMAT = "noodle-mlp"


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or gradient."""


@dataclass
class MlpParams:
    """Weights of the encoder stack plus the linear classification head.

    Gradients and momentum buffers share this layout and type."""

    weights: list[np.ndarray]   # weights[i] has shape (width_i, width_{i-1})
    biases: list[np.ndarray]
    head_weight: np.ndarray     # (num_classes, latent_dim)
    head_bias: np.ndarray       # (num_classes,)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def latent_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_classes(self) -> int:
        return self.head_weight.shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights)

    def arrays(self) -> list[np.ndarray]:
        """Every array, in the one fixed order: weights, biases, head weight,
        head bias.  Checksums, norms and the optimizer all walk this order."""
        return [*self.weights, *self.biases, self.head_weight, self.head_bias]

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float((a * a).sum()) for a in self.arrays())))

    def scale(self, factor: float) -> None:
        for a in self.arrays():
            a *= factor


@dataclass
class MlpCache:
    """Forward-pass intermediates needed by :func:`backward`."""

    inputs: np.ndarray             # (in_dim, batch), transposed input rows
    activations: list[np.ndarray]  # per layer, after ReLU, (width, batch)
    latent: np.ndarray             # alias of activations[-1], (latent_dim, batch)
    logits: np.ndarray             # (num_classes, batch)
    probs: np.ndarray              # column-wise softmax of logits


def init_mlp(
    in_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
) -> MlpParams:
    """Kaiming-uniform initialization: weights from U(-sqrt(6/fan_in),
    +sqrt(6/fan_in)), biases zero."""
    if in_dim < 1 or num_classes < 2 or len(widths) < 1 or min(widths) < 1:
        raise ValueError(f"bad architecture: in_dim={in_dim}, widths={widths}, classes={num_classes}")
    weights, biases = [], []
    fan_in = in_dim
    for w in widths:
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(w, fan_in)))
        biases.append(np.zeros(w))
        fan_in = w
    limit = np.sqrt(6.0 / fan_in)
    head_weight = rng.uniform(-limit, limit, size=(num_classes, fan_in))
    head_bias = np.zeros(num_classes)
    return MlpParams(weights, biases, head_weight, head_bias)


def softmax_columns(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over axis 0."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def forward(params: MlpParams, x: np.ndarray) -> MlpCache:
    """Run the network on input rows ``x`` of shape (batch, in_dim)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"expected (batch, {params.in_dim}) inputs, got {x.shape}")
    a = x.T
    inputs = a
    act = []
    for w, b in zip(params.weights, params.biases):
        a = np.maximum(w @ a + b[:, None], 0.0)
        act.append(a)
    logits = params.head_weight @ a + params.head_bias[:, None]
    return MlpCache(inputs, act, act[-1], logits, softmax_columns(logits))


def backward(
    params: MlpParams,
    cache: MlpCache,
    grad_logits: np.ndarray,
    grad_latent: np.ndarray | None = None,
) -> MlpParams:
    """Backpropagate a logit gradient (and an optional extra gradient applied
    directly to the latent activations) into parameter gradients.

    ``grad_logits`` and ``grad_latent`` must already include any batch-size
    scaling; this routine only applies the chain rule.  The ReLU mask is
    ``activation > 0``, which is the same as ``pre-activation > 0`` for every
    float (NaN and -0.0 included), so no pre-activation is kept.
    """
    if grad_logits.shape != cache.logits.shape:
        raise ValueError(f"grad_logits shape {grad_logits.shape} != {cache.logits.shape}")
    d_head_w = grad_logits @ cache.latent.T
    d_head_b = grad_logits.sum(axis=1)
    d_act = params.head_weight.T @ grad_logits
    if grad_latent is not None:
        if grad_latent.shape != cache.latent.shape:
            raise ValueError(f"grad_latent shape {grad_latent.shape} != {cache.latent.shape}")
        d_act = d_act + grad_latent

    d_weights = [np.empty(0)] * len(params.weights)
    d_biases = [np.empty(0)] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        d_z = d_act * (cache.activations[i] > 0.0)
        below = cache.activations[i - 1] if i > 0 else cache.inputs
        d_weights[i] = d_z @ below.T
        d_biases[i] = d_z.sum(axis=1)
        if i > 0:  # nothing reads the input gradient
            d_act = params.weights[i].T @ d_z
    return MlpParams(d_weights, d_biases, d_head_w, d_head_b)


def zero_grads_like(params: MlpParams) -> MlpParams:
    """Zeros in the layout of ``params``: a gradient or momentum buffer."""
    return MlpParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        np.zeros_like(params.head_weight),
        np.zeros_like(params.head_bias),
    )


def clip_global_norm(grads: MlpParams, max_norm: float, extra: np.ndarray | None = None) -> float:
    """Scale ``grads`` (and ``extra``, jointly) so the combined Euclidean norm
    is at most ``max_norm``. Returns the pre-clip norm."""
    total = grads.global_norm() ** 2
    if extra is not None:
        total += float((extra * extra).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        grads.scale(factor)
        if extra is not None:
            extra *= factor
    return norm


def sgd_step(
    params: MlpParams,
    grads: MlpParams,
    state: MlpParams,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> None:
    """One SGD-with-momentum update, in place.

    Weight decay is added to the raw gradient for weight matrices (the 2-D
    arrays) only; biases are never decayed.  ``state`` holds the momentum
    buffers and is updated in place alongside the parameters.

    Raises
    ------
    DivergenceError
        If any gradient entry is non-finite, naming the offending parameter.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    for i, (p, g, v) in enumerate(zip(params.arrays(), grads.arrays(), state.arrays())):
        if not np.isfinite(g).all():
            n = len(params.weights)
            names = [f"weights[{j}]" for j in range(n)] + [f"biases[{j}]" for j in range(n)]
            names += ["head_weight", "head_bias"]
            raise DivergenceError(f"non-finite gradient in {names[i]}")
        step = g + weight_decay * p if weight_decay and p.ndim == 2 else g
        v *= momentum
        v += step
        p -= lr * v


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(
    params: MlpParams,
    path: str | os.PathLike,
    transition_theta: np.ndarray | None = None,
    meta: dict | None = None,
) -> None:
    """Serialize parameters (and, if present, the unconstrained transition
    logits) to JSON. Floats round-trip exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "in_dim": params.in_dim,
        "widths": list(params.widths),
        "num_classes": params.num_classes,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "head_weight": params.head_weight.tolist(),
        "head_bias": params.head_bias.tolist(),
        "transition_theta": None if transition_theta is None else transition_theta.tolist(),
        "meta": meta or {},
    }
    write_json(path, doc)


def load_checkpoint(path: str | os.PathLike) -> tuple[MlpParams, np.ndarray | None, dict]:
    """Inverse of :func:`save_checkpoint`, with shape validation."""
    doc = read_json(path)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    require_keys(
        doc, ("in_dim", "widths", "num_classes", "weights", "biases", "head_weight", "head_bias"), path
    )
    params = MlpParams(
        [np.array(w, dtype=float) for w in doc["weights"]],
        [np.array(b, dtype=float) for b in doc["biases"]],
        np.array(doc["head_weight"], dtype=float),
        np.array(doc["head_bias"], dtype=float),
    )
    widths = tuple(doc["widths"])
    if params.widths != widths or params.in_dim != doc["in_dim"] or params.num_classes != doc["num_classes"]:
        raise ValueError(f"{path}: stored shapes disagree with declared architecture")
    fan_in = doc["in_dim"]
    for i, w in enumerate(params.weights):
        if w.shape != (widths[i], fan_in) or params.biases[i].shape != (widths[i],):
            raise ValueError(f"{path}: layer {i} has shape {w.shape}, expected {(widths[i], fan_in)}")
        fan_in = widths[i]
    theta = doc.get("transition_theta")
    theta_arr = None if theta is None else np.array(theta, dtype=float)
    if theta_arr is not None and theta_arr.shape != (params.num_classes, params.num_classes):
        raise ValueError(f"{path}: transition matrix shape {theta_arr.shape} is not square in classes")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta is not a JSON object")
    return params, theta_arr, meta
