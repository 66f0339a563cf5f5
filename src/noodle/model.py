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

from .files import read_json, require_keys, type_problem, write_json

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
    def num_classes(self) -> int:
        return self.head_weight.shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights)

    def arrays(self) -> list[np.ndarray]:
        """Every array, in the one fixed order: weights, biases, head weight,
        head bias.  Checksums, norms and the optimizer all walk this order."""
        return [*self.weights, *self.biases, self.head_weight, self.head_bias]

    def names(self) -> list[str]:
        """The name of each array of :meth:`arrays`, in that order."""
        layers = range(len(self.weights))
        return [*(f"weights[{i}]" for i in layers), *(f"biases[{i}]" for i in layers),
                "head_weight", "head_bias"]

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
            raise DivergenceError(f"non-finite gradient in {params.names()[i]}")
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
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "head_weight": params.head_weight.tolist(),
        "head_bias": params.head_bias.tolist(),
        "transition_theta": None if transition_theta is None else transition_theta.tolist(),
        "meta": meta or {},
    }
    write_json(path, doc)


def _float_array(name: str, raw, ndim: int) -> np.ndarray:
    """A JSON array ``ndim`` lists deep as floats, once each entry is a JSON number or null."""
    entries = [raw]
    for _ in range(ndim):
        entries = [v for level in entries if isinstance(level, list) for v in level]
    if bad := [v for v in entries if v is not None and type(v) not in (int, float)]:
        raise ValueError(type_problem(name, bad[0], 0.0))
    return np.array(raw, dtype=float)


def load_checkpoint(path: str | os.PathLike) -> tuple[MlpParams, np.ndarray | None, dict]:
    """Inverse of :func:`save_checkpoint`.

    The architecture is what the arrays say: the input width is the first
    weight's column count, each layer's width its weight's row count and the
    class count K the head weight's row count.  Each weight must take the
    width below it, each bias must match its layer, the head must be
    ``(K, widths[-1])`` and ``(K,)`` and the transition logits, if any,
    ``(K, K)``.  A violation, or an entry that is not a rectangular array of
    finite JSON numbers (a bool or a numeric string is none), is a ValueError
    naming ``path``."""
    doc = read_json(path)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    require_keys(doc, ("weights", "biases", "head_weight", "head_bias"), path)
    raw_theta = doc.get("transition_theta")
    try:
        params = MlpParams(
            [_float_array(f"weights[{i}]", w, 2) for i, w in enumerate(doc["weights"])],
            [_float_array(f"biases[{i}]", b, 1) for i, b in enumerate(doc["biases"])],
            _float_array("head_weight", doc["head_weight"], 2),
            _float_array("head_bias", doc["head_bias"], 1),
        )
        theta = None if raw_theta is None else _float_array("transition_theta", raw_theta, 2)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    layers = len(params.weights)
    if not layers or len(params.biases) != layers:
        raise ValueError(f"{path}: got {layers} weight matrices and {len(params.biases)} biases")
    if any(w.ndim != 2 for w in [*params.weights, params.head_weight]):
        raise ValueError(f"{path}: every weight and head_weight must be a matrix")
    widths, k = params.widths, params.num_classes
    fan_ins = (params.in_dim, *widths[:-1])
    expected = [*zip(widths, fan_ins), *((w,) for w in widths), (k, widths[-1]), (k,), (k, k)]
    arrays = params.arrays() if theta is None else [*params.arrays(), theta]
    for name, array, shape in zip([*params.names(), "transition_theta"], arrays, expected):
        if array.shape != shape:
            raise ValueError(f"{path}: {name} has shape {array.shape}, expected {shape}")
        if not np.isfinite(array).all():  # JSON null, NaN or Infinity
            raise ValueError(f"{path}: {name} holds a value that is not a finite number")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta is not a JSON object")
    return params, theta, meta
