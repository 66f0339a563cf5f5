"""Deterministic training loop: batching, per-batch decomposition, joint loss,
and simultaneous SGD on the encoder and the transition logits.

Randomness is split into four named streams derived from one master seed
(initialization, shuffling, per-batch decomposition, reference-store
decomposition).  The per-batch split feeds only the sparsity term, so with
the regularizer disabled (``lam = 0``) it is not computed at all; because it
consumes its own stream, skipping it leaves the initialization and shuffling
draws, and therefore the entire parameter trajectory, untouched: plain CE
training falls out as an exact special case rather than an approximate one.
The reference store is built from one full-pass split at every ``lam``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .datagen import LabeledSet
from .decompose import grad_through_split, split_features, usable_columns
from .files import array_checksum, reject_unknown, settle_fields
from .losses import (
    LOSS_KINDS,
    TransitionMatrix,
    classification_loss,
    init_near_identity,
    joint_loss,
    sparsity_loss,
)
from .model import (
    DEFAULT_WIDTHS,
    DivergenceError,
    MlpParams,
    backward,
    clip_global_norm,
    forward,
    init_mlp,
    sgd_step,
    zero_grads_like,
)
from .scoring import EmbeddingStore, build_store, check_store_rows

# JSON config key for the sparsity weight; `lambda` is a Python keyword, so
# the dataclass field is `lam` while the external name stays `lambda`.
_LAMBDA_KEY = "lambda"

# The optimiser's one setting: SGD with momentum, weight decay on the weight
# matrices only, and a global gradient-norm limit on every step (network and
# transition logits jointly).
LR = 0.05
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
GRAD_CLIP = 10.0

# Power-iteration sweeps of every split, per batch and for the store.
PI_ITERS = 10


@dataclass(frozen=True)
class TrainConfig:
    """The settings of a training run, hashable for provenance; the optimiser
    and the split run at this module's constants.

    Checked on construction, so an invalid config cannot exist: every field's
    type first (``files.settle_fields``), then every range, all problems in
    one ``ValueError``."""

    epochs: int = 100
    batch_size: int = 64
    loss_kind: str = "cm"
    lam: float = 0.001            # sparsity weight on the residual
    seed: int = 0
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    t_diag_init: float = 0.99

    def __post_init__(self) -> None:
        # Types first, so that the range checks compare numbers.
        if problems := settle_fields(self, lambda name: _LAMBDA_KEY if name == "lam" else name):
            raise ValueError("invalid config: " + "; ".join(problems))
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_kind not in LOSS_KINDS:
            problems.append(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.lam < 0:
            problems.append(f"lambda must be >= 0, got {self.lam}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.t_diag_init < 1.0:
            problems.append(f"t_diag_init must be in (0, 1), got {self.t_diag_init}")
        if len(self.widths) < 1 or min(self.widths) < 1:
            problems.append(f"widths must be positive, got {self.widths}")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc[_LAMBDA_KEY] = doc.pop("lam")
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Build from an external JSON dict; unknown keys are an error so
        typos never silently fall back to defaults."""
        reject_unknown(doc, [_LAMBDA_KEY if f.name == "lam" else f.name for f in fields(cls)], "config keys")
        return cls(**{"lam" if key == _LAMBDA_KEY else key: value for key, value in doc.items()})

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class TrainResult:
    params: MlpParams
    transition: TransitionMatrix
    loss_trace: list[float] = field(default_factory=list)
    store: EmbeddingStore | None = None


class SeedStreams(NamedTuple):
    """The four independent random streams of one run.

    Stream assignment is a compatibility contract: reordering it changes
    every result downstream of a seed.
    """

    init: np.random.Generator       # parameter initialization
    shuffle: np.random.Generator    # epoch shuffles
    decompose: np.random.Generator  # per-batch subspace starts
    store: np.random.Generator      # full-pass decomposition for the store


def derive_streams(seed: int) -> SeedStreams:
    children = np.random.SeedSequence(seed).spawn(4)
    return SeedStreams(*(np.random.default_rng(c) for c in children))


def params_checksum(params: MlpParams) -> str:
    """SHA-256 over shapes and raw bytes of all parameter arrays."""
    return array_checksum(*params.arrays())


def train(data: LabeledSet, config: TrainConfig) -> TrainResult:
    """Run the full training loop.

    Per batch: forward; classification loss on the noisy labels; when
    ``lam > 0``, split the latent columns at the class count's rank, add ``lam`` times the residual
    sparsity loss and pull the latent gradient back through the
    (frozen-basis) split; one clipped SGD step on the network and, for
    ``loss_kind='cm'``, on the transition logits.  Deterministic given
    ``config.seed``.

    Raises
    ------
    ValueError
        Before epoch 0, on noisy labels that break ``scoring.check_store_rows``,
        a class count (the split's rank) above the latent width ``widths[-1]``,
        or a ``t_diag_init`` that ``losses.init_near_identity`` refuses.
    DivergenceError
        On non-finite logits or loss, identifying the offending epoch and
        batch; after an epoch with no usable latent
        (``decompose.usable_columns``), naming the epoch; or when the store
        breaks those rules (:func:`extract_reference_store`).
    """
    n = len(data)
    num_classes = data.num_classes
    check_store_rows(data.noisy_labels, num_classes)  # the store needs them: fail now, not after training
    if num_classes > config.widths[-1]:
        raise ValueError(
            f"subspace rank {num_classes} (the class count) exceeds the latent width {config.widths[-1]}"
        )
    transition = init_near_identity(num_classes, config.t_diag_init)

    streams = derive_streams(config.seed)
    params = init_mlp(data.dim, num_classes, streams.init, config.widths)
    opt_state = zero_grads_like(params)
    theta_state = np.zeros_like(transition.theta)
    batch_size = min(config.batch_size, n)

    trace: list[float] = []
    # A diverging run overflows before the explicit checks here and in the
    # store raise; NumPy's floating-point messages would only be noise before that error.
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            order = streams.shuffle.permutation(n)
            batch_losses: list[float] = []
            live_latents = 0
            for batch, b_start in enumerate(range(0, n, batch_size)):
                idx = order[b_start : b_start + batch_size]
                cache = forward(params, data.features[idx])
                if not np.isfinite(cache.logits).all():
                    raise DivergenceError(f"non-finite logits at epoch {epoch}, batch {batch}")
                corrected = classification_loss(
                    config.loss_kind, cache.probs, data.noisy_labels[idx], transition
                )
                if config.lam > 0.0:
                    split = split_features(cache.latent, num_classes, PI_ITERS, streams.decompose)
                    norms = split.col_norms
                    total = joint_loss(corrected, sparsity_loss(split.ood_part), config.lam)
                else:
                    split, total = None, corrected
                    norms = np.linalg.norm(cache.latent, axis=0)
                # Live latents: neither dead ReLUs nor overflowing, by the store's rule.
                live_latents += np.count_nonzero(usable_columns(norms))
                if not np.isfinite(total.value):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {batch}")
                grad_latent = None if split is None else grad_through_split(split, total.grad_latent)
                grads = backward(params, cache, total.grad_logits, grad_latent)
                clip_global_norm(grads, GRAD_CLIP, extra=total.grad_theta)
                sgd_step(params, grads, opt_state, LR, MOMENTUM, WEIGHT_DECAY)
                if total.grad_theta is not None:
                    # Same optimizer, shared lr; no weight decay on the transition
                    # logits (decay would pull T toward uniform).
                    theta_state *= MOMENTUM
                    theta_state += total.grad_theta
                    transition.theta -= LR * theta_state
                batch_losses.append(total.value)
            if not live_latents:
                raise DivergenceError(f"every training latent is zero or overflows in epoch {epoch}")
            trace.append(float(np.mean(batch_losses)))
        store = extract_reference_store(params, data, config)
    return TrainResult(params, transition, trace, store)


def extract_reference_store(params: MlpParams, data: LabeledSet, config: TrainConfig) -> EmbeddingStore:
    """Forward the whole training set, split the complete latent matrix once at
    the class count's rank, and build the reference store from the in-subspace part.

    Labels stored are the (noisy) training labels; the clean ones are not
    available to the method.  The split draws from the store stream of
    ``config.seed``, which training never touches, so a standalone call
    builds exactly the store that :func:`train` builds.  When the rows that
    ``build_store`` keeps (not a latent that is zero, overflows or lies off the
    span) break ``scoring.check_store_rows``, the network diverged, and
    :class:`DivergenceError` says so with the epoch count.
    """
    cache = forward(params, data.features)
    store_stream = derive_streams(config.seed).store
    split = split_features(cache.latent, data.num_classes, PI_ITERS, store_stream)
    try:
        return build_store(split.id_part, data.noisy_labels)
    except ValueError as exc:
        raise DivergenceError(f"the store built after {config.epochs} epoch(s): {exc}") from None
