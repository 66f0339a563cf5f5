"""Synthetic labeled mixtures, label-noise injection, and the CSV interchange format.

The CSV schema is shared by every file the pipeline reads or writes:

    label,noisy_label,f0,f1,...,f{d-1}

with integer label columns and features printed to 17 significant digits so a
write/read round trip is exact in float64 (a :mod:`noodle.files` table).
Out-of-distribution files use the same schema with both label columns -1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .files import read_table, reject_unknown, type_problem, write_table

OOD_MODES = ("far_cluster", "uniform_shell")


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption model. ``rate`` is the probability a label is flipped;
    checked on construction, types first (named as a spec's ``noise.<field>``)."""

    kind: str = "symmetric"
    rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if problem := type_problem(f"noise.{f.name}", getattr(self, f.name), f.default):
                raise ValueError(problem)
        if self.kind != "symmetric":
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class DataSpec:
    """A generated file set's parameters, checked on construction before any
    draw: types first, then known, distinct OOD modes, ``classes`` >= 2, every
    other size and ``dim`` >= 1, a finite ``separation`` and ``spread`` > 0;
    NoiseSpec checks the rate's range."""

    classes: int = 4
    per_class: int = 500
    dim: int = 32
    separation: float = 6.0
    spread: float = 1.0
    noise_rate: float = 0.0
    val_per_class: int = 50
    test_per_class: int = 250
    ood_size: int = 1000
    ood_modes: tuple[str, ...] = ("far_cluster",)

    def __post_init__(self) -> None:
        for f in fields(self):
            if problem := type_problem(f.name, getattr(self, f.name), f.default):
                raise ValueError(problem)
        modes = tuple(self.ood_modes)
        object.__setattr__(self, "ood_modes", modes)
        if unknown := [mode for mode in modes if mode not in OOD_MODES]:
            raise ValueError(f"unknown OOD mode {unknown[0]!r}; expected one of {OOD_MODES}")
        if not modes or len(set(modes)) < len(modes):
            raise ValueError(f"need one or more distinct OOD modes, got {','.join(modes) or 'none'}")
        for key, least in (("classes", 2), ("per_class", 1), ("dim", 1), ("val_per_class", 1),
                           ("test_per_class", 1), ("ood_size", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        for key in ("separation", "spread"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be a finite number > 0, got {getattr(self, key)}")
        NoiseSpec(rate=self.noise_rate)

    @classmethod
    def from_dict(cls, doc: dict) -> "DataSpec":
        """Build from a JSON dict; an unknown key is an error, not a silent default."""
        reject_unknown(doc, [f.name for f in fields(cls)], "generator parameters")
        return cls(**doc)


@dataclass
class LabeledSet:
    """In-distribution samples with parallel clean and (possibly) noisy labels."""

    features: np.ndarray       # (n, dim) float64
    clean_labels: np.ndarray   # (n,) int64 in [0, num_classes)
    noisy_labels: np.ndarray   # (n,) int64 in [0, num_classes)
    num_classes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.clean_labels = np.asarray(self.clean_labels, dtype=np.int64)
        self.noisy_labels = np.asarray(self.noisy_labels, dtype=np.int64)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D (n, dim) array")
        if self.clean_labels.shape != (n,) or self.noisy_labels.shape != (n,):
            raise ValueError("label arrays must match the number of feature rows")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        for name, lab in (("clean", self.clean_labels), ("noisy", self.noisy_labels)):
            if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
                raise ValueError(f"{name} labels outside [0, {self.num_classes})")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _spread_out_means(
    num_classes: int, dim: int, separation: float, rng: np.random.Generator
) -> np.ndarray:
    """Place class means on a sphere, growing the radius until all pairwise
    distances reach ``separation``.  Two equal unit directions (two of three
    classes in one dimension) are never apart, however large the radius; a
    ValueError says so once 200 attempts have failed."""
    radius = max(separation, 1e-12)
    for _ in range(200):
        directions = rng.standard_normal((num_classes, dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        if (norms < 1e-12).any():
            continue
        means = radius * directions / norms
        # Rounding sets the means of equal directions apart at a huge radius,
        # so the unit directions must be apart at this radius as well.
        if min(_min_gap(means), radius * _min_gap(directions / norms)) >= separation:
            return means
        radius *= 1.25
    raise ValueError(
        f"could not place {num_classes} class means {separation} apart in dim {dim}; "
        "try a larger dim or smaller separation"
    )


def _min_gap(points: np.ndarray) -> float:
    """The smallest distance between two rows of ``points``."""
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    dist[np.diag_indices(len(points))] = np.inf
    return float(dist.min())


def make_gaussian_mixture(
    num_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    spread: float,
    rng: np.random.Generator,
) -> LabeledSet:
    """Sample an isotropic Gaussian mixture with well-separated class means.

    Args:
        num_classes: number of mixture components, >= 2.
        per_class: samples drawn per component, >= 1.
        dim: feature dimension, >= 1.
        separation: minimum pairwise distance between class means, > 0.
        spread: per-coordinate standard deviation around each mean, > 0.
        rng: generator; the means and the draws are both functions of it, so a
            fixed seed reproduces the set bit for bit.

    Returns:
        A LabeledSet whose noisy labels start out equal to the clean ones.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if separation <= 0 or spread <= 0:
        raise ValueError("separation and spread must be positive")

    means = _spread_out_means(num_classes, dim, separation, rng)
    # One draw in class blocks; the mean is added in place, by broadcast.
    features = spread * rng.standard_normal((num_classes, per_class, dim))
    features += means[:, None, :]
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return LabeledSet(
        features=features.reshape(-1, dim),
        clean_labels=labels,
        noisy_labels=labels.copy(),
        num_classes=num_classes,
        meta={"means": means, "separation": separation, "spread": spread},
    )


def _empirical_geometry(id_set: LabeledSet) -> tuple[np.ndarray, float]:
    """Class means and pooled per-coordinate standard deviation of ``id_set``."""
    means = np.stack(
        [id_set.features[id_set.clean_labels == c].mean(axis=0) for c in range(id_set.num_classes)]
    )
    centered = id_set.features - means[id_set.clean_labels]
    scale = float(np.sqrt((centered**2).sum() / max(id_set.features.size, 1)))
    return means, (scale if scale > 0 else 1.0)


def make_ood_set(id_set: LabeledSet, n: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` out-of-distribution points positioned relative to ``id_set``.

    ``far_cluster`` places a tight Gaussian blob well outside the mixture:
    its center sits 10 empirical-spread units beyond the farthest class mean
    (measured from the mixture centroid) and each draw is truncated to stay
    within 6 spread units of the blob center, so every point keeps a margin
    of at least 3 spread units from all ID class means.  ``uniform_shell``
    samples uniformly from the sphere of radius ``max_c ||mu_c|| + 10 *
    spread`` about the origin.

    Returns an (n, dim) feature array; OOD points carry no labels.
    """
    if mode not in OOD_MODES:
        raise ValueError(f"mode must be one of {OOD_MODES}, got {mode!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    means, scale = _empirical_geometry(id_set)
    dim = id_set.dim
    out = np.empty((n, dim))
    if mode == "far_cluster":
        centroid = means.mean(axis=0)
        reach = float(np.linalg.norm(means - centroid, axis=1).max())
        direction = _unit_vector(dim, rng)
        center = centroid + (reach + 10.0 * scale) * direction
        sigma = 3.0 * scale / np.sqrt(dim)
        for i in range(n):
            while True:
                offset = sigma * rng.standard_normal(dim)
                if np.linalg.norm(offset) <= 6.0 * scale:
                    break
            out[i] = center + offset
    else:
        radius = float(np.linalg.norm(means, axis=1).max()) + 10.0 * scale
        for i in range(n):
            out[i] = radius * _unit_vector(dim, rng)
    return out


def _unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def inject_symmetric_noise(
    labels: np.ndarray, spec: NoiseSpec, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Flip each label with probability ``spec.rate`` to a uniformly random
    *different* class.

    The draw is vectorized: one uniform per sample decides the flip, one
    integer draw per sample picks the replacement among the other
    ``num_classes - 1`` classes.  Expected flip fraction is exactly the rate
    and the replacement is uniform over wrong classes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    if num_classes < 2:
        raise ValueError("symmetric noise needs at least 2 classes")

    flip = rng.random(labels.size) < spec.rate
    draw = rng.integers(0, num_classes - 1, size=labels.size)
    # Skip over the original class so the replacement is uniform on the rest.
    replacement = np.where(draw >= labels, draw + 1, draw)
    return np.where(flip, replacement, labels)


# ---------------------------------------------------------------------------
# CSV interchange

_LABEL_COLUMNS = ("label", "noisy_label")


def save_features_csv(dataset: LabeledSet, path: str | os.PathLike) -> None:
    """Write ``dataset`` in the shared CSV schema (UTF-8, LF line endings)."""
    write_table(
        path, _LABEL_COLUMNS, "f", (dataset.clean_labels, dataset.noisy_labels), dataset.features
    )


def save_ood_csv(features: np.ndarray, path: str | os.PathLike) -> None:
    """Write unlabeled OOD features; both label columns are set to -1."""
    features = np.asarray(features, dtype=float)
    sentinel = np.full(features.shape[0], -1, dtype=np.int64)
    write_table(path, _LABEL_COLUMNS, "f", (sentinel, sentinel), features)


def load_features_csv(path: str | os.PathLike) -> LabeledSet:
    """Read a labeled CSV back into a :class:`LabeledSet` whose class count is
    ``max(label) + 1``, with a floor of 2; a negative label is a ValueError
    naming ``path``."""
    (clean, noisy), features = read_table(path, _LABEL_COLUMNS, "f")
    num_classes = max(int(max(clean.max(), noisy.max())) + 1, 2)
    try:
        return LabeledSet(features, clean, noisy, num_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_ood_csv(path: str | os.PathLike) -> np.ndarray:
    """Read an OOD CSV, returning only the feature block.

    Label columns are ignored, so any file in the shared schema can be scored
    as OOD (useful for sanity checks that score an ID file as if it were OOD).
    """
    return read_table(path, _LABEL_COLUMNS, "f")[1]
