"""Detection and classification metrics plus the score-report emitter.

AUROC uses the rank-sum form of the Mann-Whitney statistic with half-credit
ties.  ``average_ranks`` computes the average (tie-midpoint) ranks in NumPy
with one sort: runs of equal values in the sorted scores are the tie groups,
and a group covering sorted positions ``start .. end - 1`` gets rank
``(start + end + 1) / 2``.  The statistic ``U`` is an exact multiple of 1/2
(average ranks are half-integers), so for the sizes this package handles both
``U`` and the pair count ``c = n_id * n_ood`` are exact in float64, in any
summation order; only the final division rounds.  Evaluating the smaller of
``U/c`` and ``(c-U)/c`` and reflecting makes ``auroc(a, b) + auroc(b, a) ==
1.0`` hold exactly, not just to tolerance.

Both metrics reject a NaN score with ``ValueError``; ``±inf`` is ranked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import write_json
from .scoring import reject_nan, select_threshold

REPORT_FORMAT = "noodle-report"


@dataclass
class ScoreReport:
    """One ID-vs-OOD evaluation: raw scores plus derived metrics.

    The raw arrays are always persisted so every metric can be re-derived;
    ``fpr95`` is FPR at the report's ``tpr`` level (0.95 unless overridden).
    """

    dataset: str
    id_scores: np.ndarray
    ood_scores: np.ndarray
    fpr95: float
    auroc: float
    id_accuracy: float
    seed: int
    config_hash: str
    tpr: float = 0.95

    def summary_row(self) -> dict:
        """The report's row of an eval summary: the set's name and sizes and
        its three metrics."""
        return {
            "dataset": self.dataset,
            "n_id": int(self.id_scores.size),
            "n_ood": int(self.ood_scores.size),
            "fpr95": self.fpr95,
            "auroc": self.auroc,
            "id_accuracy": self.id_accuracy,
        }


def fpr_at_tpr(id_scores: np.ndarray, ood_scores: np.ndarray, tpr: float = 0.95) -> float:
    """Fraction of OOD scores at or above the threshold that admits ``tpr``
    of the ID scores (inclusive rule on both sides)."""
    ood_scores = np.asarray(ood_scores, dtype=float).reshape(-1)
    if ood_scores.size == 0:
        raise ValueError("ood_scores must be non-empty")
    reject_nan(ood_scores, "ood_scores")
    tau = select_threshold(id_scores, tpr)
    return float((ood_scores >= tau).sum() / ood_scores.size)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each tie group given the mean of the
    positions it covers; every rank is an exact half-integer.  ``values``
    must hold no NaN."""
    values = np.asarray(values, dtype=float).reshape(-1)
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Probability a random ID score exceeds a random OOD score, ties counted
    half; computed via rank sums in O(n log n)."""
    id_scores = np.asarray(id_scores, dtype=float).reshape(-1)
    ood_scores = np.asarray(ood_scores, dtype=float).reshape(-1)
    n_id, n_ood = id_scores.size, ood_scores.size
    if n_id == 0 or n_ood == 0:
        raise ValueError("both score arrays must be non-empty")
    reject_nan(id_scores, "id_scores")
    reject_nan(ood_scores, "ood_scores")
    ranks = average_ranks(np.concatenate([id_scores, ood_scores]))
    u = float(ranks[:n_id].sum()) - n_id * (n_id + 1) / 2.0
    c = float(n_id) * float(n_ood)
    if 2.0 * u <= c:
        return u / c
    return 1.0 - (c - u) / c


def id_accuracy(pred_labels: np.ndarray, clean_labels: np.ndarray) -> float:
    """Fraction of exact label matches."""
    pred_labels = np.asarray(pred_labels).reshape(-1)
    clean_labels = np.asarray(clean_labels).reshape(-1)
    if pred_labels.size == 0 or pred_labels.shape != clean_labels.shape:
        raise ValueError(
            f"need equal-length non-empty label arrays, got {pred_labels.shape} and {clean_labels.shape}"
        )
    return float((pred_labels == clean_labels).mean())


def make_report(
    dataset: str,
    id_scores: np.ndarray,
    ood_scores: np.ndarray,
    id_acc: float,
    seed: int,
    config_hash: str,
    tpr: float = 0.95,
) -> ScoreReport:
    """Compute the metric pair from raw scores and bundle everything."""
    return ScoreReport(
        dataset=dataset,
        id_scores=np.asarray(id_scores, dtype=float).reshape(-1),
        ood_scores=np.asarray(ood_scores, dtype=float).reshape(-1),
        fpr95=fpr_at_tpr(id_scores, ood_scores, tpr),
        auroc=auroc(id_scores, ood_scores),
        id_accuracy=float(id_acc),
        seed=int(seed),
        config_hash=config_hash,
        tpr=float(tpr),
    )


def emit_report(report: ScoreReport, out_dir: str | os.PathLike) -> None:
    """Write ``report_<dataset>.json`` to ``out_dir``.

    The document always includes the raw score arrays; floats use shortest
    round-trip formatting, so re-parsing recomputes the metrics
    bit-identically.
    """
    path = Path(out_dir) / f"report_{report.dataset}.json"
    try:
        write_json(
            path,
            {
                "format": REPORT_FORMAT,
                "version": 1,
                "dataset": report.dataset,
                "seed": report.seed,
                "config_hash": report.config_hash,
                "tpr": report.tpr,
                "metrics": {
                    "fpr95": report.fpr95,
                    "auroc": report.auroc,
                    "id_accuracy": report.id_accuracy,
                },
                "id_scores": report.id_scores.tolist(),
                "ood_scores": report.ood_scores.tolist(),
            },
        )
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc

