"""The benchmark's own reference computations for its output self-check.

They are written independently of ``noodle.metrics`` and ``noodle.scoring``
(pairwise counting instead of rank sums, a full sort instead of a partition)
so that a wrong result in the package cannot also pass the check.
"""

from __future__ import annotations

import numpy as np

# Scores recomputed by brute force may differ from the package's in the last
# bits once its kNN kernel is rewritten (say, through inner products).
KNN_ATOL = 1e-9
METRIC_ATOL = 1e-12


def auroc_pairwise(id_scores: np.ndarray, ood_scores: np.ndarray, chunk: int = 256) -> float:
    """P(id > ood) + P(id == ood) / 2 over every (id, ood) pair."""
    ood = np.asarray(ood_scores, dtype=float)
    wins = ties = 0
    for lo in range(0, len(id_scores), chunk):
        block = np.asarray(id_scores[lo : lo + chunk], dtype=float)[:, None]
        wins += int((block > ood).sum())
        ties += int((block == ood).sum())
    return (wins + 0.5 * ties) / (len(id_scores) * len(ood))


def fpr_scan(id_scores: np.ndarray, ood_scores: np.ndarray, tpr: float = 0.95) -> float:
    """Share of OOD scores at or above the highest threshold that keeps at
    least ``tpr`` of the ID scores at or above it."""
    ids = np.sort(np.asarray(id_scores, dtype=float))[::-1]
    need = int(np.ceil(tpr * len(ids) - 1e-9))
    tau = ids[min(max(need, 1), len(ids)) - 1]
    return float(np.mean(np.asarray(ood_scores, dtype=float) >= tau))


def knn_brute_force(embeddings: np.ndarray, latents: np.ndarray, k: int) -> np.ndarray:
    """Negated distance from each unit-normalized latent column to its k-th
    nearest store row; a zero latent scores -2 (the sphere's diameter)."""
    out = np.empty(latents.shape[1])
    for j in range(latents.shape[1]):
        z = latents[:, j]
        norm = np.sqrt(np.dot(z, z))
        if norm <= 1e-12:
            out[j] = -2.0
            continue
        dist = np.sqrt(((embeddings - z / norm) ** 2).sum(axis=1))
        out[j] = -np.sort(dist)[min(k, len(dist)) - 1]
    return out


def check_report(label: str, id_scores, ood_scores, auroc: float, fpr95: float,
                 tpr: float = 0.95) -> list[str]:
    """Problems found re-deriving a report's metrics from its raw scores."""
    problems = []
    ref_auroc = auroc_pairwise(np.asarray(id_scores), np.asarray(ood_scores))
    if abs(ref_auroc - auroc) > METRIC_ATOL:
        problems.append(f"{label}: auroc {auroc!r} != pairwise {ref_auroc!r}")
    ref_fpr = fpr_scan(id_scores, ood_scores, tpr)
    if abs(ref_fpr - fpr95) > METRIC_ATOL:
        problems.append(f"{label}: fpr95 {fpr95!r} != scan {ref_fpr!r}")
    return problems


def check_knn(label: str, embeddings: np.ndarray, latents: np.ndarray, k: int,
              reported: np.ndarray) -> list[str]:
    """Problems found recomputing kNN scores of sampled queries by brute force."""
    expected = knn_brute_force(embeddings, latents, k)
    worst = float(np.max(np.abs(expected - np.asarray(reported))))
    if not worst <= KNN_ATOL:
        return [f"{label}: kNN scores differ from brute force by {worst:.3e}"]
    return []
