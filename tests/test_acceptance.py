"""Acceptance suite: one test per shipping criterion.

Criteria 1-6 are self-contained numerical contracts (subspace recovery,
exact decomposition, gradient checks, metric oracles, noise statistics, and
reference-loop equivalence).  Criteria 7-9 run the full detection protocol:
4 classes in 32 dimensions, 500 training points per class, two OOD sets,
five seeds, NOODLE (forward-corrected loss + residual sparsity + kNN) against
a plain cross-entropy baseline, at 40% label noise and at 0%.  The protocol
block is computed once in a session fixture and reused; a complete second
pass, run in two processes (the runner's and one pool worker), backs the
bit-identical reproducibility criterion, so it also checks that the pool
reproduces a serial sweep.

Each test prints one summary line; run pytest with `-s` to see them inline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from noodle.cli import run_experiment
from noodle.datagen import NoiseSpec, inject_symmetric_noise, make_gaussian_mixture
from noodle.decompose import grad_through_split, split_features
from noodle.linalg import approx_topk_singular_vectors
from noodle.losses import TransitionMatrix, classification_loss, sparsity_loss
from noodle.metrics import auroc, fpr_at_tpr
from noodle.model import load_checkpoint, softmax_columns
from noodle.trainer import TrainConfig, params_checksum, train
from oracles import (
    auroc_pairwise,
    central_difference,
    fpr_threshold_scan,
    gap_conditioned,
    max_rel_error,
    principal_angles,
    reference_ce_loop,
    topk_left_subspace,
)

pytestmark = pytest.mark.acceptance

EXPECTED_RESULTS = Path(__file__).resolve().parent.parent / "expected_results.json"

PROTOCOL_SEEDS = (0, 1, 2, 3, 4)
PROTOCOL_GEN = dict(
    classes=4,
    per_class=500,
    dim=32,
    separation=6.0,
    spread=1.0,
    val_per_class=50,
    test_per_class=250,
    ood_size=1000,
    ood_modes=["far_cluster", "uniform_shell"],
)
PROTOCOL_METHODS = [
    {"name": "noodle", "loss_kind": "cm", "lambda": 0.001, "k": 50},
    {"name": "ce_baseline", "loss_kind": "ce", "lambda": 0.0, "k": 50},
]


def _announce(line: str) -> None:
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# Protocol machinery (criteria 7-9)


def _protocol_pass(out_dir: Path, noise_rate: float, threads: int = 1) -> dict:
    """One (method x seed) sweep at the given noise level, through the
    experiment runner in ``threads`` processes; each cell's parameter checksum
    is read back from its checkpoint."""
    spec = {
        "dataset": PROTOCOL_GEN,
        "noise": {"rate": noise_rate},
        "train": {"t_diag_init": 0.65},
        "methods": PROTOCOL_METHODS,
        "seeds": list(PROTOCOL_SEEDS),
    }
    comparison = run_experiment(spec, "protocol.json", out_dir, threads)
    out = {"comparison_json": (out_dir / "comparison.json").read_bytes()}
    for row in comparison["rows"]:
        name = row["method"]
        assert row["failures"] == 0 and row["seeds"] == len(PROTOCOL_SEEDS), row
        per_seed = comparison["methods"][name]["per_seed"]
        checkpoints = [out_dir / "runs" / name / f"seed{s}" / "checkpoint.json" for s in PROTOCOL_SEEDS]
        out[name] = {
            "per_seed": [
                dict(per_seed[str(s)]["average"], checksum=params_checksum(load_checkpoint(c)[0]))
                for s, c in zip(PROTOCOL_SEEDS, checkpoints)
            ],
            "fpr95": row["fpr95_mean"],
            "auroc": row["auroc_mean"],
            "id_accuracy": row["id_acc_mean"],
        }
    return out


@pytest.fixture(scope="session")
def protocol(tmp_path_factory):
    root = tmp_path_factory.mktemp("protocol")
    runs = {}
    start = time.perf_counter()
    runs["noisy"] = _protocol_pass(root / "noisy", 0.4)
    runs["noisy_seconds"] = time.perf_counter() - start
    runs["clean"] = _protocol_pass(root / "clean", 0.0)
    # Complete second pass, fresh directories and the worker pool, for the
    # reproducibility check.
    runs["noisy_again"] = _protocol_pass(root / "noisy2", 0.4, threads=2)
    runs["clean_again"] = _protocol_pass(root / "clean2", 0.0, threads=2)
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: subspace recovery accuracy and speed


def test_criterion_1_power_iteration_recovers_gapped_subspaces():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        h = gap_conditioned(16, 64, 4, 2.0, rng)
        basis = approx_topk_singular_vectors(h, 4, 20, rng)
        exact = topk_left_subspace(h, 4)
        worst = max(worst, principal_angles(exact, basis).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _announce(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - max principal angle "
        f"{worst:.2e} (<= 1e-6), 50 recoveries in {elapsed:.3f}s (< 1s)"
    )
    assert worst <= 1e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: exact split identities


def test_criterion_2_decomposition_identities_hold():
    rng = np.random.default_rng(102)
    worst_recon = worst_ortho = worst_leak = 0.0
    for _ in range(100):
        latent = int(rng.integers(2, 33))
        batch = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(latent, batch) + 1))
        h = rng.standard_normal((latent, batch)) * rng.uniform(0.2, 5.0)
        split = split_features(h, k, int(rng.integers(1, 11)), rng)
        worst_recon = max(
            worst_recon, np.abs(split.id_part + split.ood_part - split.normalized).max()
        )
        worst_ortho = max(
            worst_ortho, np.linalg.norm(split.basis.T @ split.basis - np.eye(k))
        )
        worst_leak = max(worst_leak, np.abs(split.basis.T @ split.ood_part).max())
    ok = worst_recon <= 1e-12 and worst_ortho <= 1e-10 and worst_leak <= 1e-8
    _announce(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - reconstruction {worst_recon:.2e} "
        f"(<= 1e-12), orthonormality {worst_ortho:.2e} (<= 1e-10), "
        f"subspace leak {worst_leak:.2e} (<= 1e-8) over 100 batches"
    )
    assert worst_recon <= 1e-12
    assert worst_ortho <= 1e-10
    assert worst_leak <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 3: every loss gradient survives finite differences


def test_criterion_3_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(103)
    worst = {kind: 0.0 for kind in ("ce", "cm", "sce", "gce", "sparsity")}
    for _ in range(20):
        k = int(rng.integers(2, 6))
        b = int(rng.integers(1, 5))
        logits = rng.standard_normal((k, b))
        labels = rng.integers(0, k, size=b)
        theta = rng.standard_normal((k, k))
        for kind in ("ce", "cm", "sce", "gce"):
            out = classification_loss(
                kind, softmax_columns(logits), labels, TransitionMatrix(theta.copy())
            )
            numeric = central_difference(
                lambda z: classification_loss(
                    kind, softmax_columns(z), labels, TransitionMatrix(theta.copy())
                ).value,
                logits.copy(),
            )
            worst[kind] = max(worst[kind], max_rel_error(out.grad_logits, numeric))

        latent = int(rng.integers(3, 7))
        h = rng.standard_normal((latent, b + 1)) + 0.4
        split = split_features(h, int(rng.integers(1, latent)), 10, rng)
        if np.linalg.norm(split.ood_part, axis=0).min() <= 1e-3:
            continue  # too close to the L2,1 kink for finite differences
        sparse = sparsity_loss(split.ood_part)
        analytic = grad_through_split(split, sparse.grad_latent)

        def frozen_q_loss(x):
            normalized = x / np.linalg.norm(x, axis=0)
            residual = normalized - split.basis @ (split.basis.T @ normalized)
            return float(np.linalg.norm(residual, axis=0).sum()) / x.shape[1]

        numeric = central_difference(frozen_q_loss, h.copy())
        worst["sparsity"] = max(worst["sparsity"], max_rel_error(analytic, numeric))

    ok = max(worst.values()) <= 1e-4
    summary = ", ".join(f"{kind} {err:.2e}" for kind, err in worst.items())
    _announce(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - max relative FD error per path: "
        f"{summary} (all <= 1e-4)"
    )
    for kind, err in worst.items():
        assert err <= 1e-4, kind


# ---------------------------------------------------------------------------
# Criterion 4: metric implementations against brute-force oracles


def test_criterion_4_metrics_match_oracles():
    rng = np.random.default_rng(104)
    worst_auroc = 0.0
    for trial in range(100):
        n_id = int(rng.integers(1, 80))
        n_ood = int(rng.integers(1, 80))
        id_scores = np.round(rng.standard_normal(n_id), 1)
        ood_scores = np.round(rng.standard_normal(n_ood) - rng.uniform(0, 1), 1)
        tpr = float(rng.uniform(0.05, 1.0))

        fast = auroc(id_scores, ood_scores)
        worst_auroc = max(worst_auroc, abs(fast - auroc_pairwise(id_scores, ood_scores)))
        assert fpr_at_tpr(id_scores, ood_scores, tpr) == fpr_threshold_scan(
            id_scores, ood_scores, tpr
        ), trial
        assert auroc(id_scores, ood_scores) + auroc(ood_scores, id_scores) == 1.0, trial

    ok = worst_auroc <= 1e-12
    _announce(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - AUROC vs pairwise oracle "
        f"{worst_auroc:.2e} (<= 1e-12); FPR scan equality and exact antisymmetry "
        f"held on 100 tied score sets"
    )
    assert worst_auroc <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 5: label-noise statistics


def test_criterion_5_noise_injection_statistics():
    rng = np.random.default_rng(105)
    labels = rng.integers(0, 10, size=50_000)
    noisy = inject_symmetric_noise(labels, NoiseSpec("symmetric", 0.4), 10, rng)
    flipped = noisy != labels
    rate = float(flipped.mean())
    offsets = (noisy[flipped] - labels[flipped]) % 10
    counts = np.bincount(offsets, minlength=10)[1:]
    p_value = float(chisquare(counts).pvalue)
    ok = 0.39 <= rate <= 0.41 and p_value >= 0.01
    _announce(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - flip rate {rate:.4f} "
        f"(in [0.39, 0.41]), destination uniformity p={p_value:.3f} (>= 0.01)"
    )
    assert 0.39 <= rate <= 0.41
    assert p_value >= 0.01


# ---------------------------------------------------------------------------
# Criterion 6: the regularizer-off path is the plain loop


def test_criterion_6_lambda_zero_matches_reference_loop():
    rng = np.random.default_rng(106)
    data = make_gaussian_mixture(3, 20, 6, 6.0, 0.8, rng)
    data.noisy_labels = inject_symmetric_noise(
        data.clean_labels, NoiseSpec("symmetric", 0.3), 3, rng
    )
    config = TrainConfig(
        epochs=10, batch_size=8, widths=(16, 8), loss_kind="ce", lam=0.0, seed=0
    )
    ours = params_checksum(train(data, config).params)
    reference = params_checksum(reference_ce_loop(data, config))
    ok = ours == reference
    _announce(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - 10-epoch ce/lambda=0 parameters "
        f"bit-identical to the decomposition-free loop ({ours[:12]}...)"
    )
    assert ours == reference


# ---------------------------------------------------------------------------
# Criteria 7-9: the detection protocol


def test_criterion_7_noodle_beats_ce_under_noise(protocol):
    noodle = protocol["noisy"]["noodle"]
    ce = protocol["noisy"]["ce_baseline"]
    fpr_margin = ce["fpr95"] - noodle["fpr95"]
    auroc_margin = noodle["auroc"] - ce["auroc"]
    elapsed = protocol["noisy_seconds"]

    expected = json.loads(EXPECTED_RESULTS.read_text())
    drift = max(
        abs(noodle["fpr95"] - expected["noisy"]["noodle"]["fpr95"]),
        abs(noodle["auroc"] - expected["noisy"]["noodle"]["auroc"]),
        abs(ce["fpr95"] - expected["noisy"]["ce_baseline"]["fpr95"]),
        abs(ce["auroc"] - expected["noisy"]["ce_baseline"]["auroc"]),
    )
    pinned_fpr_margin = expected["noisy"]["fpr95_margin"]
    pinned_auroc_margin = expected["noisy"]["auroc_margin"]

    ok = (
        fpr_margin >= 0.05
        and auroc_margin >= 0.02
        and elapsed < 120.0
        and drift <= 0.02
        and abs(fpr_margin - pinned_fpr_margin) <= 5e-4
        and abs(auroc_margin - pinned_auroc_margin) <= 5e-4
    )
    _announce(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - 40% noise, 5 seeds: "
        f"FPR95 {noodle['fpr95']:.4f} vs {ce['fpr95']:.4f} (margin {fpr_margin:.4f} >= 0.05), "
        f"AUROC {noodle['auroc']:.4f} vs {ce['auroc']:.4f} (margin {auroc_margin:.4f} >= 0.02), "
        f"{elapsed:.1f}s (< 120s), drift from pinned results {drift:.2e} (<= 0.02)"
    )
    assert fpr_margin >= 0.05
    assert auroc_margin >= 0.02
    assert elapsed < 120.0
    assert drift <= 0.02
    assert abs(fpr_margin - pinned_fpr_margin) <= 5e-4
    assert abs(auroc_margin - pinned_auroc_margin) <= 5e-4


def test_criterion_8_no_clean_data_regression(protocol):
    noodle = protocol["clean"]["noodle"]
    ce = protocol["clean"]["ce_baseline"]
    gap = noodle["fpr95"] - ce["fpr95"]
    expected = json.loads(EXPECTED_RESULTS.read_text())
    drift = max(
        abs(noodle["fpr95"] - expected["clean"]["noodle"]["fpr95"]),
        abs(ce["fpr95"] - expected["clean"]["ce_baseline"]["fpr95"]),
    )
    ok = gap <= 0.05 and drift <= 0.02
    _announce(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - 0% noise: NOODLE FPR95 "
        f"{noodle['fpr95']:.4f} vs CE {ce['fpr95']:.4f} (excess {gap:+.4f} <= 0.05), "
        f"drift from pinned results {drift:.2e} (<= 0.02)"
    )
    assert gap <= 0.05
    assert drift <= 0.02


def test_criterion_9_protocol_is_bit_reproducible(protocol):
    mismatches = []
    for block, again in (("noisy", "noisy_again"), ("clean", "clean_again")):
        if protocol[block]["comparison_json"] != protocol[again]["comparison_json"]:
            mismatches.append(f"{block}/comparison.json")
        for name in (m["name"] for m in PROTOCOL_METHODS):
            first, second = protocol[block][name], protocol[again][name]
            for key in ("fpr95", "auroc", "id_accuracy"):
                if first[key] != second[key]:
                    mismatches.append(f"{block}/{name}/{key}")
            for seed, (a, b) in enumerate(zip(first["per_seed"], second["per_seed"])):
                if a != b:  # includes the parameter checksum
                    mismatches.append(f"{block}/{name}/seed{seed}")
    ok = not mismatches
    _announce(
        f"criterion 9: {'PASS' if ok else 'FAIL'} - a second full pass in 2 processes over all 20 "
        f"protocol cells reproduced every metric and parameter checksum exactly"
        + ("" if ok else f"; mismatches: {', '.join(mismatches)}")
    )
    assert not mismatches
