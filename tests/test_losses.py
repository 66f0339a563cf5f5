"""Loss values, exact gradients, and the joint objective.

Finite-difference checks run the losses through the softmax (the library
returns logit gradients), so the comparison covers the analytic softmax
pullback as well as the loss formulas.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from noodle.linalg import l21_norm, l21_subgradient
from noodle.losses import (
    GCE_Q,
    LOSS_KINDS,
    TransitionMatrix,
    classification_loss,
    cross_entropy,
    forward_corrected_ce,
    gce_loss,
    init_near_identity,
    joint_loss,
    sce_loss,
    sparsity_loss,
)
from noodle.model import softmax_columns
from oracles import central_difference, max_rel_error


def _random_instance(seed, k=4, b=3):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((k, b))
    labels = rng.integers(0, k, size=b)
    return logits, labels


def _fd_logit_grad(loss_from_probs, logits, step=1e-5):
    return central_difference(lambda z: loss_from_probs(softmax_columns(z)), logits.copy(), step)


class TestCrossEntropy:
    def test_uniform_is_log_k(self):
        probs = np.full((4, 3), 0.25)
        out = cross_entropy(probs, np.array([0, 2, 3]))
        np.testing.assert_allclose(out.value, math.log(4.0), rtol=1e-15)

    def test_confident_prediction_vanishes(self):
        eps = 1e-9
        probs = np.full((3, 2), eps / 2)
        labels = np.array([1, 0])
        probs[labels, np.arange(2)] = 1.0 - eps
        assert cross_entropy(probs, labels).value <= 1e-8

    def test_gradient_matches_finite_differences(self):
        logits, labels = _random_instance(1)
        out = cross_entropy(softmax_columns(logits), labels)
        numeric = _fd_logit_grad(lambda p: cross_entropy(p, labels).value, logits)
        assert max_rel_error(out.grad_logits, numeric) <= 1e-5

    def test_no_theta_or_latent_dependence(self):
        logits, labels = _random_instance(2)
        out = cross_entropy(softmax_columns(logits), labels)
        assert out.grad_theta is None and out.grad_latent is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.full((3, 2), 0.2), np.array([0, 1]))  # columns sum to 0.6
        with pytest.raises(ValueError):
            cross_entropy(np.full((3, 2), 1 / 3), np.array([0, 5]))


class TestForwardCorrectedCe:
    def test_exact_identity_reduces_to_cross_entropy(self):
        # theta = 1000 I realizes the identity matrix exactly in float64.
        logits, labels = _random_instance(3)
        probs = softmax_columns(logits)
        identity = TransitionMatrix(1000.0 * np.eye(4))
        np.testing.assert_array_equal(identity.realized(), np.eye(4))
        corrected = forward_corrected_ce(probs, identity, labels)
        plain = cross_entropy(probs, labels)
        assert corrected.value == plain.value
        np.testing.assert_allclose(corrected.grad_logits, plain.grad_logits, atol=1e-15)

    def test_uniform_transition_kills_the_logit_gradient(self):
        logits, labels = _random_instance(4)
        probs = softmax_columns(logits)
        uniform = TransitionMatrix(np.zeros((4, 4)))
        out = forward_corrected_ce(probs, uniform, labels)
        np.testing.assert_allclose(out.value, math.log(4.0), rtol=1e-12)
        np.testing.assert_allclose(out.grad_logits, 0.0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((3, 2))
        labels = rng.integers(0, 3, size=2)
        theta = rng.standard_normal((3, 3))
        probs = softmax_columns(logits)
        out = forward_corrected_ce(probs, TransitionMatrix(theta.copy()), labels)

        numeric_logits = _fd_logit_grad(
            lambda p: forward_corrected_ce(p, TransitionMatrix(theta.copy()), labels).value,
            logits,
        )
        assert max_rel_error(out.grad_logits, numeric_logits) <= 1e-5

        numeric_theta = central_difference(
            lambda t: forward_corrected_ce(probs, TransitionMatrix(t.copy()), labels).value,
            theta.copy(),
        )
        assert max_rel_error(out.grad_theta, numeric_theta) <= 1e-5

    def test_near_identity_never_exceeds_plain_ce_by_much(self):
        # One-sided bound that holds for every input: the corrected value is
        # at most plain CE minus log(diag_mass), so at diag mass 0.999 it can
        # exceed plain CE by no more than ~0.001.
        for seed in range(10):
            logits, labels = _random_instance(seed, k=5, b=4)
            logits *= 4.0  # include near-degenerate probability columns
            probs = softmax_columns(logits)
            near = init_near_identity(5, 0.999)
            delta = (
                forward_corrected_ce(probs, near, labels).value
                - cross_entropy(probs, labels).value
            )
            assert delta <= 0.01

    def test_near_identity_stays_close_to_plain_ce(self):
        # Two-sided closeness needs the label probability bounded away from
        # zero; with p_y >= 0.05 the diag-0.999 correction moves the value by
        # at most 0.01.
        rng = np.random.default_rng(30)
        near = init_near_identity(5, 0.999)
        for _ in range(10):
            logits = rng.standard_normal((5, 4))
            probs = softmax_columns(logits)
            labels = probs.argmax(axis=0)
            assert (probs[labels, np.arange(4)] >= 0.05).all()
            delta = abs(
                forward_corrected_ce(probs, near, labels).value
                - cross_entropy(probs, labels).value
            )
            assert delta <= 0.01

    def test_class_count_mismatch(self):
        probs = softmax_columns(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            forward_corrected_ce(probs, init_near_identity(3), np.array([0, 1]))


class TestInitNearIdentity:
    def test_two_class_realization(self):
        t = init_near_identity(2, 0.99).realized()
        np.testing.assert_allclose(t, [[0.99, 0.01], [0.01, 0.99]], atol=1e-12)

    def test_ten_class_off_diagonal_mass(self):
        t = init_near_identity(10, 0.99).realized()
        np.testing.assert_allclose(np.diagonal(t), 0.99, atol=1e-12)
        off = t[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off, 0.01 / 9.0, atol=1e-12)

    def test_rows_always_sum_to_one(self):
        for k, mass in ((2, 0.6), (5, 0.99), (8, 0.3)):
            t = init_near_identity(k, mass).realized()
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_stay_stochastic_after_sgd_updates(self):
        # Softmax parameterization keeps T feasible under arbitrary updates.
        transition = init_near_identity(4, 0.9)
        rng = np.random.default_rng(6)
        for _ in range(50):
            transition.theta -= 0.05 * rng.standard_normal((4, 4))
        t = transition.realized()
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
        assert (t > 0).all() and (t < 1).all()

    def test_mass_range_validation(self):
        with pytest.raises(ValueError):
            init_near_identity(4, 0.25)  # equals 1/K
        with pytest.raises(ValueError):
            init_near_identity(4, 1.0)
        with pytest.raises(ValueError):
            init_near_identity(1, 0.9)


class TestSce:
    def test_exact_onehot_gives_zero(self):
        labels = np.array([2, 0])
        probs = np.zeros((3, 2))
        probs[labels, np.arange(2)] = 1.0
        assert sce_loss(probs, labels).value == 0.0

    def test_gradient_matches_finite_differences(self):
        logits, labels = _random_instance(8)
        out = sce_loss(softmax_columns(logits), labels)
        numeric = _fd_logit_grad(lambda p: sce_loss(p, labels).value, logits)
        assert max_rel_error(out.grad_logits, numeric) <= 1e-5


class TestGce:
    def test_onehot_is_zero(self):
        labels = np.array([1])
        probs = np.zeros((3, 1))
        probs[1, 0] = 1.0
        assert gce_loss(probs, labels).value == 0.0

    def test_uniform_four_classes(self):
        # (1 - 0.25**q) / q for both samples.
        probs = np.full((4, 2), 0.25)
        assert gce_loss(probs, np.array([0, 3])).value == (1.0 - 0.25**GCE_Q) / GCE_Q

    def test_gradient_matches_finite_differences(self):
        logits, labels = _random_instance(9)
        out = gce_loss(softmax_columns(logits), labels)
        numeric = _fd_logit_grad(lambda p: gce_loss(p, labels).value, logits)
        assert max_rel_error(out.grad_logits, numeric) <= 1e-5


class TestSparsityLoss:
    def test_zero_residual(self):
        out = sparsity_loss(np.zeros((4, 3)))
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad_latent, 0.0)

    def test_single_column_values(self):
        out = sparsity_loss(np.array([[3.0], [4.0]]))
        assert out.value == 5.0
        np.testing.assert_allclose(out.grad_latent, [[0.6], [0.8]], rtol=1e-15)

    def test_delegates_to_l21_kernels(self):
        m = np.random.default_rng(10).standard_normal((5, 7))
        out = sparsity_loss(m)
        assert out.value == l21_norm(m) / 7
        np.testing.assert_array_equal(out.grad_latent, l21_subgradient(m) / 7)
        assert out.grad_logits is None and out.grad_theta is None

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            sparsity_loss(np.zeros((4, 0)))


class TestJointLoss:
    def test_lambda_zero_is_the_corrected_loss(self):
        logits, labels = _random_instance(11)
        corrected = cross_entropy(softmax_columns(logits), labels)
        sparse = sparsity_loss(np.random.default_rng(12).standard_normal((5, 3)))
        out = joint_loss(corrected, sparse, 0.0)
        assert out.value == corrected.value
        np.testing.assert_array_equal(out.grad_logits, corrected.grad_logits)
        assert out.grad_latent is None

    def test_weighted_sum_arithmetic(self):
        from noodle.losses import LossOutput

        out = joint_loss(LossOutput(1.0), LossOutput(2.0), 0.005)
        assert out.value == 1.0 + 0.005 * 2.0
        np.testing.assert_allclose(out.value, 1.01, rtol=1e-12)

    def test_combines_every_gradient_field(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((3, 2))
        labels = rng.integers(0, 3, size=2)
        probs = softmax_columns(logits)
        corrected = forward_corrected_ce(probs, init_near_identity(3, 0.9), labels)
        sparse = sparsity_loss(rng.standard_normal((6, 2)))
        out = joint_loss(corrected, sparse, 0.25)
        np.testing.assert_allclose(out.value, corrected.value + 0.25 * sparse.value, rtol=1e-15)
        np.testing.assert_array_equal(out.grad_logits, corrected.grad_logits)
        np.testing.assert_array_equal(out.grad_theta, corrected.grad_theta)
        np.testing.assert_array_equal(out.grad_latent, 0.25 * sparse.grad_latent)

    def test_linearity_under_common_scaling(self):
        from dataclasses import replace

        logits, labels = _random_instance(14)
        corrected = cross_entropy(softmax_columns(logits), labels)
        sparse = sparsity_loss(np.random.default_rng(15).standard_normal((4, 3)))
        base = joint_loss(corrected, sparse, 0.01)
        doubled = joint_loss(
            replace(corrected, value=2.0 * corrected.value),
            replace(sparse, value=2.0 * sparse.value),
            0.01,
        )
        assert doubled.value == 2.0 * base.value

    def test_negative_weight_rejected(self):
        from noodle.losses import LossOutput

        with pytest.raises(ValueError):
            joint_loss(LossOutput(1.0), LossOutput(1.0), -0.1)


class TestDispatcher:
    def test_every_kind_runs_and_reports_dependencies(self):
        logits, labels = _random_instance(16)
        probs = softmax_columns(logits)
        transition = init_near_identity(4, 0.9)
        for kind in LOSS_KINDS:
            out = classification_loss(kind, probs, labels, transition)
            assert np.isfinite(out.value)
            assert out.grad_logits is not None
            if kind == "cm":
                assert out.grad_theta is not None
            else:
                assert out.grad_theta is None

    def test_cm_requires_a_transition(self):
        probs = softmax_columns(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="transition"):
            classification_loss("cm", probs, np.array([0]))

    def test_unknown_kind_rejected(self):
        probs = softmax_columns(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="unknown loss kind"):
            classification_loss("mae", probs, np.array([0]))


def test_every_loss_passes_the_fd_sweep():
    # Invariant sweep: random small instances (K <= 5, B <= 4), all kinds,
    # relative tolerance 1e-4 at step 1e-5.
    rng = np.random.default_rng(17)
    for trial in range(10):
        k = int(rng.integers(2, 6))
        b = int(rng.integers(1, 5))
        logits = rng.standard_normal((k, b))
        labels = rng.integers(0, k, size=b)
        theta = rng.standard_normal((k, k))
        transition = TransitionMatrix(theta.copy())
        for kind in LOSS_KINDS:
            out = classification_loss(kind, softmax_columns(logits), labels, transition)
            numeric = _fd_logit_grad(
                lambda p: classification_loss(kind, p, labels, TransitionMatrix(theta.copy())).value,
                logits,
            )
            assert max_rel_error(out.grad_logits, numeric) <= 1e-4, (trial, kind)
