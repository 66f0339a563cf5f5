"""Column normalization, the subspace/residual split, and its gradient."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noodle.decompose import (
    grad_through_split,
    normalize_columns,
    split_features,
)
from noodle.losses import sparsity_loss
from oracles import best_rank_k, central_difference, gap_conditioned, max_rel_error


@st.composite
def split_inputs(draw):
    """``(h, k_rank, n_iter, rng)`` for a random ``(d, n)`` latent matrix at
    scales from 1e-3 to 1e3, some of whose columns may be zero."""
    d = draw(st.integers(1, 16))
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, min(d, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((d, n)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    h[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    return h, k, draw(st.integers(1, 8)), rng


class TestNormalizeColumns:
    def test_unit_columns(self):
        h = np.array([[3.0, 0.0], [4.0, 2.0]])
        scaled, norms = normalize_columns(h)
        np.testing.assert_allclose(np.linalg.norm(scaled, axis=0), 1.0, atol=1e-15)
        np.testing.assert_allclose(norms, [5.0, 2.0], rtol=1e-15)

    def test_degenerate_column_passes_through(self):
        h = np.array([[3.0, 0.0], [4.0, 0.0]])
        scaled, norms = normalize_columns(h)
        np.testing.assert_array_equal(scaled[:, 1], 0.0)
        assert norms[1] == 0.0 and norms[0] == 5.0

    def test_sub_eps_column_flagged_not_scaled(self):
        h = np.array([[1e-13], [0.0]])
        scaled, norms = normalize_columns(h)
        np.testing.assert_array_equal(scaled, h)
        assert norms[0] == 0.0

    def test_reconstruction_from_norms(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((6, 9))
        scaled, norms = normalize_columns(h)
        np.testing.assert_allclose(scaled * norms, h, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalize_columns(np.zeros(3))


class TestSplitFeatures:
    def test_low_rank_input_has_tiny_residual(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        h = basis @ rng.standard_normal((2, 12))
        split = split_features(h, 2, 15, rng)
        assert np.abs(split.ood_part).max() <= 1e-8

    def test_full_rank_request_reconstructs_exactly(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 10))
        split = split_features(h, 4, 10, rng)
        assert np.abs(split.ood_part).max() <= 1e-10
        np.testing.assert_allclose(split.id_part, split.normalized, atol=1e-10)

    def test_residual_matches_best_rank_k_on_gapped_spectra(self):
        # With a multiplicative spectral gap the iteration converges, so the
        # residual energy equals the optimal rank-k approximation error of the
        # normalized matrix.
        rng = np.random.default_rng(3)
        for trial in range(5):
            h = gap_conditioned(10, 30, 3, 4.0, rng)
            split = split_features(h, 3, 25, rng)
            optimal = np.linalg.norm(split.normalized - best_rank_k(split.normalized, 3))
            achieved = np.linalg.norm(split.ood_part)
            assert abs(achieved - optimal) <= 1e-6, trial

    def test_residual_never_beats_the_svd(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            h = rng.standard_normal((7, 11))
            split = split_features(h, 3, 4, rng)
            optimal = np.linalg.norm(split.normalized - best_rank_k(split.normalized, 3))
            assert np.linalg.norm(split.ood_part) >= optimal - 1e-10, trial

    @settings(max_examples=200, deadline=None)
    @given(split_inputs())
    def test_split_invariants_hold_on_random_batches(self, drawn):
        # Exact-decomposition contract: the basis is orthonormal, the parts
        # sum back to the normalized matrix, the residual has no component
        # inside the subspace, and the gradient pulled back through the split
        # is orthogonal to each scaled column's unit direction.
        h, k, n_iter, rng = drawn
        split = split_features(h, k, n_iter, rng)
        assert np.abs(split.basis.T @ split.basis - np.eye(k)).max() <= 1e-12
        assert np.abs(split.id_part + split.ood_part - split.normalized).max() <= 1e-12
        assert np.abs(split.basis.T @ split.ood_part).max() <= 1e-12
        grad = rng.standard_normal(h.shape)
        out = grad_through_split(split, grad)
        scaled = split.col_norms > 0
        radial = (split.normalized * out).sum(axis=0)[scaled]
        # The pullback divides by the column norm; so does its rounding error.
        scale = np.linalg.norm(grad, axis=0)[scaled] / split.col_norms[scaled]
        assert np.all(np.abs(radial) <= 1e-12 * scale)

    def test_normalized_columns_are_unit_before_splitting(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 7)) * 3.0
        split = split_features(h, 2, 5, rng)
        np.testing.assert_allclose(np.linalg.norm(split.normalized, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(split.normalized * split.col_norms, h, atol=1e-12)

    def test_degenerate_column_survives_the_pipeline(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((6, 5))
        h[:, 2] = 0.0
        split = split_features(h, 2, 6, rng)
        assert split.col_norms[2] == 0.0
        recon = split.id_part + split.ood_part
        np.testing.assert_allclose(recon[:, 2], 0.0, atol=1e-14)

    def test_oversized_rank_clamps_silently(self):
        # The suite's filterwarnings = ["error"] fails any warning.
        rng = np.random.default_rng(9)
        split = split_features(rng.standard_normal((3, 2)), 5, 4, rng)
        assert split.basis.shape[1] == 2

    def test_deterministic_under_identical_rng(self):
        h = np.random.default_rng(10).standard_normal((6, 8))
        a = split_features(h, 3, 6, np.random.default_rng(11))
        b = split_features(h, 3, 6, np.random.default_rng(11))
        np.testing.assert_array_equal(a.basis, b.basis)
        np.testing.assert_array_equal(a.ood_part, b.ood_part)

    def test_validation(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            split_features(np.zeros(4), 1, 1, rng)
        with pytest.raises(ValueError):
            split_features(np.zeros((3, 3)), 0, 1, rng)
        with pytest.raises(ValueError):
            split_features(np.zeros((3, 3)), 1, 0, rng)


class TestGradThroughSplit:
    def _sparsity_of_residual(self, h, basis):
        normalized, _ = normalize_columns(h)
        residual = normalized - basis @ (basis.T @ normalized)
        return float(np.linalg.norm(residual, axis=0).sum()) / h.shape[1]

    def _check_against_finite_differences(self, seed, shape, shift):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(shape) + shift
        split = split_features(h, 2, 10, rng)
        # Residual columns must be well away from the L2,1 kink.
        assert np.linalg.norm(split.ood_part, axis=0).min() > 1e-3
        analytic = grad_through_split(split, sparsity_loss(split.ood_part).grad_latent)
        numeric = central_difference(
            lambda x: self._sparsity_of_residual(x, split.basis), h.copy()
        )
        assert max_rel_error(analytic, numeric) <= 1e-5

    def test_matches_finite_differences_with_frozen_basis(self):
        self._check_against_finite_differences(13, (5, 3), 0.5)

    def test_matches_finite_differences_without_normalization(self):
        # Zero-mean input that is not normalized beforehand: the split
        # normalizes it itself, so the pullback must undo that step too.
        self._check_against_finite_differences(14, (6, 4), 0.0)

    def test_degenerate_column_gets_identity_pullback(self):
        rng = np.random.default_rng(16)
        h = rng.standard_normal((6, 4))
        h[:, 1] = 0.0
        split = split_features(h, 2, 8, rng)
        grad = rng.standard_normal((6, 4))
        out = grad_through_split(split, grad)
        projected = grad - split.basis @ (split.basis.T @ grad)
        np.testing.assert_array_equal(out[:, 1], projected[:, 1])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        split = split_features(rng.standard_normal((4, 3)), 2, 5, rng)
        with pytest.raises(ValueError):
            grad_through_split(split, np.zeros((4, 5)))


def test_feature_split_reports_rank():
    rng = np.random.default_rng(18)
    split = split_features(rng.standard_normal((6, 9)), 4, 5, rng)
    assert split.basis.shape[1] == 4


def test_no_warning_on_exact_cap_rank():
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = split_features(rng.standard_normal((3, 5)), 3, 4, rng)
    assert split.basis.shape[1] == 3
