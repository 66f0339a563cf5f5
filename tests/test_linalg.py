"""Dense kernels against naive and exact-decomposition oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noodle import linalg
from noodle.linalg import approx_topk_singular_vectors, qr_thin
from oracles import (
    gap_conditioned,
    principal_angles,
    qr_sign_normalized,
    random_orthogonal,
    topk_left_subspace,
)


@st.composite
def qr_inputs(draw):
    """(d, k) matrices, 1 <= k <= d <= 64, scaled by 1e-3 to 1e3, some of
    them rank-deficient and some with all-zero columns."""
    d = draw(st.integers(1, 64))
    k = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(0, k - 1)) if draw(st.booleans()) else k
    a = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, k))
    a[:, draw(st.lists(st.integers(0, k - 1), max_size=k))] = 0.0
    return a * 10.0 ** draw(st.floats(-3.0, 3.0))


class TestQrThin:
    @settings(max_examples=300, deadline=None)
    @given(qr_inputs())
    def test_bit_identical_to_numpy_qr(self, a):
        q, pivots = qr_thin(a)
        q_ref, r_ref = qr_sign_normalized(a)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(pivots, np.diagonal(r_ref))

    @pytest.mark.parametrize(
        "shape", [(5, 0), (0, 0), (160, 150), (1, 1), (64, 64), (129, 129), (300, 129)]
    )
    def test_edge_and_blocked_shapes_match_numpy_qr(self, shape):
        # From 129 columns on LAPACK blocks the factorization, and the block
        # size follows the workspace, so a short workspace changes the bits.
        a = np.random.default_rng(12).standard_normal(shape)
        q, pivots = qr_thin(a)
        q_ref, r_ref = qr_sign_normalized(a)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(pivots, np.diagonal(r_ref))
        assert q.shape == (shape[0], shape[1]) and pivots.shape == (shape[1],)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_input_is_never_written(self, layout):
        # LAPACK factors in place; a buffer that aliases the input must show
        # here, whichever layout would let the input pass as LAPACK's own.
        base = np.random.default_rng(13).standard_normal((40, 10))
        a = {"C": base, "F": np.asfortranarray(base), "strided": base[::2, ::2]}[layout]
        before = a.copy()
        owner = a if a.base is None else a.base
        owner_bytes = owner.tobytes(order="A")
        q, pivots = qr_thin(a)
        assert owner.tobytes(order="A") == owner_bytes
        np.testing.assert_array_equal(a, before)
        q_ref, r_ref = qr_sign_normalized(before)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(pivots, np.diagonal(r_ref))

    def test_identity(self):
        q, pivots = qr_thin(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(pivots, np.ones(3), atol=1e-15)

    def test_single_column(self):
        q, pivots = qr_thin(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[0.6], [0.8]], rtol=1e-15)
        np.testing.assert_allclose(pivots, [5.0], rtol=1e-15)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 3))
        q, pivots = qr_thin(a)
        np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-10 * np.linalg.norm(a))
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
        # R = Q^T A is upper triangular with the pivots on its diagonal.
        r = q.T @ a
        np.testing.assert_allclose(r, np.triu(r), atol=1e-10 * np.linalg.norm(a))
        np.testing.assert_allclose(np.diagonal(r), pivots, rtol=1e-10)

    def test_random_inputs_stay_within_tolerance(self):
        # Frobenius-relative reconstruction and orthonormality bounds.
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 20))
            k = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, k))
            q, pivots = qr_thin(a)
            assert np.linalg.norm(a - q @ (q.T @ a)) / np.linalg.norm(a) <= 1e-10
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-10
            assert (pivots >= 0).all()

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            qr_thin(np.ones((2, 3)))


class TestPowerIteration:
    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(10)
        v = rng.standard_normal(30)
        h = np.outer(u, v)
        q = approx_topk_singular_vectors(h, 1, 5, np.random.default_rng(0))
        cosine = abs(float(q[:, 0] @ (u / np.linalg.norm(u))))
        assert abs(cosine - 1.0) <= 1e-8

    def test_full_subspace_projects_to_identity(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 12))
        q = approx_topk_singular_vectors(h, 5, 8, np.random.default_rng(1))
        np.testing.assert_allclose(q @ (q.T @ h), h, atol=1e-10 * np.linalg.norm(h))

    def test_gap_conditioned_matches_eigh_oracle(self):
        rng = np.random.default_rng(7)
        h = gap_conditioned(16, 64, 4, 2.0, rng)
        q = approx_topk_singular_vectors(h, 4, 20, np.random.default_rng(2))
        angles = principal_angles(q, topk_left_subspace(h, 4))
        assert angles.max() <= 1e-6

    def test_subspace_invariant_under_right_rotation(self):
        rng = np.random.default_rng(8)
        h = gap_conditioned(12, 40, 3, 2.5, rng)
        oracle = topk_left_subspace(h, 3)
        rotation = random_orthogonal(40, rng)
        q_plain = approx_topk_singular_vectors(h, 3, 20, np.random.default_rng(3))
        q_rotated = approx_topk_singular_vectors(h @ rotation, 3, 20, np.random.default_rng(3))
        a_plain = principal_angles(q_plain, oracle).max()
        a_rotated = principal_angles(q_rotated, oracle).max()
        assert abs(a_plain - a_rotated) <= 1e-8

    def test_orthonormal_for_any_iteration_count(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((10, 25))
        for n_iter in (1, 2, 3, 7):
            q = approx_topk_singular_vectors(h, 4, n_iter, np.random.default_rng(n_iter))
            assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-10

    def test_zero_matrix_returns_orthonormal_basis(self):
        q = approx_topk_singular_vectors(np.zeros((6, 9)), 3, 5, np.random.default_rng(4))
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_rank_deficient_sweeps_are_repaired(self, monkeypatch):
        # A rank-2 h leaves two of the k=4 power-iteration columns with zero
        # pivots on every sweep, so each sweep replaces them with random
        # directions orthonormal to the recovered column space.
        repaired = []
        fill = linalg._fill_deficient_columns

        def spy(q, deficient, rng):
            repaired.append(int(np.count_nonzero(deficient)))
            return fill(q, deficient, rng)

        monkeypatch.setattr(linalg, "_fill_deficient_columns", spy)
        rng = np.random.default_rng(11)
        h = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
        q = approx_topk_singular_vectors(h, 4, 5, np.random.default_rng(0))
        assert repaired == [2] * 5
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(q @ (q.T @ h), h, atol=1e-8)
        again = approx_topk_singular_vectors(h, 4, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(q, again)

    def test_deterministic_under_seed(self):
        h = np.random.default_rng(10).standard_normal((8, 20))
        a = approx_topk_singular_vectors(h, 3, 10, np.random.default_rng(42))
        b = approx_topk_singular_vectors(h, 3, 10, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_parameter_validation(self):
        h = np.ones((4, 6))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            approx_topk_singular_vectors(h, 0, 5, rng)
        with pytest.raises(ValueError):
            approx_topk_singular_vectors(h, 5, 5, rng)
        with pytest.raises(ValueError):
            approx_topk_singular_vectors(h, 2, 0, rng)
