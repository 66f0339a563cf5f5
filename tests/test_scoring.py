"""Reference store construction, the four score kinds, thresholding,
detection, and store persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from noodle.scoring import (
    DEFAULT_KNN_K,
    SCORE_KINDS,
    ZERO_QUERY_SCORE,
    EmbeddingStore,
    batch_scores,
    build_store,
    detect,
    energy_score,
    knn_score,
    load_store,
    mahalanobis_score,
    msp_score,
    save_store,
    select_threshold,
)
from oracles import (
    knn_full_sort,
    logsumexp_mp,
    mahalanobis_direct,
    pooled_regularized_covariance,
)


# Finite float64 matrices of every magnitude, subnormals and signed zeros included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_MATRICES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2), elements=FINITE)


def _axis_store():
    # Two classes pinned to coordinate axes; class means come out exactly unit.
    latents = np.array(
        [
            [2.0, 5.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 3.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    labels = np.array([0, 0, 1, 1, 1])
    return build_store(latents, labels)


def _random_store(seed, dim=5, n=40, classes=3):
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((dim, n)) + 0.3
    labels = rng.integers(0, classes, size=n)
    labels[:classes] = np.arange(classes)  # guarantee coverage
    return build_store(latents, labels), rng


class TestBuildStore:
    def test_axis_fixture_statistics(self):
        store = _axis_store()
        assert len(store) == 5 and store.num_classes == 2
        np.testing.assert_allclose(np.linalg.norm(store.embeddings, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(store.class_means[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(store.class_means[1], [0.0, 1.0, 0.0], atol=1e-15)

    def test_precision_matches_recomputed_covariance(self):
        store, _ = _random_store(0)
        oracle_cov = pooled_regularized_covariance(store.embeddings, store.labels, 1e-3)
        identity = store.shared_precision @ oracle_cov
        assert np.abs(identity - np.eye(store.latent_dim)).max() <= 1e-10

    def test_precision_is_symmetric_positive_definite(self):
        store, _ = _random_store(1)
        np.testing.assert_array_equal(store.shared_precision, store.shared_precision.T)
        assert (np.linalg.eigvalsh(store.shared_precision) > 0).all()

    def test_zero_norm_samples_dropped_with_warning(self):
        latents = np.eye(3) @ np.ones((3, 6))
        latents = np.random.default_rng(2).standard_normal((3, 6))
        labels = np.array([0, 1, 0, 1, 0, 1])
        latents[:, 4] = 0.0
        with pytest.warns(RuntimeWarning, match="dropping 1"):
            store = build_store(latents, labels)
        assert len(store) == 5

    def test_class_emptied_by_drop_is_an_error(self):
        latents = np.random.default_rng(3).standard_normal((3, 4))
        latents[:, 3] = 0.0
        labels = np.array([0, 0, 0, 1])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="class 1"):
                build_store(latents, labels)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_store(np.eye(2), np.array([0, 1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_store(np.eye(3), np.array([0, 1, 2]), cov_reg=0.0)
        with pytest.raises(ValueError):
            build_store(np.eye(3), np.array([0, -1, 2]))
        with pytest.raises(ValueError):
            build_store(np.eye(3), np.array([0, 1]))

    def test_meta_is_copied(self):
        meta = {"tag": "x"}
        store = build_store(np.eye(4), np.array([0, 1, 2, 0]), meta=meta)
        meta["tag"] = "mutated"
        assert store.meta["tag"] == "x"


class TestKnnScore:
    def test_exact_hit_scores_zero(self):
        store = _axis_store()
        assert knn_score(store, np.array([7.0, 0.0, 0.0]), k=1) == 0.0

    def test_antipodal_query_scores_minus_two(self):
        # Single class, every embedding at e0: the query -e0 sits at the
        # sphere diameter from all of them.
        store = build_store(
            np.array([[2.0, 5.0], [0.0, 0.0], [0.0, 0.0]]), np.array([0, 0])
        )
        score = knn_score(store, np.array([-1.0, 0.0, 0.0]), k=1)
        np.testing.assert_allclose(score, -2.0, atol=1e-12)

    def test_zero_query_gets_the_sentinel(self):
        store = _axis_store()
        assert knn_score(store, np.zeros(3)) == ZERO_QUERY_SCORE

    def test_scale_invariance(self):
        store, rng = _random_store(4)
        q = rng.standard_normal(5)
        assert knn_score(store, q, k=3) == knn_score(store, 17.0 * q, k=3)

    def test_matches_full_sort_oracle(self):
        store, rng = _random_store(5)
        for trial in range(20):
            q = rng.standard_normal(5)
            unit = q / np.linalg.norm(q)
            for k in (1, 7, len(store), len(store) + 25):
                assert knn_score(store, q, k) == knn_full_sort(store.embeddings, unit, k), (
                    trial,
                    k,
                )

    def test_monotone_in_k(self):
        store, rng = _random_store(6)
        q = rng.standard_normal(5)
        scores = [knn_score(store, q, k) for k in range(1, len(store) + 1)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_k_clamps_to_store_size(self):
        store, rng = _random_store(7)
        q = rng.standard_normal(5)
        assert knn_score(store, q, 10_000) == knn_score(store, q, len(store))

    def test_validation(self):
        store = _axis_store()
        with pytest.raises(ValueError):
            knn_score(store, np.zeros(3), k=0)
        with pytest.raises(ValueError):
            knn_score(store, np.zeros(4))


class TestMahalanobisScore:
    def test_unit_class_mean_scores_zero(self):
        store = _axis_store()
        # Class 0 members are all e0, so its mean is exactly on the sphere.
        assert mahalanobis_score(store, np.array([3.0, 0.0, 0.0])) == 0.0

    def test_identity_precision_is_negated_squared_euclidean(self):
        store = _axis_store()
        euclid = EmbeddingStore(
            store.embeddings, store.labels, store.class_means, np.eye(3)
        )
        q = np.array([1.0, 1.0, 0.0])
        unit = q / math.sqrt(2.0)
        expected = -min(float(((m - unit) ** 2).sum()) for m in store.class_means)
        np.testing.assert_allclose(mahalanobis_score(euclid, q), expected, rtol=1e-14)

    def test_matches_direct_oracle(self):
        store, rng = _random_store(8)
        for trial in range(20):
            q = rng.standard_normal(5)
            unit = q / np.linalg.norm(q)
            oracle = mahalanobis_direct(store.class_means, store.shared_precision, unit)
            np.testing.assert_allclose(mahalanobis_score(store, q), oracle, rtol=1e-12)

    def test_zero_query_scored_against_raw_origin(self):
        store, _ = _random_store(9)
        forms = np.einsum(
            "ij,jk,ik->i", store.class_means, store.shared_precision, store.class_means
        )
        np.testing.assert_allclose(mahalanobis_score(store, np.zeros(5)), -forms.min(), rtol=1e-14)


class TestOutputScores:
    def test_msp_fixture(self):
        assert msp_score(np.array([0.1, 0.7, 0.2])) == 0.7

    def test_msp_validation(self):
        with pytest.raises(ValueError):
            msp_score(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            msp_score(np.array([-0.1, 1.1]))

    def test_energy_fixture(self):
        np.testing.assert_allclose(energy_score(np.zeros(2)), math.log(2.0), rtol=1e-15)

    def test_energy_dyadic_shift_is_exact(self):
        # Shifting by a power of two moves every intermediate exactly, so the
        # max-shift stabilization must preserve the identity bit for bit.
        logits = np.array([0.3, -1.2, 2.7])
        assert energy_score(logits + 16.0) == energy_score(logits) + 16.0

    def test_energy_matches_high_precision_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            logits = rng.standard_normal(6) * rng.uniform(1, 300)
            np.testing.assert_allclose(
                energy_score(logits), logsumexp_mp(logits), rtol=1e-12, err_msg=str(trial)
            )

    def test_energy_survives_extreme_logits(self):
        logits = np.array([750.0, 749.0, -750.0])
        np.testing.assert_allclose(energy_score(logits), logsumexp_mp(logits), rtol=1e-12)

    def test_energy_rejects_non_finite(self):
        with pytest.raises(ValueError):
            energy_score(np.array([1.0, np.inf]))


class TestBatchScores:
    def test_batch_equals_single_for_every_kind(self):
        store, rng = _random_store(11)
        latents = rng.standard_normal((5, 6))
        logits = rng.standard_normal((3, 6))
        shifted = np.exp(logits - logits.max(axis=0))
        probs = shifted / shifted.sum(axis=0)
        singles = {
            "knn": [knn_score(store, c, 3) for c in latents.T],
            "mahalanobis": [mahalanobis_score(store, c) for c in latents.T],
            "msp": [msp_score(c) for c in probs.T],
            "energy": [energy_score(c) for c in logits.T],
        }
        for kind in SCORE_KINDS:
            out = batch_scores(kind, store, latents, probs, logits, k=3)
            np.testing.assert_array_equal(out, singles[kind])

    def test_unknown_kind(self):
        store = _axis_store()
        with pytest.raises(ValueError, match="unknown score kind"):
            batch_scores("cosine", store, np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((2, 1)))


class TestSelectThreshold:
    def test_hundred_point_fixture(self):
        scores = np.arange(1.0, 101.0)
        assert select_threshold(scores, 0.95) == 6.0

    def test_sixty_point_float_ceiling(self):
        # 0.95 * 60 lands just above 57 in floating point; the guard must not
        # let that push the kept count to 58.
        assert select_threshold(np.arange(1.0, 61.0), 0.95) == 4.0

    def test_tpr_one_returns_minimum(self):
        scores = np.array([3.0, -1.5, 2.0])
        assert select_threshold(scores, 1.0) == -1.5

    def test_coverage_and_maximality(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = int(rng.integers(1, 200))
            scores = np.round(rng.standard_normal(n), 1)  # force ties
            tpr = float(rng.uniform(0.05, 1.0))
            tau = select_threshold(scores, tpr)
            assert (scores >= tau).mean() >= tpr - 1e-9, trial
            larger = scores[scores > tau]
            if larger.size:
                # The next candidate up must fail the coverage requirement.
                assert (scores >= larger.min()).mean() < tpr - 1e-9 or math.isclose(
                    (scores >= larger.min()).mean(), tpr
                ) is False, trial

    def test_threshold_is_an_observed_score(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal(37)
        assert select_threshold(scores, 0.9) in scores

    def test_validation(self):
        with pytest.raises(ValueError):
            select_threshold(np.array([]))
        for tpr in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                select_threshold(np.array([1.0]), tpr)


class TestDetect:
    def test_inclusive_boundary(self):
        assert detect(1.0, 1.0) is True
        assert detect(np.nextafter(1.0, -np.inf), 1.0) is False
        assert detect(2.0, 1.0) is True

    def test_array_form(self):
        out = detect(np.array([0.5, 1.0, 1.5]), 1.0)
        assert out.dtype == bool
        np.testing.assert_array_equal(out, [False, True, True])


class TestPersistence:
    @settings(max_examples=40, deadline=None)
    @given(rows=FLOAT_MATRICES, draw=st.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, rows, draw):
        # Unit rows with entries of every magnitude below one, subnormals
        # included; class means and precision at any magnitude.
        n, dim = rows.shape
        rows = np.hstack([np.ones((n, 1)), rows / (1.0 + np.abs(rows).max())])
        store = EmbeddingStore(
            rows / np.linalg.norm(rows, axis=1, keepdims=True),
            np.arange(n) % 3,
            draw.draw(arrays(np.float64, (3, dim + 1), elements=FINITE)),
            np.diag(draw.draw(arrays(np.float64, dim + 1, elements=st.floats(5e-324, 1e307)))),
            {"config_hash": "abc123"},
        )
        base = tmp_path_factory.mktemp("store")
        save_store(store, base / "a")
        loaded = load_store(base / "a")
        for name in ("embeddings", "labels", "class_means", "shared_precision"):
            bits = [getattr(s, name).view(np.int64) for s in (loaded, store)]
            np.testing.assert_array_equal(*bits)
        assert loaded.meta == store.meta
        save_store(loaded, base / "b")
        for suffix in (".csv", ".json"):
            assert (base / f"a{suffix}").read_bytes() == (base / f"b{suffix}").read_bytes()

    def test_scores_identical_after_reload(self, tmp_path):
        store, rng = _random_store(15)
        save_store(store, tmp_path / "s")
        loaded = load_store(tmp_path / "s")
        q = rng.standard_normal(5)
        assert knn_score(loaded, q, 5) == knn_score(store, q, 5)
        assert mahalanobis_score(loaded, q) == mahalanobis_score(store, q)

    def test_foreign_sidecar_rejected(self, tmp_path):
        store, _ = _random_store(16)
        save_store(store, tmp_path / "s")
        sidecar = tmp_path / "s.json"
        sidecar.write_text(sidecar.read_text().replace("noodle-store", "other"))
        with pytest.raises(ValueError, match="not a store sidecar"):
            load_store(tmp_path / "s")

    def test_corrupt_header_rejected(self, tmp_path):
        store, _ = _random_store(17)
        save_store(store, tmp_path / "s")
        csv = tmp_path / "s.csv"
        lines = csv.read_text().splitlines()
        lines[0] = "label,x0,x1,x2,x3,x4"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad header"):
            load_store(tmp_path / "s")

    def test_short_row_rejected(self, tmp_path):
        # Also a malformed label, float and a non-finite value; each names the line.
        store, _ = _random_store(18)
        save_store(store, tmp_path / "s")
        csv = tmp_path / "s.csv"
        lines = csv.read_text().splitlines()
        for bad in ("0,1.0", "x,1,0,0,0,0", "0,1,abc,0,0,0", "0,1,0,nan,0,0"):
            csv.write_text("\n".join([*lines[:2], bad, *lines[3:]]) + "\n")
            with pytest.raises(ValueError, match=r"s\.csv: line 3"):
                load_store(tmp_path / "s")


def test_default_knn_k_is_fifty():
    assert DEFAULT_KNN_K == 50
