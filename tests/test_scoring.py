"""Reference store construction, the four score kinds, thresholding,
detection, and store persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noodle import scoring
from noodle.decompose import normalize_columns
from noodle.files import array_checksum
from noodle.scoring import (
    DEFAULT_KNN_K,
    ZERO_QUERY_SCORE,
    EmbeddingStore,
    batch_scores,
    build_store,
    load_store,
    save_store,
    select_threshold,
)
from oracles import (
    knn_full_sort,
    logsumexp_mp,
    mahalanobis_direct,
    pooled_regularized_covariance,
)


# Finite float64 values of every magnitude, subnormals and signed zeros included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


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

    def test_zero_norm_samples_dropped_and_counted(self):
        latents = np.random.default_rng(2).standard_normal((3, 6))
        labels = np.array([0, 1, 0, 1, 0, 1])
        latents[:, 4] = 0.0
        store = build_store(latents, labels)
        assert len(store) == 5
        np.testing.assert_array_equal(store.labels, [0, 1, 0, 1, 1])

    def test_overflowing_norms_are_dropped_without_a_warning(self):
        # Each entry is finite, but 1.35e154 squared overflows, so the norm is
        # inf; the suite turns a RuntimeWarning into a failure.
        latents = np.random.default_rng(4).standard_normal((2, 8))
        latents[:, 2:6] = [[1.0], [1.35e154]]
        store = build_store(latents, np.arange(8) % 2)
        assert len(store) == 4
        np.testing.assert_array_equal(store.labels, [0, 1, 0, 1])

    def test_class_emptied_by_drop_is_an_error(self):
        latents = np.random.default_rng(3).standard_normal((3, 4))
        latents[:, 3] = 0.0
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            build_store(latents, labels)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_store(np.eye(2), np.array([0, 1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_store(np.eye(3), np.array([0, -1, 2]))
        with pytest.raises(ValueError):
            build_store(np.eye(3), np.array([0, 1]))


def _score(kind, store, column, k=DEFAULT_KNN_K):
    """``batch_scores`` on a batch of one column, as a float."""
    column = np.asarray(column, dtype=float).reshape(-1, 1)
    return float(batch_scores(kind, store, column, column, column, k)[0])


class TestKnnScore:
    def test_exact_hit_scores_zero(self):
        store = _axis_store()
        assert _score("knn", store, [7.0, 0.0, 0.0], k=1) == 0.0

    def test_antipodal_query_scores_minus_two(self):
        # Single class, every embedding at e0: the query -e0 sits at the
        # sphere diameter from all of them.
        store = build_store(
            np.array([[2.0, 5.0], [0.0, 0.0], [0.0, 0.0]]), np.array([0, 0])
        )
        score = _score("knn", store, [-1.0, 0.0, 0.0], k=1)
        np.testing.assert_allclose(score, -2.0, atol=1e-12)

    def test_zero_query_gets_the_sentinel(self):
        store = _axis_store()
        assert _score("knn", store, np.zeros(3)) == ZERO_QUERY_SCORE

    def test_scale_invariance(self):
        store, rng = _random_store(4)
        q = rng.standard_normal(5)
        assert _score("knn", store, q, k=3) == _score("knn", store, 17.0 * q, k=3)

    def test_matches_full_sort_oracle(self):
        # From 8 coordinates up a distance is a pairwise sum, whose rounding
        # depends on the order the coordinates are added in.
        for dim in (5, 13):
            store, rng = _random_store(5, dim)
            queries = rng.standard_normal((20, dim)).T
            units, _ = normalize_columns(queries)
            for k in (1, 7, len(store), len(store) + 25):
                scores = batch_scores("knn", store, queries, None, None, k)
                for trial, unit in enumerate(units.T):
                    expected = knn_full_sort(store.embeddings, unit, k)
                    assert scores[trial] == expected, (dim, trial, k)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=arrays(
            np.float64,
            st.tuples(st.integers(1, 80), st.integers(1, 12)),
            elements=st.floats(-1.0, 1.0),
        ),
        draw=st.data(),
    )
    def test_equals_full_sort_on_any_store(self, rows, draw):
        # Stores with repeated rows and values, jittered by nothing, by 1e-9 or
        # by Gaussian noise; queries that are store rows, store rows 1e-9 off,
        # zero, or Gaussian; k past the store size; chunks from one query
        # wide up.  Gaussian values make every distance round, so a change in
        # the order the coordinates are summed in shows.
        n, dim = rows.shape
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = rows + draw.draw(st.sampled_from((0.0, 1e-9, 1.0)), label="jitter") * (
            rng.standard_normal(rows.shape)
        )
        # C-ordered rows, as build_store and load_store leave them.
        embeddings = np.ascontiguousarray(
            normalize_columns(np.hstack([np.ones((n, 1)), rows]).T)[0].T
        )
        store = EmbeddingStore(
            embeddings, np.zeros(n, dtype=np.int64), embeddings[:1], np.eye(dim + 1)
        )
        k = draw.draw(st.integers(1, n + 25), label="k")
        kinds = ("row", "near", "zero", "free")
        pick = st.tuples(st.sampled_from(kinds), st.integers(0, n - 1))
        picks = draw.draw(st.lists(pick, min_size=1, max_size=40), label="queries")
        latents = rng.standard_normal((dim + 1, len(picks)))
        for j, (what, i) in enumerate(picks):
            if what == "row":
                latents[:, j] = 3.0 * embeddings[i]
            elif what == "near":
                latents[:, j] = embeddings[i] + 1e-9
            elif what == "zero":
                latents[:, j] = 0.0
        chunk_bytes = draw.draw(st.integers(1, 1 << 14), label="chunk_bytes")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "_CHUNK_BYTES", chunk_bytes)
            scores = batch_scores("knn", store, latents, None, None, k)
        units, norms = normalize_columns(latents)
        expected = [
            knn_full_sort(embeddings, units[:, j], k) if norms[j] > 0 else ZERO_QUERY_SCORE
            for j in range(len(picks))
        ]
        np.testing.assert_array_equal(scores, expected)

    def test_near_ties_beyond_the_candidate_width(self):
        # Sixty rows within 1e-9 of the query: the Gram form cannot rank them,
        # so the query is recomputed against the whole store.
        rng = np.random.default_rng(19)
        cluster = np.eye(8)[:, :1] + 1e-9 * rng.standard_normal((8, 60))
        latents = np.hstack([cluster, rng.standard_normal((8, 40))])
        store = build_store(latents, np.arange(100) % 2)
        query = np.eye(8)[:, :1]
        for k in (1, 5, 30, 60, 70):
            expected = knn_full_sort(store.embeddings, query[:, 0], k)
            assert _score("knn", store, query, k) == expected, k

    def test_monotone_in_k(self):
        store, rng = _random_store(6)
        q = rng.standard_normal(5)
        scores = [_score("knn", store, q, k) for k in range(1, len(store) + 1)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_k_clamps_to_store_size(self):
        store, rng = _random_store(7)
        q = rng.standard_normal(5)
        assert _score("knn", store, q, 10_000) == _score("knn", store, q, len(store))

    def test_validation(self):
        store = _axis_store()
        with pytest.raises(ValueError):
            _score("knn", store, np.zeros(3), k=0)
        with pytest.raises(ValueError):
            _score("knn", store, np.zeros(4))


class TestMahalanobisScore:
    def test_unit_class_mean_scores_zero(self):
        store = _axis_store()
        # Class 0 members are all e0, so its mean is exactly on the sphere.
        assert _score("mahalanobis", store, [3.0, 0.0, 0.0]) == 0.0

    def test_identity_precision_is_negated_squared_euclidean(self):
        store = _axis_store()
        euclid = EmbeddingStore(
            store.embeddings, store.labels, store.class_means, np.eye(3)
        )
        q = np.array([1.0, 1.0, 0.0])
        unit = q / math.sqrt(2.0)
        expected = -min(float(((m - unit) ** 2).sum()) for m in store.class_means)
        np.testing.assert_allclose(_score("mahalanobis", euclid, q), expected, rtol=1e-14)

    def test_matches_direct_oracle(self):
        store, rng = _random_store(8)
        queries = rng.standard_normal((20, 5)).T
        scores = batch_scores("mahalanobis", store, queries, None, None)
        for trial, q in enumerate(queries.T):
            unit = q / np.linalg.norm(q)
            oracle = mahalanobis_direct(store.class_means, store.shared_precision, unit)
            np.testing.assert_allclose(scores[trial], oracle, rtol=1e-12)

    def test_zero_query_scored_against_raw_origin(self):
        store, _ = _random_store(9)
        forms = np.einsum(
            "ij,jk,ik->i", store.class_means, store.shared_precision, store.class_means
        )
        np.testing.assert_allclose(
            _score("mahalanobis", store, np.zeros(5)), -forms.min(), rtol=1e-14
        )

    def test_wrong_latent_width(self):
        with pytest.raises(ValueError):
            _score("mahalanobis", _axis_store(), np.ones(4))


class TestOutputScores:
    def test_msp_fixture(self):
        assert _score("msp", None, [0.1, 0.7, 0.2]) == 0.7

    def test_msp_validation(self):
        for probs in ([0.5, 0.6], [-0.1, 1.1], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                _score("msp", None, probs)

    def test_energy_fixture(self):
        np.testing.assert_allclose(_score("energy", None, np.zeros(2)), math.log(2.0), rtol=1e-15)

    def test_energy_dyadic_shift_is_exact(self):
        # Shifting by a power of two moves every intermediate exactly, so the
        # max-shift stabilization must preserve the identity bit for bit.
        logits = np.array([0.3, -1.2, 2.7])
        assert _score("energy", None, logits + 16.0) == _score("energy", None, logits) + 16.0

    def test_energy_matches_high_precision_oracle(self):
        rng = np.random.default_rng(10)
        columns = [rng.standard_normal(6) * rng.uniform(1, 300) for _ in range(20)]
        scores = batch_scores("energy", None, None, None, np.column_stack(columns))
        for trial, logits in enumerate(columns):
            np.testing.assert_allclose(
                scores[trial], logsumexp_mp(logits), rtol=1e-12, err_msg=str(trial)
            )

    def test_energy_survives_extreme_logits(self):
        logits = np.array([750.0, 749.0, -750.0])
        np.testing.assert_allclose(_score("energy", None, logits), logsumexp_mp(logits), rtol=1e-12)

    def test_energy_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _score("energy", None, [1.0, np.inf])


class TestBatchScores:
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
                assert (scores >= larger.min()).sum() < math.ceil(tpr * n - 1e-9), trial

    def test_threshold_is_an_observed_score(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal(37)
        assert select_threshold(scores, 0.9) in scores

    def test_validation(self):
        with pytest.raises(ValueError):
            select_threshold(np.array([]))
        with pytest.raises(ValueError, match="id_scores contains NaN"):
            select_threshold(np.array([1.0, np.nan, 3.0] * 10))
        assert select_threshold(np.array([-np.inf, 1.0, np.inf]), 1.0) == -np.inf
        for tpr in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                select_threshold(np.array([1.0]), tpr)


class TestPersistence:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=arrays(np.float64, st.tuples(st.integers(4, 40), st.integers(1, 9)), elements=FINITE),
        classes=st.integers(1, 3),
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, rows, classes):
        # Latents with entries of every magnitude below one, subnormals
        # included: the statistics derived on load equal those of the build.
        n = rows.shape[0]
        latents = np.hstack([np.ones((n, 1)), rows / (1.0 + np.abs(rows).max())]).T
        store = build_store(latents, np.arange(n) % classes)
        base = tmp_path_factory.mktemp("store")
        save_store(store, base / "a")
        loaded = load_store(base / "a")
        for name in ("embeddings", "labels", "class_means", "shared_precision"):
            bits = [getattr(s, name).view(np.int64) for s in (loaded, store)]
            np.testing.assert_array_equal(*bits)
        save_store(loaded, base / "b")
        assert (base / "a.csv").read_bytes() == (base / "b.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 6)), elements=FINITE),
        classes=st.integers(1, 3),
    )
    def test_round_trip_keeps_the_checksum(self, tmp_path_factory, rows, classes):
        # Raw latents of any finite size, zero and overflowing columns
        # included (build_store drops those), after one column per class
        # plus one that every build keeps.
        n, dim = rows.shape
        latents = np.hstack([np.ones((dim, classes + 1)), rows.T])
        labels = np.concatenate([np.arange(classes + 1), np.arange(n)]) % classes
        store = build_store(latents, labels)
        base = tmp_path_factory.mktemp("store")
        save_store(store, base / "s")
        loaded = load_store(base / "s")
        checksums = [array_checksum(s.labels, s.embeddings) for s in (loaded, store)]
        assert checksums[0] == checksums[1]

    def test_save_writes_only_the_csv(self, tmp_path):
        store, _ = _random_store(14)
        save_store(store, tmp_path / "s")
        assert [path.name for path in tmp_path.iterdir()] == ["s.csv"]

    def test_scores_identical_after_reload(self, tmp_path):
        store, rng = _random_store(15)
        save_store(store, tmp_path / "s")
        loaded = load_store(tmp_path / "s")
        queries = rng.standard_normal((5, 4))
        for kind in ("knn", "mahalanobis"):
            np.testing.assert_array_equal(
                batch_scores(kind, loaded, queries, None, None, 5),
                batch_scores(kind, store, queries, None, None, 5),
            )

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
