"""Synthetic data generation, noise injection, and the CSV schema."""

from __future__ import annotations

import re
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import chisquare

from noodle import files
from noodle.datagen import (
    LabeledSet,
    NoiseSpec,
    _spread_out_means,
    inject_symmetric_noise,
    load_features_csv,
    load_ood_csv,
    make_gaussian_mixture,
    make_ood_set,
    save_features_csv,
    save_ood_csv,
)
from noodle.files import _read_table_lines, read_table, write_table


# Finite float64 matrices of every magnitude, subnormals and signed zeros included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FEATURES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2), elements=FINITE)


def _mixture(seed, **kwargs):
    defaults = dict(num_classes=4, per_class=50, dim=8, separation=6.0, spread=1.0)
    defaults.update(kwargs)
    return make_gaussian_mixture(rng=np.random.default_rng(seed), **defaults)


def _mixture_means(seed, num_classes=4, dim=8, separation=6.0):
    # The means are the mixture's first draw from its generator.
    return _spread_out_means(num_classes, dim, separation, np.random.default_rng(seed))


class TestGaussianMixture:
    def test_zero_spread_limit_hits_means_exactly(self):
        # spread 1e-300 scales the noise below representability next to O(1)
        # means, so the additions round to the means themselves.
        data = _mixture(0, num_classes=2, per_class=1, spread=1e-300)
        means = _mixture_means(0, num_classes=2)
        np.testing.assert_array_equal(data.features, means[data.clean_labels])

    def test_separated_classes_are_nearest_neighbor_learnable(self):
        data = _mixture(1, per_class=500, dim=32, separation=8.0, spread=1.0)
        # Leave-one-out 1-NN on clean labels.
        gram = data.features @ data.features.T
        sq = np.diag(gram)
        dist2 = sq[:, None] + sq[None, :] - 2.0 * gram
        np.fill_diagonal(dist2, np.inf)
        predicted = data.clean_labels[np.argmin(dist2, axis=1)]
        assert (predicted == data.clean_labels).mean() >= 0.99

    def test_same_seed_is_bit_identical(self):
        a, b = _mixture(7), _mixture(7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.clean_labels, b.clean_labels)

    def test_mean_separation_is_enforced(self):
        means = _mixture_means(3, num_classes=6, separation=9.0, dim=16)
        diffs = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
        diffs[np.diag_indices(6)] = np.inf
        assert diffs.min() >= 9.0

    def test_noisy_labels_start_clean(self):
        data = _mixture(4)
        np.testing.assert_array_equal(data.clean_labels, data.noisy_labels)

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_gaussian_mixture(1, 5, 4, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            make_gaussian_mixture(2, 0, 4, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            make_gaussian_mixture(2, 5, 4, -1.0, 1.0, rng)


class TestOodSet:
    def test_far_cluster_keeps_margin_from_every_class_mean(self):
        data = _mixture(5, per_class=200)
        ood = make_ood_set(data, 500, "far_cluster", np.random.default_rng(6))
        means = np.stack(
            [data.features[data.clean_labels == c].mean(axis=0) for c in range(4)]
        )
        gaps = np.linalg.norm(ood[:, None, :] - means[None, :, :], axis=-1)
        assert gaps.min() >= 3.0  # >= 3 empirical spread units, spread == 1

    def test_uniform_shell_has_constant_radius(self):
        data = _mixture(8, per_class=200)
        ood = make_ood_set(data, 1000, "uniform_shell", np.random.default_rng(9))
        norms = np.linalg.norm(ood, axis=1)
        radius = np.median(norms)
        assert np.abs(norms - radius).max() <= 0.01 * radius
        means = np.stack(
            [data.features[data.clean_labels == c].mean(axis=0) for c in range(4)]
        )
        gaps = np.linalg.norm(ood[:, None, :] - means[None, :, :], axis=-1)
        assert gaps.min() >= 3.0

    def test_single_sample_and_mode_validation(self):
        data = _mixture(10)
        assert make_ood_set(data, 1, "far_cluster", np.random.default_rng(0)).shape == (1, 8)
        with pytest.raises(ValueError):
            make_ood_set(data, 1, "nearby", np.random.default_rng(0))
        with pytest.raises(ValueError):
            make_ood_set(data, 0, "far_cluster", np.random.default_rng(0))


class TestNoiseInjection:
    def test_zero_rate_is_identity(self):
        labels = np.array([0, 1, 2, 3, 2, 1])
        out = inject_symmetric_noise(labels, NoiseSpec("symmetric", 0.0), 4, np.random.default_rng(0))
        np.testing.assert_array_equal(out, labels)

    def test_full_rate_two_classes_flips_everything(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        out = inject_symmetric_noise(labels, NoiseSpec("symmetric", 1.0), 2, np.random.default_rng(1))
        np.testing.assert_array_equal(out, 1 - labels)

    def test_original_array_is_not_modified(self):
        labels = np.zeros(100, dtype=np.int64)
        snapshot = labels.copy()
        inject_symmetric_noise(labels, NoiseSpec("symmetric", 0.9), 5, np.random.default_rng(2))
        np.testing.assert_array_equal(labels, snapshot)

    def test_flip_statistics_at_forty_percent(self):
        labels = np.random.default_rng(3).integers(0, 10, size=50_000)
        noisy = inject_symmetric_noise(
            labels, NoiseSpec("symmetric", 0.4), 10, np.random.default_rng(4)
        )
        flipped = noisy != labels
        assert 0.39 <= flipped.mean() <= 0.41
        # Destinations, re-indexed to "which of the 9 alternatives", should be
        # uniform; chi-square at the 0.01 level.
        offset = (noisy[flipped] - labels[flipped]) % 10  # in 1..9
        counts = np.bincount(offset, minlength=10)[1:]
        assert chisquare(counts).pvalue >= 0.01

    def test_labels_stay_in_range_and_never_self_flip(self):
        # Seeded property loop over rates and class counts.
        rng = np.random.default_rng(5)
        for rate in (0.1, 0.5, 0.9):
            for k in (2, 3, 7):
                labels = rng.integers(0, k, size=2000)
                noisy = inject_symmetric_noise(
                    labels, NoiseSpec("symmetric", rate), k, np.random.default_rng(77)
                )
                assert noisy.min() >= 0 and noisy.max() < k
                changed = noisy != labels
                frac = changed.mean()
                assert abs(frac - rate) <= 3.0 * np.sqrt(rate * (1 - rate) / 2000)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            inject_symmetric_noise(
                np.array([0]), NoiseSpec("asymmetric", 0.1), 2, np.random.default_rng(0)
            )
        with pytest.raises(ValueError):
            inject_symmetric_noise(
                np.array([0]), NoiseSpec("symmetric", 1.5), 2, np.random.default_rng(0)
            )

    def test_spec_is_checked_on_construction_and_frozen(self):
        with pytest.raises(ValueError, match="^noise rate must be in \\[0, 1\\], got -0.1$"):
            NoiseSpec(rate=-0.1)
        with pytest.raises(FrozenInstanceError):
            NoiseSpec().rate = 2.0

    def test_spec_checks_its_types_before_the_range(self):
        # A bool was taken as rate 1.0, and a string was a bare TypeError.
        for kwargs, message in (
            ({"rate": True}, "noise.rate must be a number, got True"),
            ({"rate": "0.4"}, "noise.rate must be a number, got '0.4'"),
            ({"kind": 5}, "noise.kind must be a string, got 5"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                NoiseSpec(**kwargs)


class TestCsvRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(features=FEATURES, draw=st.data())
    def test_round_trip_is_exact(self, tmp_path_factory, features, draw):
        labels = arrays(np.int64, len(features), elements=st.integers(0, 3))
        clean, noisy = draw.draw(labels), draw.draw(labels)
        data = LabeledSet(features, clean, noisy, max(2, int(max(clean.max(), noisy.max())) + 1))
        path = tmp_path_factory.mktemp("csv") / "set.csv"
        save_features_csv(data, path)
        back = load_features_csv(path)
        np.testing.assert_array_equal(back.features.view(np.int64), features.view(np.int64))
        np.testing.assert_array_equal(back.clean_labels, data.clean_labels)
        np.testing.assert_array_equal(back.noisy_labels, data.noisy_labels)
        assert back.num_classes == data.num_classes

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "label,noisy_label,f0,f1\n0,1,1.5,-2.25\n1,1,0.0,3.0\n", encoding="utf-8"
        )
        data = load_features_csv(path)
        np.testing.assert_array_equal(data.features, [[1.5, -2.25], [0.0, 3.0]])
        np.testing.assert_array_equal(data.clean_labels, [0, 1])
        np.testing.assert_array_equal(data.noisy_labels, [1, 1])

    def test_empty_data_section_is_an_error(self, tmp_path):
        # NumPy's bulk parse only warns on an empty body, so the caller's
        # warning filter must not decide whether that is an error.
        path = tmp_path / "empty.csv"
        path.write_text("label,noisy_label,f0\n\n", encoding="utf-8")
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                with pytest.raises(ValueError, match="no data rows"):
                    load_features_csv(path)

    def test_malformed_rows_name_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,noisy_label,f0\n0,0,1.0\n0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            load_features_csv(path)
        path.write_text("label,noisy_label,f0\n0,0,abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_features_csv(path)
        path.write_text("label,noisy_label,f0\n0,0,inf\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            load_features_csv(path)

    def test_label_outside_int64_names_the_line(self, tmp_path):
        # It was a bare OverflowError from the final array build, naming no file or line.
        path = tmp_path / "big.csv"
        path.write_text("label,noisy_label,f0\n0,0,1.0\n99999999999999999999,0,2.0\n", encoding="utf-8")
        message = f"{path}: line 3: label '99999999999999999999' outside the int64 range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_features_csv(path)

    def test_bad_header_is_an_error(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("noisy_label,label,f0\n0,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_features_csv(path)

    def test_class_count_validation(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label,noisy_label,f0\n3,0,1.0\n", encoding="utf-8")
        assert load_features_csv(path).num_classes == 4  # inferred
        path.write_text("label,noisy_label,f0\n-1,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: clean labels outside [0, 2)")):
            load_features_csv(path)

    @settings(max_examples=40, deadline=None)
    @given(features=FEATURES)
    def test_ood_round_trip_uses_sentinel_labels(self, tmp_path_factory, features):
        path = tmp_path_factory.mktemp("ood") / "ood.csv"
        save_ood_csv(features, path)
        first_row = path.read_text(encoding="utf-8").splitlines()[1]
        assert first_row.startswith("-1,-1,")
        np.testing.assert_array_equal(load_ood_csv(path).view(np.int64), features.view(np.int64))


# Fields that one reader or the other may refuse, or read in its own way.
_ODD_FIELDS = (
    "abc", "nan", "-inf", "inf", "1e400", "1_0", "1_0.5", "\uff11", "\u0661", "1.0", "1e3", "",
    " ", " 7 ", "+3", "-0", "-0.0", "4.9e-324", "0x10", "#1", "1\u01fe", "1\x1c", "\x1f2", "\t2",
    "2\xa0", "1 2", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "99999999999999999999",
)


def _refuse(path):
    raise AssertionError(f"{path} went through the line-wise reader")


def _outcome(reader, path):
    """The dtype, shape and bytes of each array ``reader`` returns, or its error."""
    try:
        result = reader(path)
    except ValueError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in result]


class TestTableReaders:
    """``read_table``'s bulk parse against the line-wise reader it falls back to."""

    @settings(max_examples=60, deadline=None)
    @given(features=FEATURES, draw=st.data())
    def test_written_tables_parse_in_bulk_to_the_same_bits(self, tmp_path_factory, features, draw):
        labels = arrays(np.int64, len(features), elements=st.integers(-(2**63), 2**63 - 1))
        path = tmp_path_factory.mktemp("table") / "t.csv"
        write_table(path, draw.draw(labels), draw.draw(labels), features)
        expected = _outcome(_read_table_lines, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(files, "_read_table_lines", _refuse)
            assert _outcome(read_table, path) == expected

    @pytest.mark.parametrize("field", _ODD_FIELDS)
    @pytest.mark.parametrize("column", [0, 2])
    def test_each_odd_field_parses_alike_or_fails_alike(self, tmp_path, field, column):
        row = ["1", "0", "2.5", "-0.5"]
        row[column] = field
        path = tmp_path / "t.csv"
        path.write_text(f"label,noisy_label,f0,f1\n0,1,1.0,2.0\n{','.join(row)}\n", encoding="utf-8")
        assert _outcome(read_table, path) == _outcome(_read_table_lines, path)

    @settings(max_examples=300, deadline=None)
    @given(
        features=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3)), elements=FINITE),
        draw=st.data(),
    )
    def test_mutated_tables_parse_alike_or_fail_alike(self, tmp_path_factory, features, draw):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        labels = np.arange(len(features))
        write_table(path, labels, labels, features)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines]
        kinds = st.sampled_from(("blank", "field", "field", "pad", "drop", "extra"))
        for kind in draw.draw(st.lists(kinds, min_size=1, max_size=6), "edits"):
            i = draw.draw(st.integers(0, len(rows) - 1), "row")
            if not rows[i]:
                continue
            j = draw.draw(st.integers(0, len(rows[i]) - 1), "column")
            if kind == "blank":
                rows.insert(i, [""])
            elif kind == "field":
                rows[i][j] = draw.draw(st.sampled_from(_ODD_FIELDS), "field")
            elif kind == "pad":
                rows[i][j] = f" {rows[i][j]}  "
            elif kind == "drop":
                del rows[i][j]
            else:
                rows[i].append("0")
        if draw.draw(st.booleans(), "header only"):
            rows = []
        newline = draw.draw(st.sampled_from(("\n", "\r\n")), "newline")
        path.write_bytes(newline.join([header, *map(",".join, rows), ""]).encode("utf-8"))
        assert _outcome(read_table, path) == _outcome(_read_table_lines, path)


class TestLabeledSetValidation:
    def test_rejects_inconsistent_fields(self):
        good = dict(
            features=np.ones((3, 2)),
            clean_labels=np.array([0, 1, 0]),
            noisy_labels=np.array([0, 1, 1]),
            num_classes=2,
        )
        LabeledSet(**good)
        with pytest.raises(ValueError):
            LabeledSet(**{**good, "clean_labels": np.array([0, 1])})
        with pytest.raises(ValueError):
            LabeledSet(**{**good, "noisy_labels": np.array([0, 1, 5])})
        with pytest.raises(ValueError):
            LabeledSet(**{**good, "num_classes": 1})
        with pytest.raises(ValueError):
            LabeledSet(**{**good, "features": np.array([[np.nan, 1], [0, 1], [0, 1]])})
