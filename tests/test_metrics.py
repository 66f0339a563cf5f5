"""FPR-at-TPR, AUROC, accuracy, and score-report round trips.

The FPR oracle scans every unique candidate threshold; the AUROC oracle
counts all pairs in O(n^2); ``scipy.stats.rankdata`` is the oracle for the
average ranks.  All run against score sets with deliberately heavy ties
(rounded normals, or values drawn from a small pool that includes ``±inf``
and ``±0.0``), where rank-based shortcuts break first.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from noodle.files import read_json
from noodle.metrics import (
    ScoreReport,
    auroc,
    average_ranks,
    emit_report,
    fpr_at_tpr,
    id_accuracy,
    make_report,
)
from noodle.scoring import select_threshold
from oracles import auroc_pairwise, fpr_threshold_scan


def _tied_pair(rng, max_n=120):
    n_id = int(rng.integers(1, max_n))
    n_ood = int(rng.integers(1, max_n))
    id_scores = np.round(rng.standard_normal(n_id), 1)
    ood_scores = np.round(rng.standard_normal(n_ood) - rng.uniform(0, 1), 1)
    return id_scores, ood_scores


@st.composite
def tied_scores(draw, max_size=60):
    """A non-empty score array whose values come from a pool of at most eight
    values that always offers ``±inf`` and ``±0.0``."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = [np.inf, -np.inf, 0.0, -0.0, *draw(st.lists(finite, max_size=4))]
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))
    return np.array(values)


class TestFprAtTpr:
    def test_perfectly_separated(self):
        assert fpr_at_tpr(np.array([2.0, 3.0, 4.0]), np.array([0.0, 1.0])) == 0.0

    def test_all_tied_scores(self):
        assert fpr_at_tpr(np.full(10, 1.0), np.full(4, 1.0)) == 1.0

    def test_golden_two_by_two(self):
        # tau = 1.0 (both ID scores must pass at tpr 0.95), ood [0, 2] -> 1/2.
        assert fpr_at_tpr(np.array([1.0, 3.0]), np.array([0.0, 2.0])) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(tied_scores(max_size=120), tied_scores(max_size=120), st.floats(0.05, 1.0))
    def test_matches_exhaustive_scan_exactly(self, id_scores, ood_scores, tpr):
        fpr = fpr_at_tpr(id_scores, ood_scores, tpr)
        assert fpr == fpr_threshold_scan(id_scores, ood_scores, tpr)
        # The threshold rule: tau admits at least ceil(tpr * n) ID scores (the
        # 1e-9 absorbs float noise in tpr * n, as in select_threshold), so the
        # achieved TPR is at least tpr, and the next larger distinct ID score
        # admits fewer.
        tau = select_threshold(id_scores, tpr)
        needed = math.ceil(tpr * id_scores.size - 1e-9)
        assert (id_scores >= tau).sum() >= needed
        assert (id_scores >= tau).mean() >= tpr - 1e-9
        larger = id_scores[id_scores > tau]
        if larger.size:
            assert (id_scores >= larger.min()).sum() < needed
        assert fpr == (ood_scores >= tau).mean()

    def test_monotone_in_tpr(self):
        # A stricter TPR requirement can only lower the threshold, which can
        # only admit more OOD scores.
        rng = np.random.default_rng(1)
        id_scores, ood_scores = _tied_pair(rng)
        levels = [fpr_at_tpr(id_scores, ood_scores, t) for t in np.linspace(0.05, 1.0, 25)]
        assert all(a <= b + 1e-15 for a, b in zip(levels, levels[1:]))

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(2)
        id_scores, ood_scores = _tied_pair(rng)
        base = fpr_at_tpr(id_scores, ood_scores)
        assert fpr_at_tpr(id_scores**3, ood_scores**3) == base
        assert fpr_at_tpr(np.exp(id_scores), np.exp(ood_scores)) == base

    def test_empty_ood_rejected(self):
        with pytest.raises(ValueError):
            fpr_at_tpr(np.array([1.0]), np.array([]))
        # A NaN score is rejected, naming its argument; ±inf is orderable.
        with pytest.raises(ValueError, match="id_scores contains NaN"):
            fpr_at_tpr(np.array([1.0, np.nan, 3.0] * 10), np.array([0.5, 2.0]))
        with pytest.raises(ValueError, match="ood_scores contains NaN"):
            fpr_at_tpr(np.array([1.0, 3.0]), np.array([0.5, np.nan]))
        assert fpr_at_tpr(np.array([np.inf, 1.0]), np.array([-np.inf, 1.0]), 1.0) == 0.5


class TestAuroc:
    def test_perfectly_separated(self):
        assert auroc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0
        assert auroc(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == 0.0

    def test_all_tied_is_half(self):
        assert auroc(np.full(7, 2.5), np.full(3, 2.5)) == 0.5

    def test_golden_two_by_two(self):
        assert auroc(np.array([1.0, 3.0]), np.array([0.0, 2.0])) == 0.75

    @settings(max_examples=200, deadline=None)
    @given(tied_scores(), tied_scores())
    def test_matches_pairwise_oracle(self, id_scores, ood_scores):
        assert abs(auroc(id_scores, ood_scores) - auroc_pairwise(id_scores, ood_scores)) <= 1e-12
        pooled = np.concatenate([id_scores, ood_scores])
        ranks = average_ranks(pooled)
        assert ranks.tobytes() == rankdata(pooled, method="average").tobytes()

    @settings(max_examples=200, deadline=None)
    @given(tied_scores(), tied_scores())
    def test_antisymmetry_is_exact(self, id_scores, ood_scores):
        assert auroc(id_scores, ood_scores) + auroc(ood_scores, id_scores) == 1.0

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(5)
        id_scores, ood_scores = _tied_pair(rng)
        base = auroc(id_scores, ood_scores)
        assert auroc(id_scores**3, ood_scores**3) == base

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            auroc(np.array([1.0]), np.array([]))
        with pytest.raises(ValueError, match="id_scores contains NaN"):
            auroc(np.array([1.0, np.nan]), np.array([2.0]))
        with pytest.raises(ValueError, match="ood_scores contains NaN"):
            auroc(np.array([1.0]), np.array([np.nan, 2.0]))
        assert auroc(np.array([np.inf, 1.0]), np.array([-np.inf, 1.0])) == 0.875


class TestIdAccuracy:
    def test_exact_match(self):
        assert id_accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_half_right(self):
        assert id_accuracy(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0])) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            id_accuracy(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError):
            id_accuracy(np.array([]), np.array([]))


class TestReports:
    def _golden(self):
        return make_report(
            "toy",
            np.array([1.0, 3.0]),
            np.array([0.0, 2.0]),
            id_acc=0.875,
            seed=11,
            config_hash="deadbeef",
        )

    def test_golden_report_values(self):
        report = self._golden()
        assert report.fpr95 == 0.5
        assert report.auroc == 0.75
        assert report.id_accuracy == 0.875
        assert report.tpr == 0.95

    def test_json_document_is_byte_stable(self, tmp_path):
        report = self._golden()
        emit_report(report, tmp_path)
        path = tmp_path / "report_toy.json"
        expected = {
            "format": "noodle-report",
            "version": 1,
            "dataset": "toy",
            "seed": 11,
            "config_hash": "deadbeef",
            "tpr": 0.95,
            "metrics": {"fpr95": 0.5, "auroc": 0.75, "id_accuracy": 0.875},
            "id_scores": [1.0, 3.0],
            "ood_scores": [0.0, 2.0],
        }
        assert path.read_text() == json.dumps(expected, sort_keys=True, indent=1) + "\n"

    def test_writes_only_the_json_document(self, tmp_path):
        emit_report(self._golden(), tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["report_toy.json"]

    def test_metrics_rederive_bit_identically_after_reload(self, tmp_path):
        # Shortest round-trip floats mean the parsed scores are the same
        # doubles, so recomputing the metrics reproduces the stored ones.
        rng = np.random.default_rng(6)
        id_scores, ood_scores = _tied_pair(rng)
        report = make_report("rt", id_scores, ood_scores, 0.9, 3, "c0ffee")
        emit_report(report, tmp_path)
        path = tmp_path / "report_rt.json"
        doc = read_json(path)
        loaded_id, loaded_ood = np.array(doc["id_scores"]), np.array(doc["ood_scores"])
        np.testing.assert_array_equal(loaded_id, id_scores)
        np.testing.assert_array_equal(loaded_ood, ood_scores)
        assert fpr_at_tpr(loaded_id, loaded_ood, doc["tpr"]) == doc["metrics"]["fpr95"] == report.fpr95
        assert auroc(loaded_id, loaded_ood) == doc["metrics"]["auroc"] == report.auroc
        again = make_report(
            doc["dataset"], loaded_id, loaded_ood, doc["metrics"]["id_accuracy"],
            doc["seed"], doc["config_hash"], doc["tpr"],
        )
        (tmp_path / "again").mkdir()
        emit_report(again, tmp_path / "again")
        assert (tmp_path / "again" / "report_rt.json").read_bytes() == path.read_bytes()

    def test_custom_tpr_is_respected_and_persisted(self, tmp_path):
        id_scores = np.arange(1.0, 11.0)
        ood_scores = np.array([1.5, 9.5])
        report = make_report("t", id_scores, ood_scores, 1.0, 0, "h", tpr=0.5)
        assert report.fpr95 == fpr_at_tpr(id_scores, ood_scores, 0.5)
        emit_report(report, tmp_path)
        assert read_json(tmp_path / "report_t.json")["tpr"] == 0.5


def test_score_report_is_a_plain_dataclass():
    report = ScoreReport("d", np.zeros(1), np.zeros(1), 0.0, 0.5, 1.0, 0, "h")
    assert report.dataset == "d" and report.tpr == 0.95
