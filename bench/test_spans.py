"""Tests of the benchmark's own arithmetic: self time, layer summaries and
the reference metrics of the self-check.

Run with ``python3 -m pytest bench/test_spans.py`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import auroc_pairwise, fpr_scan, knn_brute_force  # noqa: E402
from layers import summarize_op  # noqa: E402
from spans import Site, Span, Tracer, covered_length, patched, self_times  # noqa: E402


def test_covered_length_counts_each_instant_once():
    # Disjoint, nested, overlapping, and sticking out on both sides.
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 2), (4, 6)]) == 3
    assert covered_length(0, 10, [(1, 8), (2, 3), (4, 5)]) == 7
    assert covered_length(0, 10, [(1, 4), (3, 6), (5, 7)]) == 6
    assert covered_length(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered_length(0, 10, [(-5, 20)]) == 10
    assert covered_length(0, 10, [(11, 12), (-3, -1)]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 5.0),
        Span(2, 1, "a.inner", 2.0, 4.0),   # grandchild: does not reduce root
        Span(3, 0, "b", 4.0, 7.0),         # overlaps a
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 6.0)  # union of [1,5] and [4,7]
    assert st[1] == pytest.approx(4.0 - 2.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0)


def test_tracer_nests_spans_and_restores_sites():
    import json

    tracer = Tracer()
    original = json.dumps
    site = Site("json", "dumps", "json")
    with patched(tracer, [("json.dumps", [site], None)]), tracer.span("op"):
        json.dumps({"a": 1})
        json.dumps([1])
    assert json.dumps is original
    names = sorted(sp.name for sp in tracer.spans)
    assert names == ["json.dumps", "json.dumps", "op"]
    root = next(sp for sp in tracer.spans if sp.name == "op")
    assert all(sp.parent == root.id for sp in tracer.spans if sp is not root)


def test_stale_site_is_refused():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="stale trace site"):
        with patched(tracer, [("x", [Site("json", "dumps", "pickle")], None)]):
            pass


def test_split_usefulness_follows_the_training_caller():
    spans = [
        Span(0, -1, "op", 0.0, 10.0),
        Span(1, 0, "trainer.train", 0.0, 9.0, {"lam": 0.0}),
        Span(2, 1, "decompose.split_features", 1.0, 2.0),
        Span(3, 1, "decompose.split_features", 2.0, 3.0),
        Span(4, 1, "trainer.extract_reference_store", 4.0, 6.0),
        Span(5, 4, "decompose.split_features", 4.5, 5.0),
    ]
    summary = summarize_op(spans, spans[0])
    assert summary["decompose.split_features.calls"] == 3
    assert summary["decompose.split_features.useful_frac"] == pytest.approx(1 / 3)
    assert summary["trainer.train.self_s"] == pytest.approx(9.0 - 2.0 - 2.0)
    assert summary["share.untraced.self_frac"] == pytest.approx(0.1)


def test_reference_metrics_match_definitions():
    rng = np.random.default_rng(0)
    ids = np.round(rng.normal(1.0, 1.0, 300), 1)  # rounding makes ties
    oods = np.round(rng.normal(0.0, 1.0, 200), 1)
    wins = sum((i > o) + 0.5 * (i == o) for i in ids for o in oods)
    assert auroc_pairwise(ids, oods, chunk=7) == pytest.approx(wins / (300 * 200), abs=1e-15)
    fpr = fpr_scan(ids, oods, 0.95)
    tau = max(t for t in ids if np.mean(ids >= t) >= 0.95)
    assert fpr == np.mean(oods >= tau)


def test_knn_brute_force_scores_kth_distance():
    store = np.eye(3)
    latents = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    scores = knn_brute_force(store, latents, k=2)
    assert scores[0] == pytest.approx(-np.sqrt(2.0))
    assert scores[1] == -2.0
