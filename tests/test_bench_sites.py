"""The benchmark wraps package functions where their callers look them up
(``bench/layers.py``); this fails when a refactor moves such a lookup, or
stops calling a traced layer."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans
    import workloads

    return layers, spans, workloads


def test_every_traced_site_still_holds_its_function(bench_modules):
    layers, spans, _ = bench_modules
    with spans.patched(spans.Tracer(), layers.LAYERS):
        pass


def test_every_workload_calls_every_expected_layer(bench_modules, tmp_path):
    # One traced operation per workload, as `bench/run.py --trace 1` runs it.
    layers, spans, workloads = bench_modules
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = workload(work, 0)
        wl.prepare(0)
        tracer = spans.Tracer()
        with spans.patched(tracer, layers.LAYERS), tracer.span("op", entry=0):
            op = wl.run(0, "traced")
        root = next(sp for sp in tracer.spans if sp.name == "op")
        assert op.failed == 0, name
        assert layers.missing_layers(name, [layers.summarize_op(tracer.spans, root)]) == [], name
