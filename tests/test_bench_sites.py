"""The benchmark wraps package functions where their callers look them up
(``bench/layers.py``); this fails when a refactor moves such a lookup."""

from pathlib import Path


def test_every_traced_site_still_holds_its_function(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import layers
    import spans

    with spans.patched(spans.Tracer(), layers.LAYERS):
        pass
