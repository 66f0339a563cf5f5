"""In-memory span tracing of the noodle layers, from outside the package.

A layer is traced by replacing a function with a timing wrapper *where its
caller looks it up*: ``noodle.trainer.split_features`` rather than
``noodle.decompose.split_features``, because ``trainer`` imported the name
into its own namespace.  Nothing under ``src/`` is edited.

Each call records a span (id, parent, name, start, end, attributes).  Spans
stay in memory until :meth:`Tracer.write` dumps them at the end of a run.
A span's self time is its duration minus the part of its interval that its
children cover (the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals may nest, overlap each other, or stick out of the window; each
    point of the window is counted at most once.
    """
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Map span id to its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - covered_length(sp.start, sp.end, children.get(sp.id, []))
        for sp in spans
    }


class Tracer:
    """Collects spans from wrapped functions in a single-threaded caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def record(self, name: str | Callable, fn: Callable, args: tuple, kwargs: dict,
               attrs: Callable | None = None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
        label = name if isinstance(name, str) else name(args, kwargs)
        extra = attrs(args, kwargs, result) if attrs else {}
        self.spans.append(Span(sid, parent, label, start, end, extra))
        return result

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around a block of the benchmark's own code."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, attrs))

    def wrapper(self, name, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.record(name, fn, args, kwargs, attrs)

        return traced

    def write(self, path) -> None:
        """Dump every span as one CSV row: id,parent,name,start,end."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start,end\n")
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(f"{sp.id},{sp.parent},{sp.name},{sp.start!r},{sp.end!r}\n")


@dataclass(frozen=True)
class Site:
    """One place where a caller looks a layer function up."""

    module: str   # module whose global the caller reads, e.g. "noodle.trainer"
    attr: str     # the global's name there
    origin: str   # module that defines the function, e.g. "noodle.decompose"


@contextmanager
def patched(tracer: Tracer, layers: list[tuple[object, list[Site], Callable | None]]):
    """Install tracing wrappers at every site; restore the originals on exit.

    Fails before touching anything if a site no longer holds the function its
    origin module defines, which is what a refactor that moves a lookup
    would cause: the wrapper would sit on a name nobody calls.
    """
    installs = []
    for name, sites, attrs in layers:
        for site in sites:
            mod = importlib.import_module(site.module)
            origin = getattr(importlib.import_module(site.origin), site.attr, None)
            current = getattr(mod, site.attr, None)
            if current is None or current is not origin:
                raise RuntimeError(
                    f"stale trace site: {site.module}.{site.attr} is not "
                    f"{site.origin}.{site.attr}"
                )
            installs.append((mod, site.attr, current, tracer.wrapper(name, current, attrs)))
    try:
        for mod, attr, _, traced in installs:
            setattr(mod, attr, traced)
        yield tracer
    finally:
        for mod, attr, original, _ in reversed(installs):
            setattr(mod, attr, original)
