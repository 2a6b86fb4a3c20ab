"""In-memory spans recorded around calls into the program's modules.

A `Tracer` replaces module attributes with wrappers that open a span on
entry and close it on exit, and puts the original attributes back when
it is closed. Spans live in memory until the run ends; the arithmetic
below turns them into per-layer counts and times.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `wrap` instruments a module attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> Span:
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.end = self.clock()
        return span

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a wrapper recording a span called `name`.

        `after(span, args, kwargs, result)` may annotate the span once the
        call has returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.end(index)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0       # inclusive time of the outermost calls
    self_seconds: float = 0.0  # self time of every call


def layer_totals(spans: list[Span], since: float = float("-inf")) -> dict[str, LayerTotals]:
    """Calls and times per span name, over spans starting at or after `since`.

    A call nested inside a call of the same name (a wrapped function that
    calls another wrapped function of the same layer) counts once, so
    calls and inclusive times are those of the outermost calls.
    """
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for i, s in enumerate(spans):
        if s.start < since:
            continue
        t = out.setdefault(s.name, LayerTotals())
        t.self_seconds += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            t.calls += 1
            t.seconds += s.duration
    return out
