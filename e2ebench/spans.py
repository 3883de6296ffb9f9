"""In-memory spans recorded by the benchmark around its calls into each layer.

A span has a name, a start, an end, its parent and the trace id of the
request it belongs to.  Spans are kept in memory and written out once, when
the run ends; nothing is traced inside the program under test.

The ladder records one rung per layer, each a separate call replaying the
same request one layer further down, and makes each rung the child of the
rung above it.  A rung's self time is therefore its duration minus its
children's durations.  A child that took longer than its parent (replay
noise) is clipped to zero self time; the clipped amount is the residual, so
time the ladder cannot attribute to a layer shows instead of hiding.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start: float
    end: float

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`record` a no-op."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._next_id = 0

    def record(
        self, name: str, trace_id: str, start: float, end: float,
        parent: Span | None = None,
    ) -> Span | None:
        if not self.enabled:
            return None
        self._next_id += 1
        span = Span(
            name, trace_id, self._next_id,
            parent.span_id if parent is not None else None, start, end,
        )
        self.spans.append(span)
        return span

    def call(self, name: str, trace_id: str, fn, parent: Span | None = None):
        """Run ``fn()`` inside a span; returns ``(result, span)``."""
        start = self.clock()
        result = fn()
        return result, self.record(name, trace_id, start, self.clock(), parent)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Unclipped self time (ms) of every span: duration minus children's."""
    children_ms: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children_ms[span.parent_id] = (
                children_ms.get(span.parent_id, 0.0) + span.duration_ms
            )
    return {
        span.span_id: span.duration_ms - children_ms.get(span.span_id, 0.0)
        for span in spans
    }


def ladder_summary(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Median clipped self time per span name, and the median residual share.

    Per trace, the residual share is the root's duration minus the sum of
    the clipped self times, over the root's duration.
    """
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(max(own[span.span_id], 0.0))
        by_trace.setdefault(span.trace_id, []).append(span)
    residuals = []
    for trace in by_trace.values():
        root = next(span for span in trace if span.parent_id is None)
        attributed = sum(max(own[span.span_id], 0.0) for span in trace)
        if root.duration_ms > 0:
            residuals.append((root.duration_ms - attributed) / root.duration_ms)
    medians = {name: statistics.median(values) for name, values in by_name.items()}
    return medians, statistics.median(residuals) if residuals else 0.0
