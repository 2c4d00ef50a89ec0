"""The benchmark's own span recorder.

Stage spans are opened here, around the public calls into each layer, so a
later change to the program cannot move or redefine them.  In a traced pass
the spans the program's ``Tracer`` recorded while a stage ran are adopted as
that stage's children (both sides read ``time.perf_counter``), which nests
``migrate.*``, ``ghost_layer.layerN``, ``sf.*``, ``store.*`` … under the
stage that caused them.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional


#: Prefix of the benchmark's own stage spans, so that ``store.load`` the
#: stage and ``store.load`` the span the program emits inside it stay apart.
STAGE = "stage:"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the causing span in ``SpanRecorder.spans`` (None = a stage).
    parent: Optional[int] = None
    #: Identifier shared by every span of one workload run.
    workload: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Append-only list of spans with a stack of the currently open ones."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a region; yields the span's index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def adopt(self, parent: int, tracer_spans: Iterable[Any]) -> None:
        """Nest a ``repro.obs`` span forest (``name``/``t0``/``t1``/
        ``children``) under the span at index ``parent``."""
        for node in tracer_spans:
            index = len(self.spans)
            self.spans.append(
                Span(node.name, node.t0, node.t1, parent, self.workload)
            )
            self.adopt(index, node.children)

    def stages(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds — a span's
    duration minus the part of it its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    table: Dict[str, Dict[str, float]] = {}
    for span, child_seconds in zip(spans, covered):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.seconds
        row["self_s"] += span.seconds - child_seconds
    return table


def chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """Chrome trace-event document (load in ``about:tracing`` / Perfetto)."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.workload,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": 0,
            "tid": 0,
            "args": {"parent": span.parent},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
