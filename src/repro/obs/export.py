"""Exporters: Chrome trace-event JSON, metrics JSON, aligned text report.

Three views over the same :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` — the Chrome trace-event format (the JSON array of
  ``"ph": "X"`` complete events plus process/thread name metadata) that
  ``about:tracing`` / Perfetto load directly.  ``pid`` is the part and
  ``tid`` the rank a span ran for, per the repo convention.
* :func:`metrics_dict` — a strict-JSON document with the per-superstep
  part-to-part communication matrix, counters, timelines and the
  span-tree summary.  ``BENCH_*.json`` files and ``python -m repro trace``
  both emit this.
* :func:`text_report` — an aligned, human-readable rendering of the same.

Strictness matters: ``json.dumps`` happily emits ``Infinity``, which is not
valid JSON and breaks downstream parsers, so every writer here passes
``allow_nan=False``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from .tracer import Span, Tracer

if TYPE_CHECKING:  # imported for annotations only: obs must stay cycle-free
    from ..parallel.perf import PerfCounters

#: Wall-clock origin subtracted from every event so timestamps start near 0.
def _origin(roots: List[Span]) -> float:
    return min((span.t0 for span in roots), default=0.0)


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event document (JSON-ready)."""
    events: List[Dict[str, Any]] = []
    origin = _origin(tracer.roots)
    ids = set()
    for root in tracer.roots:
        for span in root.walk():
            ids.add((span.pid, span.tid))
            args: Dict[str, Any] = {
                "superstep_start": span.superstep_start,
                "superstep_end": span.superstep_end,
            }
            args.update(span.args)
            if span.counter_deltas:
                args["counters"] = dict(span.counter_deltas)
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span.t0 - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
    # Stable ordering: by start time, longer (outer) spans first on ties so
    # viewers nest children under parents deterministically.
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]))
    meta: List[Dict[str, Any]] = []
    for pid, tid in sorted(ids):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"part {pid}"},
            }
        )
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"rank {tid}"},
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write :func:`chrome_trace` to ``path`` as strict JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(tracer), indent=1, allow_nan=False)
    )
    return path


def _span_dict(span: Span) -> Dict[str, Any]:
    return {
        "name": span.name,
        "pid": span.pid,
        "tid": span.tid,
        "seconds": span.seconds,
        "superstep_start": span.superstep_start,
        "superstep_end": span.superstep_end,
        "args": dict(span.args),
        "counters": dict(span.counter_deltas),
        "children": [_span_dict(child) for child in span.children],
    }


def comm_matrix_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """Per-superstep matrices as flat rows: superstep, src, dst, messages, bytes."""
    rows: List[Dict[str, Any]] = []
    for step, matrix in enumerate(tracer.supersteps()):
        for (src, dst), (count, nbytes) in sorted(matrix.items()):
            rows.append(
                {
                    "superstep": step,
                    "src": src,
                    "dst": dst,
                    "messages": count,
                    "bytes": nbytes,
                }
            )
    return rows


def metrics_dict(
    tracer: Optional[Tracer] = None,
    counters: Optional[PerfCounters] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Collected metrics as one strict-JSON-safe document.

    Either argument may be omitted: a counters-only document is what the
    benchmark harness emits when no tracer ran, a tracer-only document is
    what a workload without a shared registry produces.
    """
    payload: Dict[str, Any] = {"schema": "repro.obs.metrics/1"}
    if counters is None and tracer is not None:
        counters = tracer.counters
    if tracer is not None:
        payload["supersteps"] = tracer.superstep_count()
        payload["comm_matrix"] = comm_matrix_rows(tracer)
        totals = tracer.comm_matrix()
        payload["comm_totals"] = {
            "messages": sum(c for c, _b in totals.values()),
            "wire_bytes": sum(b for _c, b in totals.values()),
            "pairs": len(totals),
        }
        payload["timelines"] = {
            name: [{"superstep": s, "value": v} for s, v in samples]
            for name, samples in sorted(tracer.timelines().items())
        }
        payload["spans"] = [_span_dict(root) for root in tracer.roots]
    if counters is not None:
        payload["counters"] = dict(sorted(counters.counters().items()))
    if extra:
        payload.update(extra)
    return payload


def write_metrics(
    path: Union[str, Path],
    tracer: Optional[Tracer] = None,
    counters: Optional[PerfCounters] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write :func:`metrics_dict` to ``path`` as strict JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            metrics_dict(tracer, counters, extra), indent=1, allow_nan=False
        )
    )
    return path


def _fmt_bytes(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes / (1 << 20):.2f} MiB"
    if nbytes >= 1 << 10:
        return f"{nbytes / (1 << 10):.2f} KiB"
    return f"{nbytes} B"


def text_report(
    tracer: Optional[Tracer] = None,
    counters: Optional[PerfCounters] = None,
    max_matrix_rows: int = 24,
) -> str:
    """Aligned human-readable report: spans, matrix summary, counters."""
    lines: List[str] = []
    if tracer is not None:
        lines.append(
            f"supersteps: {tracer.superstep_count()}   "
            f"messages: {tracer.total_messages()}   "
            f"wire: {_fmt_bytes(tracer.total_wire_bytes())}"
        )
        if tracer.roots:
            lines.append("")
            lines.append(f"{'span':<42} {'seconds':>10} {'steps':>6}")
            for root in tracer.roots:
                for depth, span in _walk_depth(root):
                    label = ("  " * depth + span.name)[:42]
                    lines.append(
                        f"{label:<42} {span.seconds:>10.4f} "
                        f"{span.supersteps:>6}"
                    )
        totals = tracer.comm_matrix()
        if totals:
            lines.append("")
            lines.append(
                f"{'src -> dst':<14} {'messages':>10} {'bytes':>12}"
            )
            shown = 0
            for (src, dst), (count, nbytes) in sorted(
                totals.items(), key=lambda kv: (-kv[1][1], -kv[1][0], kv[0])
            ):
                if shown >= max_matrix_rows:
                    lines.append(
                        f"... {len(totals) - shown} more pair(s) elided"
                    )
                    break
                lines.append(
                    f"{f'{src} -> {dst}':<14} {count:>10} {nbytes:>12}"
                )
                shown += 1
        timelines = tracer.timelines()
        if timelines:
            lines.append("")
            for name, samples in sorted(timelines.items()):
                last = samples[-1][1]
                lines.append(
                    f"timeline {name}: {len(samples)} sample(s), "
                    f"first={samples[0][1]:.4f} last={last:.4f}"
                )
    if counters is not None:
        snapshot = counters.counters()
        if snapshot:
            lines.append("")
            width = max(len(name) for name in snapshot)
            for name in sorted(snapshot):
                lines.append(f"{name:<{width}} {snapshot[name]:>12}")
    return "\n".join(lines)


def _walk_depth(span: Span, depth: int = 0):
    yield depth, span
    for child in span.children:
        yield from _walk_depth(child, depth + 1)
