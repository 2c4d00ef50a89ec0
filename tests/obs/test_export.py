"""Exporter tests: Chrome trace schema, strict metrics JSON, text report."""

import json
import math

from repro import obs
from repro.mesh import rect_tri
from repro.parallel import PerfCounters
from repro.partition import DistributedField, distribute, migrate, synchronize


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def traced_workload():
    perf = PerfCounters()
    tracer = obs.Tracer(counters=perf)
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 3), counters=perf, tracer=tracer)
    element = next(dm.part(0).mesh.entities(2))
    migrate(dm, {0: {element: 1}})
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0])
    synchronize(df)
    return tracer, perf


def test_chrome_trace_schema():
    tracer, _perf = traced_workload()
    doc = obs.chrome_trace(tracer)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events, "workload must produce events"
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) + len(meta) == len(events)
    for e in complete:
        # Required complete-event fields, all finite numbers.
        assert isinstance(e["name"], str) and e["cat"] == "repro"
        assert math.isfinite(e["ts"]) and e["ts"] >= 0.0
        assert math.isfinite(e["dur"]) and e["dur"] >= 0.0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert e["args"]["superstep_end"] >= e["args"]["superstep_start"]
    # pid/tid carry the part/rank convention via metadata events.
    names = {(e["pid"], e["tid"], e["name"]): e["args"]["name"] for e in meta}
    for pid, tid in {(e["pid"], e["tid"]) for e in complete}:
        assert names[(pid, tid, "process_name")] == f"part {pid}"
        assert names[(pid, tid, "thread_name")] == f"rank {tid}"


def test_chrome_trace_nesting_containment():
    tracer, _perf = traced_workload()
    events = [
        e for e in obs.chrome_trace(tracer)["traceEvents"] if e["ph"] == "X"
    ]
    # Within one (pid, tid) lane the events are sorted by start, outer spans
    # first on ties; any event starting inside an earlier event must also end
    # inside it (proper nesting, what about:tracing requires to stack them).
    lanes = {}
    for e in events:
        lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    for lane in lanes.values():
        stack = []
        for e in lane:
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                outer = stack[-1]
                assert (
                    e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-3
                ), f"{e['name']} overflows {outer['name']}"
            stack.append(e)


def test_write_chrome_trace_round_trips(tmp_path):
    tracer, _perf = traced_workload()
    path = obs.write_chrome_trace(tracer, tmp_path / "t.trace.json")
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_metrics_dict_matrix_and_totals():
    tracer, perf = traced_workload()
    doc = obs.metrics_dict(tracer=tracer, counters=perf)
    assert doc["schema"] == "repro.obs.metrics/1"
    assert doc["supersteps"] == tracer.superstep_count() > 0
    rows = doc["comm_matrix"]
    assert rows and all(
        set(r) == {"superstep", "src", "dst", "messages", "bytes"}
        for r in rows
    )
    assert doc["comm_totals"]["messages"] == sum(r["messages"] for r in rows)
    assert doc["comm_totals"]["wire_bytes"] == sum(r["bytes"] for r in rows)
    assert max(r["superstep"] for r in rows) < doc["supersteps"]
    span_names = {s["name"] for s in doc["spans"]}
    assert {"distribute", "migrate", "synchronize"} <= span_names
    assert "net.exchanges" in doc["counters"]


def test_metrics_json_is_strict(tmp_path):
    tracer, perf = traced_workload()
    path = obs.write_metrics(tmp_path / "m.json", tracer=tracer, counters=perf)
    text = path.read_text()
    assert "Infinity" not in text and "NaN" not in text
    doc = json.loads(text)
    assert "timers" not in doc  # spans time the layers


def test_text_report_mentions_key_sections():
    tracer, perf = traced_workload()
    report = obs.text_report(tracer, counters=perf)
    assert "supersteps:" in report
    assert "migrate" in report
    assert "src -> dst" in report
    assert "net.exchanges" in report


def test_metrics_dict_counters_only():
    perf = PerfCounters()
    perf.add("a.b", 2)
    doc = obs.metrics_dict(counters=perf)
    assert "comm_matrix" not in doc
    assert doc["counters"] == {"a.b": 2}
