"""Self-tests of the pipeline benchmark, all on the ``tiny`` size.

    python -m pytest benchmarks/pipeline/tests -q

Official numbers come from the default size only; these tests check the
instrument, not the program.
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diff
import metrics
import run
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]

#: Exact counts the issue names; they must repeat for one seed.
COUNTS = (
    "parallel.wire_bytes",
    "parallel.supersteps",
    "partition.migrate_elements",
    "adapt.splits",
)


@pytest.fixture
def quick(monkeypatch):
    """One set-up and the minimum of passes: enough to test the plumbing."""
    monkeypatch.setattr(worker, "SETUP_REPEATS", 1)


def contract_run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_lists_the_metric_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json(committed["run_seconds"])
    assert committed["run_seconds"] == run.RUN_SECONDS
    for workload in committed["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("trace,table", [
    (0, metrics.END_TO_END), (1, metrics.PER_LAYER),
])
def test_every_metric_is_printed_with_its_unit(trace, table):
    printed, result = contract_run("pipeline", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 < result["attempted"]
    assert list(result["metrics"]) == [m.name for m in table]
    for metric in table:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        line = next(l for l in printed if l.split()[:1] == [metric.name])
        assert line.split()[2] == metric.unit
    assert any(l.split()[:1] == ["failed_share"] for l in printed)


def traced_counts(workload: str, seed: int):
    inp = workloads.WORKLOADS[workload].build(
        dict(metrics.SIZES["tiny"][workload]), seed
    )
    p = worker.run_pass(workload, inp, traced=True)
    assert not p.failures
    layers = worker.pass_layers(p)
    return {name: layers[name] for name in COUNTS}


def test_counts_repeat_for_a_seed_and_differ_across_seeds():
    first = traced_counts("adapt-cycle", 1)
    assert first == traced_counts("adapt-cycle", 1)
    assert all(first.values())
    # --seed reaches a partition (and so the counts) on halo-exchange only.
    halo = traced_counts("halo-exchange", 1)
    assert halo == traced_counts("halo-exchange", 1)
    assert halo != traced_counts("halo-exchange", 2)


def test_diff_flags_a_slower_stage_and_passes_an_identical_pair(
    quick, monkeypatch, tmp_path
):
    def result():
        record = worker.measure("pipeline", 0, 0.0, False, "tiny")
        return {"workloads": {"pipeline": {"untraced": record}}}

    base = result()
    # Well past wall_s's bound, so the tiny size's own noise cannot hide it.
    delay = base["workloads"]["pipeline"]["untraced"]["metrics"]["wall_s"]["value"]
    real = workloads.ghost_layer

    def slow_ghost_layer(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "ghost_layer", slow_ghost_layer)
    slow = result()

    paths = {}
    for name, doc in (("base", base), ("same", copy.deepcopy(base)), ("slow", slow)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert diff.main([str(paths["base"]), str(paths["same"])]) == 0
    assert diff.main([str(paths["base"]), str(paths["slow"])]) == 1
    verdicts = {
        row[1]: row[5] for row in diff.compare(base, slow)
    }
    assert verdicts["wall_s"] == "worse"
    assert verdicts["failed_share"] == "same"


def test_run_all_stamps_a_record_and_appends_to_the_trajectory(
    quick, monkeypatch, tmp_path, capsys
):
    def in_process(workload, seed, seconds, trace, size, trace_out=None):
        return worker.measure(
            workload, seed, seconds, bool(trace), size, str(trace_out or "")
        )

    monkeypatch.setattr(run, "run_worker", in_process)
    monkeypatch.setattr(run, "WORKLOAD_WHY", {"halo-exchange": ""})
    out = tmp_path / "results"
    assert run.run_all(5, 0.0, "tiny", out) == 0
    time.sleep(1.1)  # the stamp has one-second resolution
    assert run.run_all(5, 0.0, "tiny", out) == 0

    records = sorted(out.glob("*Z-*.json"))
    records = [r for r in records if not r.name.endswith(".trace.json")]
    assert len(records) == 2
    stamp = json.loads(records[0].read_text())["stamp"]
    for key in ("commit", "dirty", "seed", "size", "python", "numpy", "nproc"):
        assert key in stamp
    lines = (out / "trajectory.jsonl").read_text().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])["workloads"]["halo-exchange"]
    assert row["failed_share"] == 0 and row["wall_s"] > 0
    assert row["partition.sync_ms_p50"] > 0
    trace = json.loads(next(out.glob("*.halo-exchange.trace.json")).read_text())
    assert {e["name"] for e in trace["traceEvents"]} >= {
        "stage:partition.synchronize", "synchronize", "sf.bcast",
    }
    assert "partition.sync_ms_p50" in capsys.readouterr().out
