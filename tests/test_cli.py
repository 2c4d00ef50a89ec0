"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_rect(capsys):
    assert main(["info", "--kind", "rect", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "verts=16" in out
    assert "mesh verified" in out


def test_info_box(capsys):
    assert main(["info", "--kind", "box", "--n", "2"]) == 0
    assert "regions=48" in capsys.readouterr().out


def test_info_saves_vtk(tmp_path, capsys):
    out_file = tmp_path / "m.vtk"
    assert main(["info", "--kind", "rect", "--n", "2",
                 "--save", str(out_file)]) == 0
    assert out_file.exists()
    assert "DATASET UNSTRUCTURED_GRID" in out_file.read_text()


def test_partition_reports_balance(capsys):
    assert main([
        "partition", "--kind", "box", "--n", "3", "--parts", "4",
        "--method", "rcb",
    ]) == 0
    out = capsys.readouterr().out
    assert "edge cut" in out
    assert "imbalance%" in out
    assert "Rgn" in out


def test_partition_saves_part_field(tmp_path, capsys):
    out_file = tmp_path / "p.vtk"
    assert main([
        "partition", "--kind", "rect", "--n", "4", "--parts", "2",
        "--method", "rcb", "--save", str(out_file),
    ]) == 0
    text = out_file.read_text()
    assert "SCALARS part double 1" in text


def test_balance_runs_parma(capsys):
    assert main([
        "balance", "--kind", "box", "--n", "4", "--parts", "4",
        "--method", "hypergraph", "--priorities", "Vtx > Rgn",
        "--tol", "0.10",
    ]) == 0
    out = capsys.readouterr().out
    assert "before ParMA" in out
    assert "after ParMA" in out
    assert "ParMA improvement [Vtx > Rgn]" in out


def test_bench_hint(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "benchmarks/pipeline/run.py" in out
    assert "benchmarks/pipeline/diff.py" in out
    assert "pytest benchmarks/" in out


def test_unknown_kind_fails():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["info", "--kind", "sphere"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_lint_clean_package(capsys):
    assert main(["lint"]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_lint_reports_findings_on_buggy_file(tmp_path, capsys):
    buggy = tmp_path / "buggy.py"
    buggy.write_text(
        "def prog(comm):\n"
        "    if comm.rank == 0:\n"
        "        comm.barrier()\n"
    )
    assert main(["lint", str(buggy)]) == 1
    out = capsys.readouterr().out
    assert "SPMD001" in out and "1 finding(s)" in out


def test_lint_json_format(tmp_path, capsys):
    import json

    buggy = tmp_path / "buggy.py"
    buggy.write_text("def f(x=[]):\n    pass\n")
    assert main(["lint", str(buggy), "--format=json"]) == 1
    decoded = json.loads(capsys.readouterr().out)
    assert decoded[0]["code"] == "SPMD004"


def test_trace_runs_script_and_writes_artifacts(tmp_path, capsys):
    import json

    script = tmp_path / "workload.py"
    script.write_text(
        "from repro.mesh import rect_tri\n"
        "from repro.partition import distribute, migrate\n"
        "from repro.partitioners import partition\n"
        "m = rect_tri(4)\n"
        "dm = distribute(m, partition(m, 2, method='rcb'))\n"
        "elem = next(dm.part(0).mesh.entities(2))\n"
        "migrate(dm, {0: {elem: 1}})\n"
    )
    out_dir = tmp_path / "trace-out"
    assert main(["trace", str(script), "--out", str(out_dir)]) == 0

    trace = json.loads((out_dir / "workload.trace.json").read_text())
    names = {e.get("name") for e in trace["traceEvents"]}
    assert "migrate" in names and "distribute" in names

    metrics = json.loads((out_dir / "workload.metrics.json").read_text())
    assert metrics["schema"] == "repro.obs.metrics/1"
    assert metrics["supersteps"] > 0
    assert metrics["comm_matrix"]

    out = capsys.readouterr().out
    assert "workload.trace.json" in out


def test_trace_missing_script_fails(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.py")]) == 2
    assert "no such script" in capsys.readouterr().err


def test_balance_with_sanitize(capsys):
    assert (
        main(
            [
                "balance",
                "--kind",
                "rect",
                "--n",
                "5",
                "--parts",
                "3",
                "--sanitize",
            ]
        )
        == 0
    )
    assert "after ParMA" in capsys.readouterr().out


# -- chaos ------------------------------------------------------------------


CHAOS_SCRIPT = """
from repro.mesh import rect_tri
from repro.parallel import PerfCounters
from repro.partition import distribute, migrate

NPARTS = 3
NSTEPS = 2


def build():
    m = rect_tri(4)
    assignment = [
        min(int(m.centroid(e)[0] * NPARTS), NPARTS - 1)
        for e in m.entities(2)
    ]
    return distribute(m, assignment, counters=PerfCounters())


def step(dmesh, i):
    plan = {}
    for part in dmesh:
        moves = {}
        for e in part.mesh.entities(2):
            dest = min(
                int(part.mesh.centroid(e)[i % 2] * NPARTS), NPARTS - 1
            )
            if dest != part.pid:
                moves[e] = dest
        plan[part.pid] = moves
    migrate(dmesh, plan)
"""


def test_chaos_runs_workload_and_writes_report(tmp_path, capsys):
    import json

    script = tmp_path / "workload.py"
    script.write_text(CHAOS_SCRIPT)
    out_dir = tmp_path / "chaos-out"
    assert main(["chaos", str(script), "--out", str(out_dir)]) == 0

    report = json.loads((out_dir / "workload.resilience.json").read_text())
    assert report["schema"] == "repro.resilience.report/1"
    assert report["steps"] == 2 and report["recoveries"] == []
    assert (out_dir / "checkpoints").is_dir()
    assert (out_dir / "workload.metrics.json").exists()
    assert "steps completed" in capsys.readouterr().out


def test_chaos_recovers_from_fault_plan(tmp_path, capsys):
    import json

    script = tmp_path / "workload.py"
    script.write_text(CHAOS_SCRIPT)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"seed": 1, "faults": [{"kind": "crash", "rank": 1, "superstep": 3}]}
    ))
    out_dir = tmp_path / "out"
    assert main([
        "chaos", str(script), "--faults", str(plan), "--out", str(out_dir),
    ]) == 0
    report = json.loads((out_dir / "workload.resilience.json").read_text())
    assert len(report["recoveries"]) == 1
    assert report["recoveries"][0]["kind"] == "injected"
    assert [f["kind"] for f in report["faults"]] == ["crash"]


def test_chaos_missing_script_fails(tmp_path, capsys):
    assert main(["chaos", str(tmp_path / "nope.py")]) == 2
    assert "no such script" in capsys.readouterr().err


def test_chaos_script_without_contract_fails(tmp_path, capsys):
    script = tmp_path / "bad.py"
    script.write_text("x = 1\n")
    assert main(["chaos", str(script), "--steps", "1"]) == 2
    assert "must define build()" in capsys.readouterr().err


def test_chaos_requires_steps(tmp_path, capsys):
    script = tmp_path / "nosteps.py"
    script.write_text(
        "def build():\n    pass\n\n"
        "def step(dmesh, i):\n    pass\n"
    )
    assert main(["chaos", str(script)]) == 2
    assert "NSTEPS" in capsys.readouterr().err


def test_chaos_bad_plan_fails(tmp_path, capsys):
    script = tmp_path / "workload.py"
    script.write_text(CHAOS_SCRIPT)
    plan = tmp_path / "plan.json"
    plan.write_text('{"faults": [{"kind": "teleport"}]}')
    assert main(["chaos", str(script), "--faults", str(plan)]) == 2
    assert "bad fault plan" in capsys.readouterr().err
