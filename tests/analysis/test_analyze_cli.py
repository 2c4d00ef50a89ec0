"""The ``repro analyze`` surface: determinism, baseline, output formats.

The determinism tests are the analyzer eating its own cooking: the SPMD103
rule exists because nondeterministic reports hide regressions, so the
analyzer's *own* JSON report must be byte-identical across runs.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.engine import (
    SCHEMA,
    analyze_paths,
    format_json,
    format_sarif,
    load_baseline,
    main as analyze_main,
    split_baselined,
    write_baseline,
)

BUGGY = textwrap.dedent(
    """
    import time

    def run(world, net, data):
        if world.rank == 0:
            world.bcast(data)
        net.send(0, time.time())
    """
)


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "buggy.py").write_text(BUGGY)
    (tmp_path / "clean.py").write_text(
        "def ok(world, data):\n    return world.bcast(data)\n"
    )
    return tmp_path


def test_two_runs_are_byte_identical(tree):
    first = format_json(analyze_paths([tree]))
    second = format_json(analyze_paths([tree]))
    assert first == second
    codes = [f["code"] for f in json.loads(first)["new"]]
    assert codes == ["SPMD101", "SPMD103"]


def test_json_report_is_sorted_by_location(tree):
    doc = json.loads(format_json(analyze_paths([tree])))
    locs = [(f["path"], f["line"], f["col"]) for f in doc["new"]]
    assert locs == sorted(locs)
    assert doc["schema"] == SCHEMA
    assert doc["counts"] == {"SPMD101": 1, "SPMD103": 1}


def test_baseline_round_trip(tree):
    findings = analyze_paths([tree])
    baseline_path = tree / "baseline.json"
    write_baseline(baseline_path, findings)

    doc = json.loads(baseline_path.read_text())
    assert doc["schema"] == SCHEMA
    # Paths are stored relative to the baseline file, so the committed
    # baseline matches however the analyzed paths were spelled.
    assert {e["path"] for e in doc["findings"]} == {"buggy.py"}

    baseline = load_baseline(baseline_path)
    new, old = split_baselined(findings, baseline, baseline_path.parent)
    assert new == [] and len(old) == len(findings)


def test_new_finding_not_in_baseline_is_reported(tree):
    baseline_path = tree / "baseline.json"
    write_baseline(baseline_path, analyze_paths([tree]))
    extra = tree / "extra.py"
    extra.write_text(
        "def late(world):\n"
        "    if world.rank == 1:\n"
        "        world.barrier()\n"
    )
    new, old = split_baselined(
        analyze_paths([tree]),
        load_baseline(baseline_path),
        baseline_path.parent,
    )
    assert [f.code for f in new] == ["SPMD101"]
    assert Path(new[0].path).name == "extra.py"


def test_baseline_schema_mismatch_is_rejected(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"schema": "other/9", "findings": []}))
    with pytest.raises(ValueError):
        load_baseline(bad)


def test_sarif_output_is_valid_and_deterministic(tree):
    findings = analyze_paths([tree])
    first = format_sarif(findings)
    assert first == format_sarif(analyze_paths([tree]))
    doc = json.loads(first)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analyze"
    assert [r["ruleId"] for r in run["results"]] == ["SPMD101", "SPMD103"]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SPMD101", "SPMD105"} <= rule_ids


def test_cli_exit_codes_and_baseline_gate(tree, capsys):
    baseline_path = tree / "baseline.json"
    assert analyze_main([str(tree)]) == 1  # findings, no baseline
    capsys.readouterr()
    assert (
        analyze_main(
            [str(tree), "--baseline", str(baseline_path), "--write-baseline"]
        )
        == 0
    )
    capsys.readouterr()
    # Baselined findings no longer fail the run.
    assert analyze_main([str(tree), "--baseline", str(baseline_path)]) == 0
    out = capsys.readouterr().out
    assert "0 new findings" in out and "2 baselined" in out


def test_cli_write_baseline_requires_baseline(tree, capsys):
    assert analyze_main([str(tree), "--write-baseline"]) == 2


def test_cli_json_two_invocations_byte_identical(tree, capsys):
    analyze_main([str(tree), "--format", "json"])
    first = capsys.readouterr().out
    analyze_main([str(tree), "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_missing_path_exits_2(tmp_path, capsys):
    assert analyze_main([str(tmp_path / "nope.py")]) == 2


def test_parallel_import_loads_no_analyzer_module():
    """``repro.analysis`` re-exports only the sanitizers the runtime uses."""
    code = (
        "import sys, repro.parallel; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.analysis.')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "['repro.analysis.sanitizers']"


def test_package_tree_is_flow_clean():
    """Acceptance criterion: zero unbaselined findings on the package."""
    package_dir = Path(repro.__file__).resolve().parent
    findings = analyze_paths([package_dir])
    baseline_path = Path(__file__).resolve().parents[2] / (
        "analysis-baseline.json"
    )
    if baseline_path.exists():
        findings, _ = split_baselined(
            findings, load_baseline(baseline_path), baseline_path.parent
        )
    assert findings == [], "\n".join(f.format() for f in findings)
