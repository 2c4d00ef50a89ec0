"""Tests for the checkpoint/restart recovery driver.

The acceptance bar for the resilience subsystem: a run with an injected
mid-run rank crash must recover to exactly the final partition statistics
of the fault-free run, and identical (workload, seed, fault plan) runs
must produce byte-identical recovery reports and observability metrics.
"""

import json

import pytest

from repro import obs
from repro.mesh import rect_tri
from repro.parallel import PerfCounters
from repro.partition import distribute, migrate
from repro.resilience import (
    CheckpointManager,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedRankFailure,
    RecoveryExhaustedError,
    classify_failure,
    resilient_spmd,
)

NPARTS = 4
NSTEPS = 3


def build():
    """Strip-partitioned triangle mesh with its own counter registry."""
    mesh = rect_tri(6)
    assignment = [
        min(int(mesh.centroid(e)[0] * NPARTS), NPARTS - 1)
        for e in mesh.entities(2)
    ]
    return distribute(mesh, assignment, counters=PerfCounters())


def step(dmesh, i):
    """Migrate every element to its centroid-strip owner (x / y alternate).

    The destination is a pure function of coordinates, so the final
    partition is invariant under checkpoint/restore relabeling.
    """
    axis = i % 2
    plan = {}
    for part in dmesh:
        moves = {}
        for element in part.mesh.entities(2):
            if element in part.ghosts:
                continue
            dest = min(
                int(part.mesh.centroid(element)[axis] * NPARTS), NPARTS - 1
            )
            if dest != part.pid:
                moves[element] = dest
        plan[part.pid] = moves
    migrate(dmesh, plan)


def crash_plan(superstep, rank=1, count=1):
    return FaultPlan(
        specs=(
            FaultSpec(
                kind="crash", rank=rank, superstep=superstep, count=count
            ),
        ),
        seed=7,
    )


def run(tmp_path, name, faults=None, tracer=None, max_retries=3):
    manager = CheckpointManager(tmp_path / name, keep=3)
    dmesh, report = resilient_spmd(
        build, step, NSTEPS, checkpoints=manager, checkpoint_every=1,
        faults=faults, max_retries=max_retries, tracer=tracer,
    )
    dmesh.verify()
    return dmesh, report


def mid_superstep(tmp_path):
    """Superstep index roughly halfway through a clean run."""
    probe = FaultInjector(FaultPlan())
    run(tmp_path, "probe", faults=probe)
    assert probe.superstep > 2
    return probe.superstep // 2


def test_injected_crash_recovers_to_fault_free_result(tmp_path):
    _, baseline = run(tmp_path, "base")
    assert baseline.recoveries == [] and baseline.faults == []

    mid = mid_superstep(tmp_path)
    _, chaos = run(tmp_path, "chaos", faults=crash_plan(mid))
    assert len(chaos.recoveries) == 1
    event = chaos.recoveries[0]
    assert event.kind == "injected"
    assert event.exc_type == "InjectedRankFailure"
    assert chaos.step_attempts == NSTEPS + 1
    assert [f["kind"] for f in chaos.faults] == ["crash"]
    # The recovered run ends exactly where the fault-free run ends.
    assert chaos.final_owned_totals == baseline.final_owned_totals
    assert chaos.final_entity_counts == baseline.final_entity_counts


def test_recovery_report_is_byte_deterministic(tmp_path):
    mid = mid_superstep(tmp_path)
    _, rep1 = run(tmp_path, "a", faults=crash_plan(mid))
    _, rep2 = run(tmp_path, "b", faults=crash_plan(mid))
    doc1 = json.dumps(rep1.to_dict(), sort_keys=True)
    doc2 = json.dumps(rep2.to_dict(), sort_keys=True)
    assert doc1 == doc2
    assert "seconds" not in doc1  # no wall time in the document


def test_metrics_documents_identical_modulo_time(tmp_path):
    mid = mid_superstep(tmp_path)

    def strip_seconds(doc):
        def walk(span):
            span.pop("seconds")
            for child in span["children"]:
                walk(child)

        for span in doc["spans"]:
            walk(span)
        return doc

    docs = []
    for name in ("m1", "m2"):
        perf = PerfCounters()
        tracer = obs.Tracer(counters=perf)
        run(tmp_path, name, faults=crash_plan(mid), tracer=tracer)
        docs.append(
            strip_seconds(obs.metrics_dict(tracer=tracer, counters=perf))
        )
    assert docs[0] == docs[1]


def test_real_failure_propagates_unwrapped(tmp_path):
    def bad_step(dmesh, i):
        if i == 1:
            raise ValueError("genuine workload bug")
        step(dmesh, i)

    manager = CheckpointManager(tmp_path / "ck")
    with pytest.raises(ValueError, match="genuine workload bug"):
        resilient_spmd(build, bad_step, NSTEPS, checkpoints=manager)


def test_retries_exhausted_raises_with_report(tmp_path):
    mid = mid_superstep(tmp_path)
    with pytest.raises(RecoveryExhaustedError) as info:
        run(tmp_path, "x", faults=crash_plan(mid, count=-1), max_retries=2)
    report = info.value.report
    assert len(report.recoveries) == 2
    assert info.value.__cause__ is not None


def test_corrupt_payload_classified_as_collateral(tmp_path):
    plan = FaultPlan(
        specs=(FaultSpec(kind="corrupt", src=0),), seed=5
    )
    _, report = run(tmp_path, "c", faults=plan)
    assert len(report.recoveries) == 1
    event = report.recoveries[0]
    assert event.kind == "collateral"
    assert event.exc_type != "InjectedRankFailure"
    assert [f["kind"] for f in report.faults] == ["corrupt"]
    # Still converges to the fault-free result.
    _, baseline = run(tmp_path, "base")
    assert report.final_owned_totals == baseline.final_owned_totals


def test_classify_failure_direct():
    injector = FaultInjector(FaultPlan())
    assert classify_failure(InjectedRankFailure(0), injector, 0) == "injected"
    assert classify_failure(ValueError("x"), injector, 0) == "real"
    assert classify_failure(ValueError("x"), None, 0) == "real"
    injector.records.append(None)  # any recorded injection since the mark
    assert classify_failure(ValueError("x"), injector, 0) == "collateral"
    assert classify_failure(ValueError("x"), injector, 1) == "real"


def test_obs_counters_and_spans_record_recovery(tmp_path):
    mid = mid_superstep(tmp_path)
    perf = PerfCounters()
    tracer = obs.Tracer(counters=perf)
    run(tmp_path, "t", faults=crash_plan(mid), tracer=tracer)
    counters = perf.counters()
    assert counters["resilience.failures"] == 1
    assert counters["resilience.recoveries"] == 1
    assert counters["resilience.checkpoints"] == NSTEPS
    names = {
        span.name for root in tracer.roots for span in root.walk()
    }
    assert "resilience.epoch" in names
    assert "resilience.recover" in names
    assert "resilience.recoveries" in tracer.timelines()


def test_checkpoint_cadence_still_checkpoints_last_step(tmp_path):
    manager = CheckpointManager(tmp_path / "ck", keep=10)
    _, report = resilient_spmd(
        build, step, NSTEPS, checkpoints=manager, checkpoint_every=2
    )
    # Steps 0..2: checkpoint after step 1 (cadence) and step 2 (final).
    assert report.checkpoints_written == 2
    assert [info.step for info in manager.checkpoints()] == [1, 2]


def test_argument_validation(tmp_path):
    manager = CheckpointManager(tmp_path / "ck")
    with pytest.raises(ValueError):
        resilient_spmd(build, step, -1, checkpoints=manager)
    with pytest.raises(ValueError):
        resilient_spmd(
            build, step, 1, checkpoints=manager, checkpoint_every=0
        )


def test_zero_steps_returns_initial_mesh(tmp_path):
    manager = CheckpointManager(tmp_path / "ck")
    dmesh, report = resilient_spmd(build, step, 0, checkpoints=manager)
    assert report.steps == 0 and report.step_attempts == 0
    assert dmesh.nparts == NPARTS
    assert report.final_owned_totals[2] == 72  # 2 * 6 * 6 triangles
