"""Failure-path tests for the communication substrate."""

import pytest

from repro.parallel import (
    Comm,
    CommTimeoutError,
    CommWorld,
    PerfCounters,
    SpmdError,
    spmd,
)


def test_recv_timeout_raises():
    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)  # never sent

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=0.2)
    assert "timed out" in str(info.value)


def test_spmd_error_reports_every_failing_rank():
    def prog(comm):
        raise RuntimeError(f"rank {comm.rank} boom")

    with pytest.raises(SpmdError) as info:
        spmd(3, prog, counters=PerfCounters(), timeout=5.0)
    message = str(info.value)
    assert "3 rank(s) failed" in message
    for rank in range(3):
        assert f"rank {rank} boom" in message


def test_abort_wakes_blocked_ranks_quickly():
    import time

    def prog(comm):
        if comm.rank == 0:
            raise ValueError("dead on arrival")
        comm.recv(source=0)  # would block for the full timeout

    start = time.perf_counter()
    with pytest.raises(SpmdError) as info:
        spmd(3, prog, counters=PerfCounters(), timeout=30.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0  # abort cut through the 30s timeout
    # The root cause is reported, not the secondary aborts.
    assert "dead on arrival" in str(info.value)
    assert "CommAbortedError" not in str(info.value)


def test_send_to_invalid_rank():
    def prog(comm):
        comm.send("x", dest=99)

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=5.0)
    assert "out of range" in str(info.value)


def test_world_size_validated():
    with pytest.raises(ValueError):
        CommWorld(0)


def test_comm_requires_member_rank():
    world = CommWorld(2, counters=PerfCounters())
    with pytest.raises(ValueError):
        Comm(world, rank=1, group=[0])


def test_topology_capacity_validated():
    from repro.parallel import single_node

    with pytest.raises(ValueError):
        CommWorld(8, topology=single_node(2), counters=PerfCounters())


def test_alltoall_length_validated():
    def prog(comm):
        comm.alltoall([1])  # wrong length for size-2 world

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=5.0)
    assert "exactly" in str(info.value)


# -- SpmdError failure reporting (executor.py primary/secondary filtering) ---


def test_secondary_aborts_filtered_out_of_failures_attribute():
    from repro.parallel import CommAbortedError

    def prog(comm):
        if comm.rank == 1:
            raise ValueError("root cause")
        comm.recv(source=(comm.rank + 1) % comm.size)  # blocks until abort

    with pytest.raises(SpmdError) as info:
        spmd(3, prog, counters=PerfCounters(), timeout=30.0)
    records = info.value.records
    # Only the primary failure survives filtering; the ranks woken by the
    # abort (CommAbortedError) are dropped.
    assert [r.rank for r in records] == [1]
    assert not any(isinstance(r.exception, CommAbortedError) for r in records)


def test_all_aborted_failures_reported_when_no_primary():
    from repro.parallel import CommAbortedError

    def prog(comm):
        if comm.rank == 0:
            raise CommAbortedError("synthetic abort raised by the program")

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=5.0)
    # With no non-abort failure, the aborts themselves are the report —
    # an empty SpmdError would hide that the job died.
    assert any(
        isinstance(r.exception, CommAbortedError) for r in info.value.records
    )


def test_multi_rank_failures_sorted_by_rank():
    import time

    def prog(comm):
        if comm.rank == 2:
            raise RuntimeError("fast failure on rank 2")
        if comm.rank == 0:
            time.sleep(0.3)  # append out of rank order
            raise KeyError("slow failure on rank 0")

    with pytest.raises(SpmdError) as info:
        spmd(3, prog, counters=PerfCounters(), timeout=30.0)
    ranks = [r.rank for r in info.value.records]
    assert ranks == sorted(ranks) and ranks[0] == 0
    # The headline names the lowest-ranked primary failure, not the first
    # to be appended.
    assert "first: rank 0" in str(info.value)


def test_failures_carry_formatted_tracebacks():
    def prog(comm):
        if comm.rank == 1:
            raise RuntimeError("carry my traceback")

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=5.0)
    (record,) = info.value.records
    assert record.rank == 1 and isinstance(record.exception, RuntimeError)
    assert "carry my traceback" in record.traceback
    assert "Traceback" in record.traceback


def test_abort_wakeup_leaves_results_for_successful_ranks_unreported():
    # The wake-up path: rank 0 fails *after* rank 1 is already blocked in a
    # collective; the abort must cut rank 1 loose and the job must raise.
    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("fail before entering the collective")
        comm.barrier()  # noqa: SPMD101 - deliberately unmatched to test abort

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=30.0)
    assert "fail before entering the collective" in str(info.value)


# -- structured per-rank failure records (SpmdError.records) -----------------


def test_spmd_error_exposes_structured_records():
    """Recovery layers classify via typed records, never by string-parsing."""
    from repro.parallel import RankFailure

    def prog(comm):
        if comm.rank == 1:
            raise KeyError("structured")

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=5.0)
    (record,) = info.value.records
    assert isinstance(record, RankFailure)
    assert record.rank == 1
    assert record.exc_type == "KeyError"
    assert "structured" in record.message
    assert "Traceback" in record.traceback
    assert record.injected is False
    assert isinstance(record.exception, KeyError)
    # JSON-safe dict form carries no live exception object.
    d = record.to_dict()
    assert d["rank"] == 1 and d["exc_type"] == "KeyError"
    assert "exception" not in d


def test_records_carry_superstep_of_failure():
    def prog(comm):
        comm.barrier()  # superstep 0
        comm.barrier()  # superstep 1
        if comm.rank == 0:
            raise RuntimeError("after two collectives")
        comm.barrier()

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=30.0)
    record = info.value.records[0]
    assert record.rank == 0
    assert record.superstep == 2  # two collectives completed before death


def test_injected_only_false_for_ordinary_failures():
    def prog(comm):
        raise RuntimeError("plain")

    with pytest.raises(SpmdError) as info:
        spmd(2, prog, counters=PerfCounters(), timeout=5.0)
    assert info.value.injected_only is False
    assert all(not r.injected for r in info.value.records)
