"""SPMD executor: run one rank function per thread with a shared world.

This is the simulation's stand-in for ``mpiexec -n P python prog.py``: the
rank program is a Python callable taking a :class:`~repro.parallel.comm.Comm`
as its first argument, and :func:`spmd` launches ``P`` copies on threads.
Return values are collected in rank order; an exception on any rank aborts
the job and is re-raised on the caller (with all other failures attached as
notes), mirroring an MPI abort.

Failures are reported structurally: :class:`SpmdError.records` is a list of
:class:`RankFailure` dataclasses (rank, exception type, superstep reached,
whether the failure was injected by :mod:`repro.resilience`), so recovery
drivers can classify failures without parsing tracebacks.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..obs.tracer import Tracer, trace_span
from .comm import Comm, CommWorld, CommAbortedError
from .perf import PerfCounters
from .topology import MachineTopology


@dataclass(frozen=True)
class RankFailure:
    """Structured record of one rank's failure.

    ``superstep`` is the rank's collective sequence number when it failed
    (its progress marker), or the injected fault's superstep when the
    failure came from a fault plan.  ``injected`` is true for failures
    raised by :class:`repro.resilience.InjectedFault` subclasses.
    """

    rank: int
    exc_type: str
    message: str
    traceback: str
    superstep: Optional[int] = None
    injected: bool = False
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        """JSON-safe form (the live exception object is omitted)."""
        return {
            "rank": self.rank,
            "exc_type": self.exc_type,
            "message": self.message,
            "superstep": self.superstep,
            "injected": self.injected,
        }


class SpmdError(RuntimeError):
    """One or more ranks raised; carries structured per-rank records.

    ``records`` holds :class:`RankFailure` entries sorted by rank.
    ``leaked_threads`` counts rank worker threads that were still alive
    when the executor gave up joining them (they are daemon threads, so
    they cannot keep the process alive, but they indicate a rank program
    stuck outside the communication layer).
    """

    leaked_threads: int = 0

    def __init__(self, records: Sequence[RankFailure]) -> None:
        self.records: List[RankFailure] = list(records)
        first = self.records[0]
        detail = "".join(
            f"\n--- rank {r.rank} raised {r.exc_type}: {r.message} ---"
            f"\n{r.traceback}"
            for r in self.records
        )
        super().__init__(
            f"{len(self.records)} rank(s) failed; first: rank {first.rank} "
            f"raised {first.exc_type}: {first.message}{detail}"
        )

    @property
    def injected_only(self) -> bool:
        """True when every reported failure came from a fault plan."""
        return all(r.injected for r in self.records)


def spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    topology: Optional[MachineTopology] = None,
    counters: Optional[PerfCounters] = None,
    timeout: Optional[float] = 60.0,
    copy_off_node: bool = True,
    sanitize: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
    fault_injector: Optional[Any] = None,
    cancel: Optional[threading.Event] = None,
    join_grace: float = 5.0,
) -> List[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` threads; return results by rank.

    Parameters
    ----------
    nranks:
        Number of simulated ranks (threads).
    fn:
        The rank program.  Receives the world communicator then ``args``.
    topology:
        Machine model for on/off-node classification (default: flat).
    counters:
        Shared performance registry (default: the module-global one).
    timeout:
        Per-receive deadlock timeout in seconds; ``None`` disables it.
    copy_off_node:
        Whether off-node payloads are deep-copied through pickle (MPI
        semantics).  Disable only for trusted read-only payloads.
    sanitize:
        Enable the runtime sanitizers (alias freeze proxies, collective-order
        cross-checking, wait-for-graph deadlock detection).  ``None`` (the
        default) resolves from the ``REPRO_SANITIZE`` environment variable.
    tracer:
        Observability hook (:class:`~repro.obs.Tracer`).  When tracing is
        active each rank runs inside a ``rank<i>`` span with its trace
        thread id bound to the rank, and every transmitted message is
        charged to the communication matrix.  ``None`` resolves to the
        installed default tracer (normally also ``None`` — untraced runs
        pay one branch per message).
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector`; ``crash`` faults
        without a superstep kill their rank's thread as it starts, and the
        resulting :class:`SpmdError` records mark the failure as injected.
    cancel:
        Cooperative cancellation hook: when this event is set, the world is
        aborted — every rank blocked in the communication layer wakes with
        :class:`~repro.parallel.comm.CommAbortedError` and the job fails
        with an :class:`SpmdError` whose records are those aborts.  This is
        how the serving tier (:mod:`repro.svc`) enforces job deadlines.
    join_grace:
        After an abort (a rank failure or a cancellation), how many seconds
        to wait for the remaining rank threads to exit.  Threads still
        alive afterwards are abandoned — they are daemon threads, so a
        stuck rank cannot leak a non-daemon thread into the next job run in
        the same process; the count is reported via
        ``SpmdError.leaked_threads`` and the ``spmd.threads.leaked``
        counter.
    """
    world = CommWorld(
        nranks,
        topology=topology,
        counters=counters,
        copy_off_node=copy_off_node,
        timeout=timeout,
        sanitize=sanitize,
        tracer=tracer,
    )
    results: List[Any] = [None] * nranks
    failures: List[RankFailure] = []
    failure_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = Comm(world, rank)
        active = world.tracer if (
            world.tracer is not None and world.tracer.enabled
        ) else None
        if active is not None:
            # Spans opened by the rank program inherit tid=rank, so the
            # Chrome trace shows one timeline lane per rank.
            active.bind(pid=0, tid=rank)
        try:
            if fault_injector is not None:
                fault_injector.on_rank_start(rank)
            with trace_span(active, f"rank{rank}", tid=rank):
                results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            injected = bool(getattr(exc, "injected_fault", False))
            superstep = (
                getattr(exc, "superstep", None)
                if injected
                else comm._collective_seq
            )
            record = RankFailure(
                rank=rank,
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                superstep=superstep,
                injected=injected,
                exception=exc,
            )
            with failure_lock:
                failures.append(record)
            world.abort()

    threads = [
        threading.Thread(
            target=runner,
            args=(rank,),
            name=f"spmd-rank-{rank}",
            daemon=True,
        )
        for rank in range(nranks)
    ]
    for thread in threads:
        thread.start()

    # Join with a poll so an external cancellation can abort the world, and
    # with a bounded grace period once an abort happened: a rank stuck in
    # pure computation (or a foreign sleep) never observes the abort, and an
    # unbounded join would hang the caller forever.  Daemon threads make
    # abandonment safe — a reaped rank cannot outlive the process.
    pending = list(threads)
    abort_seen: Optional[float] = None
    leaked = 0
    while pending:
        head = pending[-1]
        head.join(timeout=0.02 if (cancel is not None or abort_seen) else 0.2)
        if not head.is_alive():
            pending.pop()
            continue
        if cancel is not None and cancel.is_set():
            world.abort()
        if world.aborted:
            now = time.monotonic()
            if abort_seen is None:
                abort_seen = now
            elif now - abort_seen > join_grace:
                leaked = sum(1 for t in pending if t.is_alive())
                world.counters.add("spmd.threads.leaked", leaked)
                break

    # Abandoned threads may still append to ``failures`` later; work from a
    # snapshot taken under the lock.
    with failure_lock:
        reported = list(failures)

    if leaked and not reported:
        # Cancellation (or a fault) aborted the world but no rank observed
        # it: synthesize records for the abandoned ranks so the caller
        # still gets a structured failure.
        for rank, thread in enumerate(threads):
            if thread.is_alive():
                reported.append(
                    RankFailure(
                        rank=rank,
                        exc_type="LeakedRankError",
                        message=(
                            "rank thread did not exit within the join "
                            "grace period after abort; abandoned as a "
                            "daemon thread"
                        ),
                        traceback="",
                    )
                )

    if reported:
        failures = reported
        failures.sort(key=lambda record: record.rank)
        # Secondary CommAbortedError failures are just ranks woken by the
        # abort; report the root cause(s) unless nothing else failed.
        primary = [
            f for f in failures if not isinstance(f.exception, CommAbortedError)
        ]
        error = SpmdError(primary or failures)
        error.leaked_threads = leaked
        raise error
    return results
