"""Typed statistics returned by the distributed-mesh service entry points.

The services (:func:`~repro.partition.migration.migrate`,
:func:`~repro.partition.ghosting.ghost_layer` / ``delete_ghosts``,
:func:`~repro.partition.fieldsync.synchronize` / ``accumulate``) historically
returned bare ints, which made every perf claim ("migration moved less"
versus "migration moved the same but sent twice the bytes") unverifiable
from the caller's side.  They now return the dataclasses below, following
the :class:`~repro.core.improve.ImproveStats` /
:class:`~repro.core.merge_split.SplitStats` convention: a frozen record of
what the operation did (entities, per-dimension breakdown) and what it cost
(messages, wire bytes, supersteps, wall seconds), measured from the shared
perf-counter registry around the operation.

All of them expose ``summary()`` for human-readable one-liners and
``to_dict()`` for strict-JSON export (used by the ``BENCH_*.json`` metrics).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # imported for annotations only: obs must stay cycle-free
    from ..parallel.perf import PerfCounters

#: Counter names that constitute message traffic on the BSP network.
_MESSAGE_COUNTERS = (
    "net.messages.self",
    "net.messages.on_node",
    "net.messages.off_node",
)


class CommProbe:
    """Measures the communication charged to a counter registry in a window.

    Snapshot the registry at construction, call :meth:`messages` /
    :meth:`wire_bytes` / :meth:`supersteps` / :meth:`seconds` when the
    operation finished.  This is how the service entry points source their
    stats without threading a tracer through every call.
    """

    def __init__(self, counters: "PerfCounters") -> None:
        self._counters = counters
        self._before = counters.counters()
        self._t0 = time.perf_counter()

    def _delta(self, name: str) -> int:
        return self._counters.get(name) - self._before.get(name, 0)

    def messages(self) -> int:
        return sum(self._delta(name) for name in _MESSAGE_COUNTERS)

    def wire_bytes(self) -> int:
        return self._delta("net.bytes.off_node")

    def encoded_bytes(self) -> int:
        """Bytes of codec-encoded batch buffers built in the window."""
        return self._delta("net.bytes.encoded")

    def messages_coalesced(self) -> int:
        """Logical records folded into batch buffers in the window."""
        return self._delta("net.messages.coalesced")

    def supersteps(self) -> int:
        return self._delta("net.exchanges")

    def seconds(self) -> float:
        return time.perf_counter() - self._t0

    def cost(self) -> Dict[str, Any]:
        """The window's :class:`CommStats` cost fields, as keyword arguments."""
        return {
            "messages": self.messages(),
            "wire_bytes": self.wire_bytes(),
            "supersteps": self.supersteps(),
            "seconds": self.seconds(),
            "encoded_bytes": self.encoded_bytes(),
            "messages_coalesced": self.messages_coalesced(),
        }


@dataclass(frozen=True)
class CommStats:
    """Communication cost common to every distributed service."""

    messages: int = 0
    wire_bytes: int = 0
    supersteps: int = 0
    seconds: float = 0.0
    #: Bytes of codec-encoded batch buffers the operation built.
    encoded_bytes: int = 0
    #: Logical records coalesced into those batch buffers.
    messages_coalesced: int = 0
    #: Star-forest operations (bcast/reduce) the service executed; zero
    #: for purely local services.
    sf_ops: int = 0

    def to_dict(self) -> Dict:
        """Plain-dict form safe for ``json.dumps(..., allow_nan=False)``."""
        payload = asdict(self)
        for key, value in payload.items():
            if isinstance(value, tuple):
                payload[key] = list(value)
        return payload

    def _cost(self) -> str:
        return (
            f"{self.messages} msg, {self.wire_bytes} B, "
            f"{self.supersteps} superstep(s), {self.seconds:.4f}s"
        )


@dataclass(frozen=True)
class MigrateStats(CommStats):
    """Outcome of one :func:`~repro.partition.migration.migrate` call."""

    elements_moved: int = 0
    #: Closure entities packed onto the wire, per entity dimension.
    per_dimension: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def summary(self) -> str:
        return (
            f"migrate: {self.elements_moved} element(s) "
            f"(closure {list(self.per_dimension)}) [{self._cost()}]"
        )


@dataclass(frozen=True)
class GhostStats(CommStats):
    """Outcome of one :func:`~repro.partition.ghosting.ghost_layer` call."""

    ghosts_created: int = 0
    layers: int = 0
    #: Ghost entities created (elements plus closure), per dimension.
    per_dimension: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def summary(self) -> str:
        return (
            f"ghost_layer: {self.ghosts_created} ghost element(s) in "
            f"{self.layers} layer(s) (created {list(self.per_dimension)}) "
            f"[{self._cost()}]"
        )


@dataclass(frozen=True)
class GhostDeleteStats(CommStats):
    """Outcome of one :func:`~repro.partition.ghosting.delete_ghosts` call.

    Ghost deletion is purely local, so the communication fields are zero;
    they are kept for uniformity with the other services.
    """

    entities_removed: int = 0
    #: Ghost entities destroyed, per dimension.
    per_dimension: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def summary(self) -> str:
        return (
            f"delete_ghosts: {self.entities_removed} entity(ies) removed "
            f"(per dim {list(self.per_dimension)}) [{self.seconds:.4f}s]"
        )


@dataclass(frozen=True)
class SyncStats(CommStats):
    """Outcome of one :func:`~repro.partition.fieldsync.synchronize` call."""

    values_sent: int = 0
    entity_dim: int = 0

    def summary(self) -> str:
        return (
            f"synchronize(dim={self.entity_dim}): {self.values_sent} "
            f"value(s) [{self._cost()}]"
        )


@dataclass(frozen=True)
class AccumulateStats(CommStats):
    """Outcome of one :func:`~repro.partition.fieldsync.accumulate` call."""

    contributions: int = 0
    synced: int = 0
    entity_dim: int = 0

    @property
    def values_sent(self) -> int:
        """Total values on the wire: copy→owner sums plus owner→copy sync."""
        return self.contributions + self.synced

    def summary(self) -> str:
        return (
            f"accumulate(dim={self.entity_dim}): {self.contributions} "
            f"contribution(s) + {self.synced} sync value(s) [{self._cost()}]"
        )


@dataclass(frozen=True)
class SFStats(CommStats):
    """Outcome of one :class:`~repro.parallel.sf.StarForest` operation."""

    #: Which operation ran: ``"bcast"`` or ``"reduce.<op>"``.
    op: str = ""
    #: The forest's name (spans and counters quote the same string).
    forest: str = ""
    nroots: int = 0
    nleaves: int = 0
    #: Payload records processed (one per leaf of the forest).
    records: int = 0

    def summary(self) -> str:
        return (
            f"sf.{self.op}[{self.forest}]: {self.nroots} root(s) / "
            f"{self.nleaves} leaf(ves), {self.records} record(s) "
            f"[{self._cost()}]"
        )


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    Deterministic given the sample multiset: sorts, then indexes at
    ``ceil(q/100 * n)`` (nearest-rank convention).  Raises ``ValueError``
    on an empty sample list or an out-of-range ``q``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = -(-int(q * len(ordered)) // 100)  # ceil(q/100 * n) without floats
    return ordered[max(rank, 1) - 1]


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution summary (count / mean / p50 / p95 / max).

    Built from raw wall-clock samples by :meth:`from_samples`; the serving
    tier reports job latencies this way and the throughput benchmark quotes
    the same record, so "p95" always means the same nearest-rank estimate.
    """

    count: int = 0
    total: float = 0.0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    max: float = 0.0

    @classmethod
    def from_samples(cls, samples: "list[float]") -> "LatencyStats":
        if not samples:
            return cls()
        values = [float(s) for s in samples]
        total = sum(values)
        return cls(
            count=len(values),
            total=total,
            mean=total / len(values),
            p50=percentile(values, 50.0),
            p95=percentile(values, 95.0),
            max=max(values),
        )

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
        }

    def summary(self) -> str:
        return (
            f"latency: n={self.count} mean={self.mean:.4f}s "
            f"p50={self.p50:.4f}s p95={self.p95:.4f}s max={self.max:.4f}s"
        )
