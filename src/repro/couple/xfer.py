"""Distributed cross-mesh solution transfer and transformer stages.

The data-motion core of the coupling hub.  :func:`transfer_between` moves a
vertex field from one distributed mesh onto the vertices of another — the
two meshes partitioned independently, at independent part counts — through
a *cross-world* star forest: source and target gangs join one synthetic
communicator of ``nsrc + ndst`` parts (the arXiv 1506.06194 pattern of
expressing overlap data motion over PetscSF), and the exchange is two
forest operations:

1. **points broadcast** — each target part's query coordinates (its local
   vertices) are roots broadcast to every source part;
2. **samples broadcast** — each source part batch-locates every query
   point over its SoA element arrays
   (:class:`~repro.field.shape.BatchLocator` with element *global ids* as
   order keys) and broadcasts, over the transpose forest, its sample
   columns back to each target part; the target then elects per point the
   least winner key ``(not contained, centroid distance^2, gid, value)``
   over the source parts with one lexsort (:func:`elect`).

Because global ids equal the serial mesh's element ids and the winner key
is a pure function of geometry, the elected element — and therefore every
interpolated bit — is exactly what serial
:func:`~repro.field.transfer.transfer_vertex_field` produces, at any part
count.  That bit-parity is the subsystem's acceptance gate.

Also here: the composable transformer stages channels declare
(:class:`Interpolate` / :class:`Scale` / :class:`TimeWindow`), applied by
the hub between communicator groups in the InterscaleHUB style.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..field.shape import BatchLocator
from ..obs.stats import CommProbe
from ..obs.tracer import Tracer, trace_span
from ..parallel.perf import GLOBAL, PerfCounters
from ..parallel.sf import SFComm, StarForest
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from .channel import CoupleError, TransformSpec

__all__ = [
    "Interpolate",
    "Scale",
    "TimeWindow",
    "XferStats",
    "apply_stages",
    "build_stages",
    "transfer_between",
]


# ---------------------------------------------------------------------------
# transformer stages
# ---------------------------------------------------------------------------


class Interpolate:
    """Marker stage: cross-mesh interpolation happens at the sampling side.

    Declaring it on a channel documents that the values entering the
    channel are already interpolated onto the receiver's query points; the
    stage itself is the identity.
    """

    kind = "interpolate"

    def apply(self, values: np.ndarray, seq: int) -> np.ndarray:
        return values


class Scale:
    """Multiply every component by a constant factor (unit conversion)."""

    kind = "scale"

    def __init__(self, factor: float) -> None:
        self.factor = float(factor)

    def apply(self, values: np.ndarray, seq: int) -> np.ndarray:
        return values * self.factor


class TimeWindow:
    """Moving average over the last ``width`` frames (by arrival order).

    The standard rate-adapting stage between solvers advancing at
    different cadences: the receiver sees a smoothed signal.  The window
    history is per-stage state, so each job run starts fresh; the mean is
    a fixed-axis reduction over a stacked array — deterministic.
    """

    kind = "time-window"

    def __init__(self, width: int) -> None:
        if width < 1:
            raise CoupleError(f"time-window width must be >= 1, got {width}")
        self.width = int(width)
        self._history: Deque[np.ndarray] = deque(maxlen=self.width)

    def apply(self, values: np.ndarray, seq: int) -> np.ndarray:
        self._history.append(np.asarray(values, dtype=float))
        return np.stack(list(self._history), axis=0).mean(axis=0)


def build_stages(transforms: Sequence[TransformSpec]) -> List[Any]:
    """Instantiate the stage pipeline a channel spec declares."""
    stages: List[Any] = []
    for spec in transforms:
        if spec.kind == "interpolate":
            stages.append(Interpolate())
        elif spec.kind == "scale":
            stages.append(Scale(spec.param))
        elif spec.kind == "time-window":
            stages.append(TimeWindow(int(spec.param)))
        else:  # pragma: no cover - TransformSpec already validates
            raise CoupleError(f"unknown transform kind {spec.kind!r}")
    return stages


def apply_stages(
    stages: Sequence[Any], values: np.ndarray, seq: int
) -> np.ndarray:
    """Run ``values`` through the stage pipeline in declaration order."""
    for stage in stages:
        values = stage.apply(values, seq)
    return values


# ---------------------------------------------------------------------------
# cross-mesh transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XferStats:
    """Byte-deterministic accounting of one cross-mesh transfer."""

    points: int
    contained: int
    nsrc: int
    ndst: int
    sf_ops: int
    messages: int
    wire_bytes: int
    supersteps: int
    encoded_bytes: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "points": self.points,
            "contained": self.contained,
            "nsrc": self.nsrc,
            "ndst": self.ndst,
            "sf_ops": self.sf_ops,
            "messages": self.messages,
            "wire_bytes": self.wire_bytes,
            "supersteps": self.supersteps,
            "encoded_bytes": self.encoded_bytes,
        }


def elect(
    candidates: Sequence[Tuple[np.ndarray, ...]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Each query point's winning sample among the source parts' samples.

    ``candidates`` holds one ``(values, gids, contained, d2)`` sample of the
    same points per source part, in part order; ``values`` has one row per
    point.  Per point the winner is the least ``(not contained, d2, gid,
    *values)`` in Python's tuple order, the earlier part winning a tie
    (keys are NaN-free) — one stable lexsort whose last, primary key is the
    point.  Returns the winners' ``(values, contained)``.
    """
    values, gids, contained, d2 = (
        np.concatenate([sample[k] for sample in candidates]) for k in range(4)
    )
    point = np.tile(np.arange(len(candidates[0][1])), len(candidates))
    order = np.lexsort(
        tuple(values.T[::-1]) + (gids, d2, np.logical_not(contained), point)
    )
    winners = order[:: len(candidates)]
    return values[winners], contained[winners]


def transfer_between(
    src_dmesh: DistributedMesh,
    src_field: DistributedField,
    dst_dmesh: DistributedMesh,
    name: Optional[str] = None,
    counters: Optional[PerfCounters] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[DistributedField, XferStats]:
    """Interpolate ``src_field`` onto every vertex of ``dst_dmesh``.

    Serial-equivalent to ``transfer_vertex_field(serial_src, field,
    serial_dst)`` bit-for-bit (see module docstring), at any combination
    of part counts.  Every target part fills *all* of its local vertices —
    shared copies are computed identically on every residence part, so the
    result needs no ownership synchronization.

    Returns ``(dst_field, stats)``.
    """
    if src_field.entity_dim != 0:
        raise CoupleError("cross-mesh transfer supports vertex fields")
    nsrc = src_dmesh.nparts
    ndst = dst_dmesh.nparts
    counters = counters if counters is not None else GLOBAL
    comm = SFComm(nsrc + ndst, counters=counters, tracer=tracer)
    probe = CommProbe(counters)
    out_name = name if name is not None else src_field.name
    dst_field = DistributedField(
        dst_dmesh, out_name, 0, src_field.on(0).shape
    )

    with trace_span(tracer, "couple.xfer", field=out_name):
        # Target query points: every part's local vertex coordinates.
        dst_ids: Dict[int, np.ndarray] = {}
        dst_points: Dict[int, np.ndarray] = {}
        for part in dst_dmesh:
            ids = part.mesh.core.live_ids(0)
            dst_ids[part.pid] = ids
            dst_points[part.pid] = np.array(part.mesh.coords_view()[ids])

        # Phase 1: broadcast each target part's points to every source part
        # (root and leaf handle: the target's index).
        cross = [(s, t) for t in range(ndst) for s in range(nsrc)]
        points_sf = StarForest.from_columns(
            comm, {(nsrc + t, s): ([t], [t]) for s, t in cross},
            name="couple.points",
        )
        received: Dict[int, Dict[int, np.ndarray]] = {
            s: {} for s in range(nsrc)
        }

        def deliver_points(s: int, _rpid: int, batch: Any) -> None:
            for t, pts in zip(batch[0].tolist(), batch[1]):
                received[s][t] = np.asarray(pts, dtype=float)

        points_sf.bcast(
            batch_data=lambda _rpid, _s, ts: [
                dst_points[t] for t in ts.tolist()
            ],
            batch_set=deliver_points,
        )

        # Local batch location on every source part: one locator over the
        # part's SoA arrays, element gids as partition-invariant order keys.
        samples: Dict[Tuple[int, int], Tuple[np.ndarray, ...]] = {}
        for s in range(nsrc):
            part = src_dmesh.part(s)
            dim = part.mesh.dim()
            elem_ids = part.mesh.core.live_ids(dim)
            locator = BatchLocator(
                part.mesh, order=part.gids_of(dim, elem_ids)
            )
            field = src_field.on(s)
            for t in range(ndst):
                values, rows, contained, d2 = locator.sample_full(
                    received[s][t], field
                )
                samples[(s, t)] = (
                    values, locator.order[rows], contained, d2
                )

        # Phase 2: the transpose bcast — every source part ships its sample
        # columns for a target part's points back to it (root handle: the
        # target's index; leaf handle: the source's).
        values_sf = StarForest.from_columns(
            comm, {(s, nsrc + t): ([t], [s]) for s, t in cross},
            name="couple.values",
        )
        candidates: Dict[int, List[Any]] = {
            t: [None] * nsrc for t in range(ndst)
        }

        def gather(lpid: int, _s: int, batch: Any) -> None:
            for s, sample in zip(batch[0].tolist(), batch[1]):
                candidates[lpid - nsrc][s] = sample

        values_sf.bcast(
            batch_data=lambda s, _lpid, ts: [
                samples[(s, t)] for t in ts.tolist()
            ],
            batch_set=gather,
        )

        # Election and write-back: one lexsort and one scatter per target.
        npoints = contained_total = 0
        for t in range(ndst):
            values, contained = elect(candidates[t])
            npoints += len(values)
            contained_total += int(contained.sum())
            dst_field.on(t).set_many(dst_ids[t], values)

        counters.add("couple.xfer.ops")
        counters.add("couple.xfer.points", npoints)

    stats = XferStats(
        points=npoints,
        contained=contained_total,
        nsrc=nsrc,
        ndst=ndst,
        sf_ops=2,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        encoded_bytes=probe.encoded_bytes(),
    )
    return dst_field, stats
