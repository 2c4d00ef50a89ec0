"""Solver-in-the-loop adaptive workload: solve -> estimate -> adapt ->
transfer -> rebalance.

:func:`run_adapt_loop` drives the closed loop the coupling hub exists to
serve: each cycle "solves" (samples an analytic front onto the vertex
field), estimates a per-element interpolation error, converts the worst
elements into a refinement size field, adapts the mesh, transfers the
pre-adapt solution onto the adapted mesh (the :mod:`repro.field.transfer`
batch kernel), and rebalances the adapted mesh with ParMA.  The estimated
error is monotonically non-increasing across cycles — refinement splits
exactly the elements that carry the peak error while untouched elements
reproduce their error bit-for-bit — which is the loop's acceptance
invariant.

On the first cycle the loop also runs the *distributed* transfer
(:func:`~repro.couple.xfer.transfer_between`) over independently
partitioned source/target meshes and records whether it matched the serial
kernel bit-for-bit — a built-in self-check of the subsystem's parity gate.

Everything is deterministic: the report carries no wall-clock and two runs
produce byte-identical documents.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..adapt import adapt
from ..core.balancer import ParMA
from ..field.field import Field
from ..field.sizefield import AnalyticSize
from ..field.transfer import transfer_vertex_field
from ..mesh.build import from_connectivity
from ..mesh.mesh import Mesh
from ..obs.tracer import Tracer, trace_span
from ..parallel.perf import GLOBAL, PerfCounters
from ..partition.distribute import distribute
from ..partition.fieldsync import DistributedField
from ..partitioners import partition
from .xfer import transfer_between

__all__ = ["run_adapt_loop"]

LOOP_SCHEMA = "repro.couple.loop/1"

#: Fraction of the peak element error above which an element is refined.
FLAG_FRACTION = 0.3
#: Target size of a refined element relative to its current longest edge.
REFINE_FACTOR = 0.45
#: Size prescribed away from flagged elements — large enough that nothing
#: outside the flagged set ever refines.
H_COARSE = 10.0


def _front(x: np.ndarray) -> Any:
    """The manufactured solution: a tanh front across ``x + y = 1``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(np.tanh(8.0 * (x[0] + x[1] - 1.0)))
    return np.tanh(8.0 * (x[..., 0] + x[..., 1] - 1.0))


def _solve(mesh: Mesh, name: str) -> Field:
    """Sample the manufactured solution onto a fresh vertex field."""
    field = Field(mesh, name, 0, 1)
    field.set_from_coords(_front)
    return field


def _estimate(mesh: Mesh, field: Field) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element error: |exact(centroid) - mean(vertex values)|.

    Vectorized over the core SoA arrays; returns ``(err, centroids, pts)``
    with ``pts`` the ``(ne, nverts, 3)`` element corner coordinates.
    """
    dim = mesh.dim()
    eids = mesh.core.live_ids(dim)
    verts = mesh.core.verts_matrix(dim, eids)
    pts = mesh.coords_view()[verts]
    centroids = pts.mean(axis=1)
    vert_vals = field.get_many(verts.reshape(-1)).reshape(verts.shape)
    err = np.abs(_front(centroids) - vert_vals.mean(axis=1))
    return err, centroids, pts


def _refine_size(
    err: np.ndarray, centroids: np.ndarray, pts: np.ndarray
) -> Tuple[AnalyticSize, int]:
    """Size field refining the flagged (high-error) elements only.

    Near a flagged element's centroid (within its own diameter) the target
    size is ``REFINE_FACTOR`` times its longest edge; everywhere else the
    target is ``H_COARSE``, so only flagged elements trip the refinement
    band.  Returns ``(size_field, flagged_count)``.
    """
    from scipy.spatial import cKDTree

    flagged = err >= FLAG_FRACTION * err.max()
    fc = np.ascontiguousarray(centroids[flagged])
    fpts = pts[flagged]
    nv = fpts.shape[1]
    h = np.zeros(len(fpts), dtype=float)
    for a in range(nv):
        for b in range(a + 1, nv):
            edge = np.linalg.norm(fpts[:, a] - fpts[:, b], axis=1)
            h = np.maximum(h, edge)
    tree = cKDTree(fc)

    def size_fn(x: np.ndarray) -> float:
        d, i = tree.query(np.asarray(x, dtype=float)[: fc.shape[1]])
        if d <= h[i]:
            return REFINE_FACTOR * h[i]
        return H_COARSE

    return AnalyticSize(size_fn), int(flagged.sum())


def _snapshot(mesh: Mesh, field: Field) -> Tuple[Mesh, Field]:
    """Standalone copy of ``mesh`` + ``field`` with dense serial ids.

    Adaptation mutates the mesh in place; the transfer needs the pre-adapt
    mesh as an independent source.  Vertex/element creation order follows
    live-id order, so the copy's ids are the rank of the original ids —
    deterministic, and shared by every :func:`distribute` of the copy (the
    global ids the cross-part winner rule keys on).
    """
    dim = mesh.dim()
    vids = mesh.core.live_ids(0)
    eids = mesh.core.live_ids(dim)
    coords = np.array(mesh.coords_view()[vids])
    conn = mesh.core.verts_matrix(dim, eids)
    pos = np.full(int(vids.max()) + 1, -1, dtype=np.int64)
    pos[vids] = np.arange(len(vids))
    etype = int(mesh.core.etype[dim][eids[0]])
    snap = from_connectivity(coords, pos[conn], etype)
    out = Field(snap, field.name, 0, field.shape)
    out.set_many(np.arange(len(vids)), field.get_many(vids))
    return snap, out


def _checksum(mesh: Mesh, field: Field) -> int:
    """CRC32 of the field values in vertex-id order (bit-level identity)."""
    ids = mesh.core.live_ids(0)
    return zlib.crc32(np.ascontiguousarray(field.get_many(ids)).tobytes())


def _distributed_matches(
    snap: Mesh,
    snap_field: Field,
    mesh: Mesh,
    serial_out: Field,
    parts: int,
    counters: PerfCounters,
    tracer: Optional[Tracer],
) -> bool:
    """Re-run the transfer distributed at ``parts`` parts; bitwise compare."""
    src_d = distribute(snap, partition(snap, parts, method="rcb"),
                       counters=counters, tracer=tracer)
    dst_d = distribute(mesh, partition(mesh, parts, method="rcb"),
                       counters=counters, tracer=tracer)
    sfield = DistributedField(src_d, snap_field.name, 0, snap_field.shape)
    sfield.set_from_coords(_front)
    dfield, _stats = transfer_between(
        src_d, sfield, dst_d, counters=counters, tracer=tracer
    )
    for part in dst_d:
        ids = part.mesh.core.live_ids(0)
        gids = part.gids_of(0, ids)
        if not np.array_equal(
            dfield.on(part.pid).get_many(ids), serial_out.get_many(gids)
        ):
            return False
    return True


def run_adapt_loop(
    n: int = 8,
    cycles: int = 3,
    parts: int = 2,
    field_name: str = "u",
    counters: Optional[PerfCounters] = None,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Run ``cycles`` adapt-loop cycles on a ``rect_tri(n)`` mesh.

    Returns a deterministic ``repro.couple.loop/1`` report: per-cycle
    element/error/transfer/balance records plus the loop invariants
    (``monotone_error``, ``distributed_transfer_matches``).
    """
    from ..mesh.generate import rect_tri

    if n < 2:
        raise ValueError(f"adapt loop needs n >= 2, got {n}")
    if cycles < 1:
        raise ValueError(f"adapt loop needs cycles >= 1, got {cycles}")
    if parts < 1:
        raise ValueError(f"adapt loop needs parts >= 1, got {parts}")
    counters = counters if counters is not None else GLOBAL

    mesh = rect_tri(n)
    dim = mesh.dim()
    records = []
    est_history = []
    dist_matches = None

    with trace_span(tracer, "couple.loop", n=n, cycles=cycles):
        for cycle in range(cycles):
            field = _solve(mesh, field_name)
            err, centroids, pts = _estimate(mesh, field)
            est_max = float(err.max())
            est_l2 = float(np.sqrt((err ** 2).mean()))
            est_history.append(est_max)

            size, flagged = _refine_size(err, centroids, pts)
            snap, snap_field = _snapshot(mesh, field)
            stats = adapt(
                mesh, size, max_passes=2, do_coarsen=False, do_swap=False
            )

            transferred = transfer_vertex_field(snap, snap_field, mesh)
            checksum = _checksum(mesh, transferred)
            if cycle == 0 and parts > 1:
                dist_matches = _distributed_matches(
                    snap, snap_field, mesh, transferred, parts,
                    counters, tracer,
                )

            bal_d = distribute(
                mesh, partition(mesh, parts, method="rcb"),
                counters=counters, tracer=tracer,
            )
            parma = ParMA(bal_d)
            imb_before = float(parma.imbalances()[dim])
            priorities = "Face" if dim == 2 else "Rgn"
            parma.improve(priorities, tol=0.05)
            imb_after = float(parma.imbalances()[dim])

            records.append({
                "cycle": cycle,
                "elements": int(len(mesh.core.live_ids(dim))),
                "vertices": int(len(mesh.core.live_ids(0))),
                "est_max": est_max,
                "est_l2": est_l2,
                "flagged": flagged,
                "splits": stats.splits,
                "transfer_checksum": checksum,
                "imbalance_before": round(imb_before, 9),
                "imbalance_after": round(imb_after, 9),
            })
            counters.add("couple.loop.cycles")

    monotone = all(
        later <= earlier + 1e-15
        for earlier, later in zip(est_history, est_history[1:])
    )
    report: Dict[str, Any] = {
        "schema": LOOP_SCHEMA,
        "n": n,
        "cycles": cycles,
        "parts": parts,
        "field": field_name,
        "records": records,
        "monotone_error": monotone,
        "final_elements": int(len(mesh.core.live_ids(dim))),
        "final_vertices": int(len(mesh.core.live_ids(0))),
    }
    if dist_matches is not None:
        report["distributed_transfer_matches"] = bool(dist_matches)
    return report
