"""Initial distribution of a serial mesh to the parts of a DistributedMesh.

Mesh generation in this reproduction is serial; :func:`distribute` takes the
generated global mesh plus an element→part assignment (from any partitioner
in :mod:`repro.partitioners`) and produces the distributed representation:
per-part serial meshes containing each part's elements and their closure,
global ids matching across parts, symmetric remote-copy links for all
part-boundary entities, and copied geometric classification.

Global ids are simply the global mesh's entity ids, which makes the
distribution invertible and easy to debug.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..mesh.build import from_connectivity
from ..mesh.core import first_occurrence_unique
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..obs.tracer import Tracer, trace_span
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from .dmesh import DistributedMesh

Assignment = Union[Dict[Ent, int], Sequence[int], np.ndarray]


def distribute(
    mesh: Mesh,
    assignment: Assignment,
    nparts: Optional[int] = None,
    topology: Optional[MachineTopology] = None,
    counters: Optional[PerfCounters] = None,
    sanitize: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
) -> DistributedMesh:
    """Split ``mesh`` into a :class:`DistributedMesh` by element assignment.

    ``assignment`` maps each top-dimension element to a part id — either a
    dict keyed by element handle, or a sequence aligned with the elements in
    id order.  ``nparts`` defaults to ``max(assignment) + 1``; empty parts
    are allowed.  ``tracer`` is forwarded to the resulting
    :class:`DistributedMesh` (``None`` resolves to the installed default).
    """
    dim = mesh.dim()
    if dim < 1:
        raise ValueError("cannot distribute a mesh without elements")
    elements: List[Ent] = list(mesh.entities(dim))

    if isinstance(assignment, dict):
        try:
            parts_of = np.asarray([assignment[e] for e in elements], dtype=np.int64)
        except KeyError as missing:
            raise ValueError(f"assignment misses element {missing}") from None
    else:
        parts_of = np.asarray(assignment, dtype=np.int64)
        if parts_of.shape != (len(elements),):
            raise ValueError(
                f"assignment length {parts_of.shape} != element count "
                f"{len(elements)}"
            )
    if len(parts_of) and parts_of.min() < 0:
        raise ValueError("negative part id in assignment")
    needed = int(parts_of.max()) + 1 if len(parts_of) else 1
    if nparts is None:
        nparts = needed
    elif nparts < needed:
        raise ValueError(f"assignment references part {needed - 1} >= {nparts}")

    dmesh = DistributedMesh(
        nparts,
        model=mesh.model,
        topology=topology,
        counters=counters,
        sanitize=sanitize,
        tracer=tracer,
    )

    with trace_span(dmesh.tracer, "distribute", nparts=nparts):
        # holders[d][gid] -> [(pid, local Ent)] for remote links.
        holders: List[Dict[int, List]] = [{}, {}, {}, {}]

        etypes = {mesh.etype(e) for e in elements}
        single_type = etypes.pop() if len(etypes) == 1 else None

        with trace_span(dmesh.tracer, "distribute.build_parts"):
            for pid in range(nparts):
                local_elements = [
                    e for e, p in zip(elements, parts_of) if p == pid
                ]
                part = dmesh.part(pid)
                if not local_elements:
                    continue
                _build_part(
                    mesh, dmesh, part, local_elements, single_type, holders
                )

        # Symmetric remote links for entities held by more than one part.
        with trace_span(dmesh.tracer, "distribute.link_boundaries"):
            for dim_h in range(dim):  # elements are never shared
                for gid, held in holders[dim_h].items():
                    if len(held) < 2:
                        continue
                    for pid, ent in held:
                        dmesh.part(pid).remotes[ent] = {
                            other_pid: other_ent
                            for other_pid, other_ent in held
                            if other_pid != pid
                        }

        # Future gid allocations must not collide with the global ids.
        for d in range(4):
            dmesh.note_gid(d, mesh.core.top[d])
    return dmesh


def _build_part(mesh, dmesh, part, local_elements, single_type, holders):
    """Construct one part's serial mesh and record gid holders."""
    dim = mesh.dim()
    # Compact global vertex ids used by this part: first-occurrence order
    # over the row-major element connectivity, extracted in one gather.
    element_ids = np.fromiter(
        (e.idx for e in local_elements), dtype=np.int64, count=len(local_elements)
    )
    if single_type is not None:
        vmat = mesh.core.verts_matrix(dim, element_ids)
        global_verts_arr = first_occurrence_unique(vmat.reshape(-1))
        local_of = np.zeros(mesh.core.top[0], dtype=np.int64)
        local_of[global_verts_arr] = np.arange(len(global_verts_arr))
        conn = local_of[vmat]
        global_verts: List[int] = global_verts_arr.tolist()
        coords = mesh.coords_view()[global_verts_arr]
        local_mesh = from_connectivity(coords, conn, single_type)
    else:
        global_verts = []
        seen: Dict[int, int] = {}
        conn_rows: List[List[int]] = []
        for element in local_elements:
            row = []
            for v in mesh.verts_of(element):
                local = seen.get(v.idx)
                if local is None:
                    local = seen[v.idx] = len(global_verts)
                    global_verts.append(v.idx)
                row.append(local)
            conn_rows.append(row)
        coords = mesh.coords_view()[global_verts]
        local_mesh = Mesh()
        vhandles = [local_mesh.create_vertex(c) for c in coords]
        for element, row in zip(local_elements, conn_rows):
            local_mesh.create(
                mesh.etype(element), [vhandles[i] for i in row]
            )
    local_mesh.model = mesh.model
    part.mesh = local_mesh

    # Vertices: gid = global id; classification copied; holder recorded.
    for local_idx, global_idx in enumerate(global_verts):
        ent = Ent(0, local_idx)
        part.set_gid(ent, global_idx)
        gent = mesh.classification(Ent(0, global_idx))
        if gent is not None:
            local_mesh.set_classification(ent, gent)
        holders[0].setdefault(global_idx, []).append((part.pid, ent))

    # Edges and faces: match to the global mesh by sorted global vertex ids.
    for d in range(1, dim):
        lookup = mesh._lookup[d - 1]
        for ent in local_mesh.entities(d):
            key = tuple(
                sorted(global_verts[i] for i in local_mesh.core.verts_row(d, ent.idx))
            )
            global_idx = lookup.get(key)
            if global_idx is None:
                raise AssertionError(
                    f"part {part.pid}: local entity {ent} has no global match"
                )
            part.set_gid(ent, global_idx)
            gent = mesh.classification(Ent(d, global_idx))
            if gent is not None:
                local_mesh.set_classification(ent, gent)
            holders[d].setdefault(global_idx, []).append((part.pid, ent))

    # Elements: created in local_elements order by both construction paths.
    for local_idx, element in enumerate(local_elements):
        ent = Ent(dim, local_idx)
        part.set_gid(ent, element.idx)
        gent = mesh.classification(element)
        if gent is not None:
            local_mesh.set_classification(ent, gent)
