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

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mesh.build import from_connectivity
from ..mesh.core import first_occurrence_unique
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh, vertex_keys
from ..obs.tracer import Tracer, trace_span
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from .dmesh import DistributedMesh
from .links import answer_columns, link_answers, ragged_arange, split_rows
from .part import Part

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
    element_ids = mesh.entity_ids(dim)

    if isinstance(assignment, dict):
        try:
            parts_of = np.asarray(
                [assignment[Ent(dim, i)] for i in element_ids.tolist()],
                dtype=np.int64,
            )
        except KeyError as missing:
            raise ValueError(f"assignment misses element {missing}") from None
    else:
        parts_of = np.asarray(assignment, dtype=np.int64)
        if parts_of.shape != (len(element_ids),):
            raise ValueError(
                f"assignment length {parts_of.shape} != element count "
                f"{len(element_ids)}"
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
        etypes = np.unique(mesh.core.etype[dim][element_ids])
        single_type = int(etypes[0]) if len(etypes) == 1 else None

        # held[d]: per non-empty part, (pid, global ids of its dim-d
        # entities in local id order) — local ids are 0..n-1 on a fresh part.
        held: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(dim)]
        with trace_span(dmesh.tracer, "distribute.build_parts"):
            for pid in range(nparts):
                local_elements = element_ids[parts_of == pid]
                if not len(local_elements):
                    continue
                global_ids = _build_part(
                    mesh, dmesh.part(pid), local_elements, single_type
                )
                for d in range(dim):  # elements are never shared
                    held[d].append((pid, global_ids[d]))

        # Symmetric remote links for entities held by more than one part:
        # the grouping job of the link rendezvous, keyed by global id.
        with trace_span(dmesh.tracer, "distribute.link_boundaries"):
            for d, holders in enumerate(held):
                gids = np.concatenate([g for _pid, g in holders])
                counts = [len(g) for _pid, g in holders]
                answers = link_answers(
                    np.full(len(gids), d),
                    gids[:, None],
                    np.repeat([pid for pid, _g in holders], counts),
                    ragged_arange(np.zeros(len(counts), dtype=np.int64), counts),
                )
                for pid, lengths, flat in split_rows(*answers):
                    _dim, ids, pids, rids = answer_columns(lengths, flat)
                    dmesh.part(pid).replace_links(d, (), ids, pids, rids)

        # Future gid allocations must not collide with the global ids.
        for d in range(4):
            dmesh.note_gid(d, mesh.core.top[d])
    return dmesh


def _build_part(
    mesh: Mesh, part: Part, element_ids: np.ndarray, single_type: Optional[int]
) -> List[np.ndarray]:
    """Construct one part's serial mesh from the global elements
    ``element_ids``: closure, global ids, copied classification.

    Returns, per dimension, the global id of every local entity in local
    id order (a fresh part's ids are ``0..n-1``).
    """
    dim = mesh.dim()
    # Compact global vertex ids used by this part: first-occurrence order
    # over the row-major element connectivity, extracted in one gather.
    if single_type is not None:
        vmat = mesh.core.verts_matrix(dim, element_ids)
        global_verts = first_occurrence_unique(vmat.reshape(-1))
        local_of = np.zeros(mesh.core.top[0], dtype=np.int64)
        local_of[global_verts] = np.arange(len(global_verts))
        local_mesh = from_connectivity(
            mesh.coords_view()[global_verts], local_of[vmat], single_type
        )
    else:
        seen: Dict[int, int] = {}
        local_mesh = Mesh()
        for idx in element_ids.tolist():
            element = Ent(dim, idx)
            row = []
            for v in mesh.verts_of(element):
                local = seen.get(v.idx)
                if local is None:
                    local = seen[v.idx] = len(seen)
                    local_mesh.create_vertex(mesh.coords(v))
                row.append(Ent(0, local))
            local_mesh.create(mesh.etype(element), row)
        global_verts = np.fromiter(seen, dtype=np.int64, count=len(seen))
    local_mesh.model = mesh.model
    part.mesh = local_mesh

    # Edges and faces match the global mesh by sorted global vertex ids,
    # one lookup probe per row; elements were created in ``element_ids``
    # order by both construction paths.
    core = local_mesh.core
    global_ids = [global_verts]
    for d in range(1, dim):
        nverts = core.nverts[d][: core.top[d]]
        found = np.full(core.top[d], -1, dtype=np.int64)
        for width in np.unique(nverts).tolist():
            rows = np.flatnonzero(nverts == width)
            keys = vertex_keys(global_verts[core.verts[d][rows, :width]])
            found[rows] = np.fromiter(
                (mesh._lookup[d - 1].get(key, -1) for key in keys),
                dtype=np.int64, count=len(rows),
            )
        if (found < 0).any():
            raise AssertionError(
                f"part {part.pid}: local entity "
                f"{Ent(d, int(np.flatnonzero(found < 0)[0]))} has no global "
                f"match"
            )
        global_ids.append(found)
    global_ids.append(element_ids)

    for d, gids in enumerate(global_ids):
        local = np.arange(len(gids))
        part.set_gids(d, local, gids)
        local_mesh.copy_classification(mesh, d, gids, local)
    return global_ids
