"""Initial distribution of a serial mesh to the parts of a DistributedMesh.

Mesh generation in this reproduction is serial; :func:`distribute` takes the
generated global mesh plus an element→part assignment (from any partitioner
in :mod:`repro.partitioners`) and produces the distributed representation:
per-part serial meshes containing each part's elements and their closure,
global ids matching across parts, symmetric remote-copy links for all
part-boundary entities, and copied geometric classification.

Distribution is a migration out of the serial mesh (paper, Section II-C):
each part's elements are packed into one closure block and landed onto the
empty part by the same two functions that :func:`~repro.partition.migrate`
and :func:`~repro.partition.ghost_layer` ship closures with
(:mod:`repro.partition.migration`).  Vertex and element global ids are
simply the global mesh's entity ids, which makes the distribution
invertible and easy to debug; edges and faces are matched across parts by
their sorted vertex gids, like everywhere else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..obs.tracer import Tracer, trace_span
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from .dmesh import DistributedMesh
from .links import answer_columns, link_answers, split_rows, surface_ids
from .migration import _land_blocks, _pack_blocks

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
            raw = np.asarray(
                [assignment[Ent(dim, i)] for i in element_ids.tolist()]
            )
        except KeyError as missing:
            raise ValueError(f"assignment misses element {missing}") from None
    else:
        raw = np.asarray(assignment)
        if raw.shape != (len(element_ids),):
            raise ValueError(
                f"assignment length {raw.shape} != element count "
                f"{len(element_ids)}"
            )
    with np.errstate(invalid="ignore"):
        parts_of = raw.astype(np.int64)
    bad = np.flatnonzero(parts_of != raw)  # NaN, inf, fractions
    if len(bad):
        k = int(bad[0])
        raise ValueError(
            f"element {Ent(dim, int(element_ids[k]))} assigned to "
            f"non-integral part {raw[k].item()!r}"
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
        # held[d]: per non-empty part, (pid, ids, keys) of its dim-d surface
        # entities — the only ones another part can hold too.
        held: List[List[Tuple[int, np.ndarray, np.ndarray]]] = [
            [] for _ in range(dim)
        ]
        with trace_span(dmesh.tracer, "distribute.build_parts"):
            for pid in range(nparts):
                local_elements = element_ids[parts_of == pid]
                if not len(local_elements):
                    continue
                part = dmesh.part(pid)
                _land_blocks(part, _pack_blocks(
                    mesh, np.arange(mesh.core.top[0]),
                    np.arange(mesh.core.top[dim]), dim, local_elements,
                    [len(local_elements)],
                ))
                for d, ids in enumerate(surface_ids(part)):
                    held[d].append((pid, ids, part.entity_keys(d, ids)))

        # Symmetric remote links for entities held by more than one part:
        # the grouping job of the link rendezvous, keyed by entity key.
        with trace_span(dmesh.tracer, "distribute.link_boundaries"):
            for d, holders in enumerate(held):
                pids, ids, keys = zip(*holders)
                answers = link_answers(
                    np.full(sum(map(len, ids)), d), np.concatenate(keys),
                    np.repeat(pids, list(map(len, ids))), np.concatenate(ids),
                )
                for pid, lengths, flat in split_rows(*answers):
                    _dim, *columns = answer_columns(lengths, flat)
                    dmesh.part(pid).replace_links(d, (), *columns)

        # Future gid allocations must not collide with the global ids (of
        # vertices and elements: the only entities that carry one).
        for d in (0, dim):
            dmesh.note_gid(d, mesh.core.top[d])
    return dmesh

