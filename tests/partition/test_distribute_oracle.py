"""``distribute`` against the part builder it replaced.

``distribute`` is a migration out of the serial mesh: one closure block per
part, packed by ``_pack_blocks`` and landed onto the empty part by
``_land_blocks``.  The reference below is the builder it used before —
``from_connectivity`` for one element type, a per-entity ``Mesh.create``
loop for mixed meshes, and one ``mesh._lookup`` probe per edge and face to
find its global entity — kept here as the oracle, less the edge and face
gids it used to set: only vertices and elements carry gids, an edge or a
face is identified by its key (sorted vertex gids).

Both give every part the same vertices and elements in the same local
order, the same coordinates, the same edge and face keys with the same
classification, and the same links.  Only the *local ids* of edges and
faces may differ: ``_land_blocks`` numbers a block's intermediates by
``(dim, vertex-gid tuple)``, while ``from_connectivity`` numbers them by
sorted local vertex key and the per-entity loop by creation order.  So
edges and faces are compared as key sets, and links as
``(identity, remote part, remote identity)`` rows.
"""

import tracemalloc
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.mesh import TET, Ent, box_tet, rect_tri
from repro.mesh.build import from_connectivity
from repro.mesh.core import first_occurrence_unique
from repro.mesh.generate import extrude_to_prisms
from repro.mesh.mesh import Mesh, vertex_keys
from repro.mesh.verify import verify
from repro.partition import DistributedMesh, distribute
from repro.partition.links import (
    answer_columns,
    link_answers,
    ragged_arange,
    split_rows,
)
from repro.partition.part import Part
from repro.workloads import aaa_mesh


def _build_part(
    mesh: Mesh, part: Part, element_ids: np.ndarray, single_type: Optional[int]
) -> List[np.ndarray]:
    """The former part builder: closure, global ids, copied classification.

    Returns, per dimension, the global mesh's id of every local entity in
    local id order (a fresh part's ids are ``0..n-1``); vertices and
    elements take them as gids.
    """
    dim = mesh.dim()
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
        assert (found >= 0).all(), f"part {part.pid}: entity without match"
        global_ids.append(found)
    global_ids.append(element_ids)

    for d, gids in enumerate(global_ids):
        local = np.arange(len(gids))
        if d in (0, dim):
            part.set_gids(d, local, gids)
        local_mesh.copy_classification(mesh, d, gids, local)
    return global_ids


def reference_distribute(mesh: Mesh, assignment, nparts: int) -> DistributedMesh:
    """``distribute`` as it was built on ``_build_part``."""
    dim = mesh.dim()
    element_ids = mesh.entity_ids(dim)
    parts_of = np.asarray(assignment, dtype=np.int64)
    dmesh = DistributedMesh(nparts, model=mesh.model)
    etypes = np.unique(mesh.core.etype[dim][element_ids])
    single_type = int(etypes[0]) if len(etypes) == 1 else None
    held = [[] for _ in range(dim)]
    for pid in range(nparts):
        local_elements = element_ids[parts_of == pid]
        if not len(local_elements):
            continue
        global_ids = _build_part(
            mesh, dmesh.part(pid), local_elements, single_type
        )
        for d in range(dim):
            held[d].append((pid, global_ids[d]))
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
    for d in range(4):
        dmesh.note_gid(d, mesh.core.top[d])
    return dmesh


def _identity(part: Part, d: int, ids: np.ndarray) -> np.ndarray:
    """One identity row per entity: the gid of a vertex or an element, the
    key (sorted vertex gids) of an edge or a face."""
    if d in (0, part.mesh.dim()):
        return part.gids_of(d, ids)[:, None]
    return part.entity_keys(d, ids)


def _classified(part: Part, d: int) -> np.ndarray:
    """Rows ``(identity, class dim, class tag)`` of a part's dim-``d``
    entities in local id order (``(-1, -1)`` = unclassified)."""
    top = part.mesh.core.top[d]
    codes = part.mesh.core.gclass[d][:top].astype(np.int64)
    pairs = np.vstack((part.mesh.class_pairs(), [(-1, -1)]))
    return np.column_stack((_identity(part, d, np.arange(top)), pairs[codes]))


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def _link_triples(dm: DistributedMesh, part: Part, d: int) -> np.ndarray:
    """A part's dim-``d`` links as sorted ``(identity, pid, remote
    identity)`` rows."""
    ids, pids, rids = part.links(d)
    here = _identity(part, d, ids)
    there = np.empty_like(here)
    for q in np.unique(pids).tolist():
        at = pids == q
        there[at] = _identity(dm.part(q), d, rids[at])
    return _sorted_rows(np.column_stack((here, pids, there)))


def assert_same_distribution(dm: DistributedMesh, ref: DistributedMesh) -> None:
    """Every part of ``dm`` equals the reference's, edge and face local ids
    aside (see the module docstring)."""
    assert dm.nparts == ref.nparts
    dim = ref.element_dim()
    for part, want in zip(dm, ref):
        core, wcore = part.mesh.core, want.mesh.core
        for d in range(dim + 1):
            assert part.mesh.count(d) == core.top[d] == wcore.top[d]
            got, exp = _classified(part, d), _classified(want, d)
            if d in (0, dim):
                np.testing.assert_array_equal(got, exp)
            else:
                np.testing.assert_array_equal(
                    _sorted_rows(got), _sorted_rows(exp)
                )
            np.testing.assert_array_equal(
                _link_triples(dm, part, d), _link_triples(ref, want, d)
            )
        np.testing.assert_array_equal(
            part.mesh.coords_view(), want.mesh.coords_view()
        )
    dm.verify()


def _mixed_mesh():
    mesh = extrude_to_prisms(rect_tri(3), layers=2)
    for face in list(mesh.entities(2)):
        verts = mesh.verts_of(face)
        if len(verts) == 3 and all(mesh.coords(v)[2] == 1.0 for v in verts):
            apex = np.mean([mesh.coords(v) for v in verts], axis=0) + [0, 0, 0.3]
            mesh.create(TET, list(verts) + [mesh.create_vertex(apex)])
    return mesh


MESHES = {
    "rect_tri": lambda: rect_tri(5),
    "box_tet": lambda: box_tet(3),
    "mixed": _mixed_mesh,
    "aaa": lambda: aaa_mesh(2),
}


def _assignment(mesh, nparts):
    """Random parts ``0..nparts`` with part ``nparts // 2`` left empty."""
    rng = np.random.default_rng(nparts)
    parts = rng.integers(0, nparts, mesh.count(mesh.dim()))
    parts[parts >= nparts // 2] += 1
    return parts


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("nparts", [1, 3, 8, 16])
def test_distribute_matches_the_part_builder(kind, nparts):
    mesh = MESHES[kind]()
    assignment = _assignment(mesh, nparts)
    dm = distribute(mesh, assignment, nparts=nparts + 1)
    assert dm.part(nparts // 2).mesh.count(mesh.dim()) == 0
    assert_same_distribution(
        dm, reference_distribute(mesh, assignment, nparts + 1)
    )


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distribute_holds_one_part_and_leaves_the_serial_mesh_alone():
    """Packing every block before landing any, or wrapping the serial mesh
    in a ``Part`` (a gid dict entry per entity and a destroy listener),
    shows here as a higher allocation peak or a changed serial mesh."""
    mesh = aaa_mesh(4)
    assignment = np.arange(mesh.count(3)) * 16 // mesh.count(3)
    counts = mesh.entity_counts()
    listeners = len(mesh._destroy_listeners)
    # Warm both once so neither pays for the other's first-use caches.
    distribute(mesh, assignment, nparts=16)
    reference_distribute(mesh, assignment, 16)
    ours = _peak(lambda: distribute(mesh, assignment, nparts=16))
    oracle = _peak(lambda: reference_distribute(mesh, assignment, 16))
    assert ours <= 1.1 * oracle, (ours, oracle)
    assert mesh.entity_counts() == counts
    assert len(mesh._destroy_listeners) == listeners
    verify(mesh, check_classification=True)
