"""Vectorized bulk mesh construction: the landing kernel.

Creating entities one at a time through :meth:`repro.mesh.mesh.Mesh.create`
is the right interface for mesh *modification*, but constructing or
receiving thousands of entities that way is dominated by per-entity Python
overhead.  :func:`land_vertices` and :func:`land_rows` are the one bulk
find-or-create kernel: they take a block of vertices, or a block of
explicit closure rows of one dimension, and land them on a possibly
non-empty mesh with block allocation, template-derived downward rows and
one ``bulk_add_up``; the core arrays are all they write, so existing
entities are found by the core's adjacency walk
(:meth:`~repro.mesh.core.MeshCore.find_rows`) or, where the caller holds
the rows below, by one sorted join against them (:func:`_joined_down`, the
join migration and refinement share).  Migration and ghosting land received
element closures through it (:mod:`repro.partition.migration`);
:func:`from_connectivity` derives the unique edge/face rows of a whole mesh
with NumPy ``sort``/``unique`` passes and lands them on an empty one,
producing a mesh identical to the incremental path (verified by the test
suite).

Orientation note: the canonical vertex order of each auto-derived edge/face
is taken from its first occurrence in element order, matching what the
incremental path produces when elements are created in the same order.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..gmodel.model import Model
from .core import DOWN_WIDTH, VERT_WIDTH
from .mesh import Mesh
from .topology import EDGE, VERTEX, type_info


def land_vertices(
    mesh: Mesh, coords: np.ndarray, gclass: Optional[np.ndarray] = None
) -> np.ndarray:
    """Create ``len(coords)`` vertices in one block; returns their ids.

    Ids are what the same number of ``create_vertex`` calls would return
    (free-list slots first).  ``gclass`` classifies them, see
    :func:`land_rows`.
    """
    coords = np.asarray(coords, dtype=float)
    core = mesh.core
    ids = core.alloc_block(0, len(coords))
    core.write_block(0, ids, VERTEX, None, None)
    mesh._reserve_coords(core.top[0])
    if len(ids):
        mesh._coords[ids] = 0.0
        mesh._coords[ids, : coords.shape[1]] = coords
        if gclass is not None:
            core.gclass[0][ids] = gclass
    return ids


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of a small-int matrix (entries >= -1), equal
    exactly where the rows are and ordered as the rows are
    lexicographically: the rows as digits of one number, made dense again
    (order kept) whenever the next digit would overflow."""
    base = int(rows.max(initial=-1)) + 2
    code = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # codes stay below it
    for k in range(rows.shape[1]):
        if bound * base >= 2**62:
            uniq, code = np.unique(code, return_inverse=True)
            code, bound = code.reshape(-1), len(uniq)
        code = code * base + (rows[:, k] + 1)
        bound *= base
    return code


def _match_rows(keys: np.ndarray, ids: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``ids`` of the rows of ``keys`` (distinct) equal to each ``query``
    row, -1 where none is."""
    codes = _row_codes(np.concatenate((keys, query)))
    table, asked = codes[: len(keys)], codes[len(keys):]
    order = np.argsort(table)
    table, ids = table[order], ids[order]
    at = np.minimum(np.searchsorted(table, asked), len(table) - 1)
    return np.where(table[at] == asked, ids[at], -1)


def _down_rows(
    etypes: np.ndarray,
    verts: np.ndarray,
    find: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """One-level downward ids of rows by type template: ``find`` resolves
    a block of equal-size vertex rows of the dimension below to ids (-1 =
    none).  Padded with -1, like :func:`land_rows` reads it."""
    infos = [type_info(etype) for etype in np.unique(etypes).tolist()]
    width = max(info.downward_count(info.dim - 1) for info in infos)
    down = np.full((len(verts), width), -1, dtype=np.int64)
    for info in infos:
        if info.dim == 2:
            templates = list(info.edges)
        else:
            templates = [locals_ for _ftype, locals_ in info.faces]
        rows = np.flatnonzero(etypes == info.code)
        # Template slots grouped by size: each group is one rectangular find.
        for size in sorted({len(t) for t in templates}):
            slots = [k for k, t in enumerate(templates) if len(t) == size]
            locals_ = np.asarray([templates[k] for k in slots], dtype=np.int64)
            found = find(verts[rows][:, locals_].reshape(-1, size))
            if (found < 0).any():
                raise ValueError(
                    f"cannot land {info.name} rows: a bounding entity is "
                    f"missing (every closure entity must be landed first)"
                )
            down[rows[:, None], slots] = found.reshape(len(rows), len(slots))
    return down


def _joined_down(
    etypes: np.ndarray, verts: np.ndarray, keys: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """:func:`_down_rows` joined against a table of the entities below:
    ``keys`` their sorted vertex rows (left-padded with -1), ``ids`` their
    local ids — no walk of the mesh."""
    width = keys.shape[1]

    def find(rows: np.ndarray) -> np.ndarray:
        query = np.full((len(rows), width), -1, dtype=np.int64)
        query[:, width - rows.shape[1]:] = np.sort(rows, axis=1)
        return _match_rows(keys, ids, query)

    return _down_rows(etypes, verts, find)


def land_rows(
    mesh: Mesh,
    dim: int,
    etypes: np.ndarray,
    verts: np.ndarray,
    gclass: Optional[np.ndarray] = None,
    down: Optional[np.ndarray] = None,
    probe: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Find-or-create a block of explicit dim-``dim`` rows (``dim`` >= 1).

    ``verts[k]`` holds row ``k``'s canonical local vertex ids (padded on
    the right when types of different size are mixed) and ``etypes[k]``
    its type code; rows must be distinct entities.  Rows whose vertices
    already carry an entity of ``dim`` resolve to it; the rest are created
    in row order with the ids the same sequence of ``create`` calls would
    return, their downward rows taken from the type templates by
    :meth:`~repro.mesh.core.MeshCore.find_rows` — so the dimension below
    must be landed first and nothing is auto-derived.  A caller that
    derived the rows from their upper entities, or that holds the rows
    below (:func:`_joined_down`), already knows the downward ids and passes
    them as ``down`` (same row order, template slot order, padded like
    ``verts``), which skips those walks.  ``probe`` (a boolean mask over
    rows) limits the find half to the flagged rows: a caller that knows a
    row is new — one of its vertices was just created — spares its walk.
    ``gclass`` holds one classification code of ``mesh`` per row (-1 =
    unset, see :meth:`Mesh.class_codes`); it applies to the rows this call
    creates.

    Returns ``(ids, created)``: the local id of every row and the boolean
    mask of the rows this call created.
    """
    etypes = np.asarray(etypes)
    verts = np.asarray(verts, dtype=np.int64)
    n = len(etypes)
    ids = np.empty(n, dtype=np.int64)
    core = mesh.core
    groups = []
    for etype in np.unique(etypes).tolist():
        info = type_info(etype)
        if info.dim != dim:
            raise ValueError(f"{info.name} row in a dim-{dim} block")
        rows = np.nonzero(etypes == etype)[0]
        group_verts = verts[rows, : info.nverts]
        ask = np.ones(len(rows), dtype=bool) if probe is None else probe[rows]
        ids[rows] = -1
        ids[rows[ask]] = core.find_rows(dim, group_verts[ask])
        groups.append((etype, rows, group_verts))
    created = ids < 0
    new_ids = core.alloc_block(dim, int(created.sum()))
    ids[created] = new_ids
    lowers, uppers = [], []
    for etype, rows, group_verts in groups:
        fresh = created[rows]
        if not fresh.any():
            continue
        group_verts = group_verts[fresh]
        group_ids = ids[rows[fresh]]
        if dim == 1:
            group_down = group_verts
        elif down is None:
            group_down = _down_rows(
                np.full(len(group_verts), etype), group_verts,
                lambda rows: core.find_rows(dim - 1, rows),
            )
        else:
            ndown = type_info(etype).downward_count(dim - 1)
            group_down = down[rows[fresh], :ndown]
        core.write_block(dim, group_ids, etype, group_verts, group_down)
        lowers.append(group_down.reshape(-1))
        uppers.append(np.repeat(group_ids, group_down.shape[1]))
    if lowers:
        core.bulk_add_up(dim - 1, np.concatenate(lowers), np.concatenate(uppers))
    if gclass is not None:
        core.gclass[dim][new_ids] = np.asarray(gclass)[created]
    return ids, created


def _unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct entities among vertex rows.

    Returns ``(sorted keys, rows, inverse)``: the distinct sorted-vertex
    keys in lexicographic order, one row per key in the orientation of its
    first occurrence, and for every input row the position of its entity.
    """
    keys = np.sort(rows, axis=1)
    _codes, first, inverse = np.unique(
        _row_codes(keys), return_index=True, return_inverse=True
    )
    return keys[first], rows[first], inverse.reshape(-1)


def from_connectivity(
    coords: np.ndarray,
    elements: np.ndarray,
    etype: int,
    model: Optional[Model] = None,
    classify: bool = False,
) -> Mesh:
    """Build a mesh of one element type from vertex coords + connectivity.

    Parameters
    ----------
    coords:
        ``(nverts, 2 or 3)`` float array of vertex locations.
    elements:
        ``(nelems, nverts_per_elem)`` int array of vertex indices in the
        canonical order of ``etype``.
    etype:
        The element type code (``TRI``, ``QUAD``, ``TET``, ``HEX``, ...).
    model, classify:
        Optional geometric model; with ``classify=True`` every entity is
        geometrically classified (vertices by location, the rest by closure).
    """
    info = type_info(etype)
    coords = np.asarray(coords, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 2 or elements.shape[1] != info.nverts:
        raise ValueError(
            f"{info.name} connectivity must be (ne, {info.nverts}), "
            f"got {elements.shape}"
        )
    if elements.size and (elements.min() < 0 or elements.max() >= len(coords)):
        raise ValueError("element connectivity references unknown vertices")

    mesh = Mesh(model)
    # On an empty mesh the landed vertex ids are 0..n-1: the connectivity's
    # vertex indices are already local ids.
    land_vertices(mesh, coords)
    if len(elements) == 0:
        return mesh

    # Each level's downward ids fall out of the derivation (the inverse of
    # ``np.unique``, or a sorted join on the edge keys), so the kernel is
    # handed them instead of walking the mesh once per bounding entity;
    # every row is new, so none is probed either.
    n_elems = len(elements)
    edge_locals = np.asarray(info.edges, dtype=np.int64)
    edge_keys, edges, edge_of = _unique_rows(
        elements[:, edge_locals].reshape(-1, 2)
    )
    edge_ids, _ = land_rows(
        mesh, 1, np.full(len(edges), EDGE, np.int16), edges,
        probe=np.zeros(len(edges), dtype=bool),
    )
    elem_down = edge_ids[edge_of].reshape(n_elems, -1)

    if info.dim == 3:
        # Unique faces per face type (prisms and pyramids mix tris and
        # quads), landed as one padded block.
        span = np.int64(len(coords))
        edge_codes = edge_keys[:, 0] * span + edge_keys[:, 1]
        types, rows, downs, slots_of = [], [], [], []
        start = 0
        for ftype in sorted({ftype for ftype, _locals in info.faces}):
            slots = [k for k, (ft, _l) in enumerate(info.faces) if ft == ftype]
            face_locals = np.asarray(
                [info.faces[k][1] for k in slots], dtype=np.int64
            )
            _keys, faces, face_of = _unique_rows(
                elements[:, face_locals].reshape(-1, face_locals.shape[1])
            )
            pairs = np.sort(
                faces[:, np.asarray(type_info(ftype).edges, dtype=np.int64)],
                axis=2,
            )
            face_down = edge_ids[
                np.searchsorted(edge_codes, pairs[:, :, 0] * span + pairs[:, :, 1])
            ]
            padded = np.zeros((len(faces), VERT_WIDTH[2]), dtype=np.int64)
            padded[:, : faces.shape[1]] = faces
            padded_down = np.zeros((len(faces), DOWN_WIDTH[2]), dtype=np.int64)
            padded_down[:, : face_down.shape[1]] = face_down
            types.append(np.full(len(faces), ftype, dtype=np.int16))
            rows.append(padded)
            downs.append(padded_down)
            slots_of.append((slots, start + face_of))
            start += len(faces)
        face_ids, _ = land_rows(
            mesh, 2, np.concatenate(types), np.concatenate(rows),
            down=np.concatenate(downs), probe=np.zeros(start, dtype=bool),
        )
        elem_down = np.empty((n_elems, len(info.faces)), dtype=np.int64)
        for slots, face_of in slots_of:
            elem_down[:, slots] = face_ids[face_of].reshape(n_elems, len(slots))

    land_rows(
        mesh, info.dim, np.full(n_elems, etype, dtype=np.int16), elements,
        down=elem_down, probe=np.zeros(n_elems, dtype=bool),
    )

    if classify:
        if model is None:
            raise ValueError("classify=True requires a geometric model")
        mesh.classify_against(model)
    return mesh
