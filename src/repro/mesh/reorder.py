"""Mesh compaction and cache-friendly reordering.

Two pressures motivate rebuilding a mesh's storage:

* destroyed handles are recycled through the core's free-list, but the
  high-water mark only grows — long adaptation runs still accumulate
  capacity and lose creation-order locality;
* iteration order follows creation order, which after heavy modification
  correlates poorly with spatial locality — the cache issue the
  algorithm-oriented mesh database literature the paper cites addresses.

:func:`compact` rebuilds a mesh with dense ids ordered either by current id
(``"keep"``) or by a breadth-first traversal of the element dual graph
(``"bfs"``), which clusters neighboring elements — and through them their
vertices — in memory.  Tags, sets and classification are carried over;
returns the new mesh plus old→new element and vertex maps so callers can
remap external references.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Tuple

import numpy as np

from .entity import Ent
from .mesh import Mesh


def bfs_element_order(mesh: Mesh) -> list:
    """Elements in breadth-first dual-graph order (all components)."""
    dim = mesh.dim()
    order = []
    seen = set()
    for seed in mesh.entities(dim):
        if seed in seen:
            continue
        queue = deque([seed])
        seen.add(seed)
        while queue:
            element = queue.popleft()
            order.append(element)
            for neighbor in mesh.second_adjacent(element, dim - 1, dim):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    return order


def compact(
    mesh: Mesh, order: str = "bfs"
) -> Tuple[Mesh, Dict[Ent, Ent], Dict[Ent, Ent]]:
    """Rebuild ``mesh`` densely; returns (new mesh, element map, vertex map).

    ``order``: ``"bfs"`` (spatial clustering) or ``"keep"`` (current id
    order).  The maps send old handles to new handles.  Tags and sets are
    transferred for every surviving entity; classification always is.
    """
    dim = mesh.dim()
    if order == "bfs":
        elements = bfs_element_order(mesh)
    elif order == "keep":
        elements = list(mesh.entities(dim))
    else:
        raise ValueError(f"unknown order {order!r} (use 'bfs' or 'keep')")

    new_mesh = Mesh(mesh.model)
    vertex_map: Dict[Ent, Ent] = {}
    element_map: Dict[Ent, Ent] = {}
    for element in elements:
        new_verts = []
        for v in mesh.verts_of(element):
            nv = vertex_map.get(v)
            if nv is None:
                nv = vertex_map[v] = new_mesh.create_vertex(mesh.coords(v))
            new_verts.append(nv)
        element_map[element] = new_mesh.create(mesh.etype(element), new_verts)

    # Isolated vertices (no elements) survive too.
    for v in mesh.entities(0):
        if v not in vertex_map and not mesh.up(v):
            vertex_map[v] = new_mesh.create_vertex(mesh.coords(v))

    # Vertex and element classification carry over as column gathers; the
    # intermediate entities re-derive theirs by the closure rule.
    for d, ent_map in ((0, vertex_map), (dim, element_map)):
        new_mesh.copy_classification(
            mesh, d,
            np.fromiter((e.idx for e in ent_map), np.int64, len(ent_map)),
            np.fromiter((e.idx for e in ent_map.values()), np.int64, len(ent_map)),
        )
    new_mesh.classify_closure(dim, new_mesh.entity_ids(dim))

    _transfer_entity_data(mesh, new_mesh, vertex_map, element_map)
    return new_mesh, element_map, vertex_map


def _transfer_entity_data(mesh, new_mesh, vertex_map, element_map) -> None:
    """Carry tags and sets over, each old entity to the new one on its
    mapped vertices (one walk of the new mesh per dimension)."""
    names, set_names = list(mesh.tags.names()), list(mesh.sets.names())
    if not names and not set_names:
        return
    new_of = [np.full(mesh.core.top[0], -1, dtype=np.int64)]
    new_of[0][[v.idx for v in vertex_map]] = [
        v.idx for v in vertex_map.values()
    ]
    core = mesh.core
    for d in range(1, 4):
        ids = mesh.entity_ids(d)
        used = np.arange(core.verts[d].shape[1]) < core.nverts[d][ids][:, None]
        col = np.full(core.top[d], -1, dtype=np.int64)
        col[ids] = new_mesh.core.find_rows(
            d, np.where(used, new_of[0][core.verts[d][ids]], -1)
        )
        new_of.append(col)

    def mapped(ent):
        """``ent``'s counterpart, or None (dead, or of a dimension gone)."""
        if not mesh.has(ent) or new_of[ent.dim][ent.idx] < 0:
            return None
        return Ent(ent.dim, int(new_of[ent.dim][ent.idx]))

    for name in names:
        new_tag = new_mesh.tag(name)
        for ent, value in mesh.tags.find(name).items():
            new = mapped(ent)
            if new is not None:
                new_tag.set(new, value)
    for name in set_names:
        old_set = mesh.sets.find(name)
        new_set = new_mesh.sets.create(name, ordered=old_set.ordered)
        for ent in old_set:
            new = mapped(ent)
            if new is not None:
                new_set.add(new)


def dead_fraction(mesh: Mesh) -> float:
    """Fraction of allocated entity slots that are dead (worth compacting)."""
    alive = sum(mesh.count(d) for d in range(4))
    capacity = sum(mesh.core.top)
    if capacity == 0:
        return 0.0
    return 1.0 - alive / capacity
