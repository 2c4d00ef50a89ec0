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


def _entity_map(mesh, new_mesh, vertex_map, ent) -> Ent:
    """Map any old entity to its new counterpart via vertex identity."""
    if ent.dim == 0:
        return vertex_map[ent]
    new_verts = [vertex_map[v] for v in mesh.verts_of(ent)]
    found = new_mesh.find(ent.dim, new_verts)
    if found is None:
        raise KeyError(f"{ent} has no counterpart in the compacted mesh")
    return found


def _transfer_entity_data(mesh, new_mesh, vertex_map, element_map) -> None:
    for name in mesh.tags.names():
        old_tag = mesh.tags.find(name)
        new_tag = new_mesh.tag(name)
        for ent, value in old_tag.items():
            if not mesh.has(ent):
                continue
            try:
                new_tag.set(_entity_map(mesh, new_mesh, vertex_map, ent), value)
            except KeyError:
                continue  # entity of a dimension not present anymore
    for name in mesh.sets.names():
        old_set = mesh.sets.find(name)
        new_set = new_mesh.sets.create(name, ordered=old_set.ordered)
        for ent in old_set:
            if not mesh.has(ent):
                continue
            try:
                new_set.add(_entity_map(mesh, new_mesh, vertex_map, ent))
            except KeyError:
                continue


def dead_fraction(mesh: Mesh) -> float:
    """Fraction of allocated entity slots that are dead (worth compacting)."""
    alive = sum(mesh.count(d) for d in range(4))
    capacity = sum(mesh.core.top)
    if capacity == 0:
        return 0.0
    return 1.0 - alive / capacity
