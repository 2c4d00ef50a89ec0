"""Edge-collapse coarsening.

The inverse primitive of refinement: collapsing edge ``(a, b)`` removes
vertex ``a`` by sliding it onto ``b``.  Elements containing both endpoints
degenerate and disappear; the remaining elements of ``a``'s cavity are
rebuilt with ``b`` in ``a``'s place.  A collapse is rejected when it would

* move a vertex off its geometric classification (``a`` must be classified
  on a model entity in the closure of ``b``'s — collapsing an interior
  vertex is always fine, collapsing a boundary vertex along its own model
  edge/face is fine, but collapsing a model vertex or across model entities
  would change the domain), or
* invert or degenerate any rebuilt element (checked by signed measure),
* produce an element that already exists (topological collision), or
* create an edge or face that the closure rule would classify below its own
  dimension (a disk-centre vertex slid onto the rim leaves rim-only faces).

Rejected collapses leave the mesh untouched.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence

import numpy as np

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..mesh.quality import measure


def can_collapse_classification(mesh: Mesh, a: Ent, b: Ent) -> bool:
    """Whether removing ``a`` by sliding onto ``b`` respects the geometry."""
    ga = mesh.classification(a)
    if ga is None or mesh.model is None:
        return True  # unclassified meshes have no geometric constraint
    gb = mesh.classification(b)
    if ga.dim == 0:
        return False  # model vertices are immovable
    mesh_dim = mesh.dim()
    if ga.dim == mesh_dim:
        return True  # interior vertex
    # Boundary vertex: b must lie on the same model entity (or its closure
    # boundary would be distorted).
    return gb is not None and (gb == ga or gb in mesh.model.closure(ga))


def collapse_edge(
    mesh: Mesh,
    edge: Ent,
    keep: Optional[Ent] = None,
    min_quality: float = 1e-10,
    ancestry_tag: Optional[str] = None,
) -> bool:
    """Collapse ``edge``; returns True on success, False if rejected.

    ``keep`` selects the surviving endpoint (default: try both, preferring
    the one whose collapse is geometrically legal).
    """
    if edge.dim != 1 or not mesh.has(edge):
        raise ValueError(f"{edge} is not a live edge")
    va, vb = mesh.verts_of(edge)
    candidates = []
    if keep is None:
        candidates = [(va, vb), (vb, va)]  # (removed, kept)
    elif keep == va:
        candidates = [(vb, va)]
    elif keep == vb:
        candidates = [(va, vb)]
    else:
        raise ValueError(f"{keep} is not an endpoint of {edge}")

    for removed, kept in candidates:
        if not can_collapse_classification(mesh, removed, kept):
            continue
        if _try_collapse(mesh, removed, kept, min_quality, ancestry_tag):
            return True
    return False


def _try_collapse(
    mesh: Mesh, removed: Ent, kept: Ent, min_quality: float, ancestry_tag
) -> bool:
    dim = mesh.dim()
    cavity = mesh.adjacent(removed, dim)
    tag = mesh.tags.find(ancestry_tag) if ancestry_tag else None

    rebuilt = []
    kept_coords = mesh.coords(kept)
    for element in cavity:
        verts = mesh.verts_of(element)
        if kept in verts:
            continue  # degenerates away
        new_verts = [kept if v == removed else v for v in verts]
        # Geometric check: simulate by evaluating the measure with the kept
        # vertex's coordinates in place of the removed one.
        pts = [
            kept_coords if v == removed else mesh.coords(v) for v in verts
        ]
        if _simplex_measure(pts) <= min_quality:
            return False
        if mesh.find(dim, new_verts) is not None or not _closure_classifiable(
            mesh, new_verts, new_verts.index(kept)
        ):
            return False  # a duplicate element, or an unclassifiable one
        rebuilt.append(
            (
                mesh.etype(element),
                new_verts,
                mesh.classification(element),
                tag.get(element) if tag is not None else None,
            )
        )

    # Commit: build replacements first, then drop the whole old cavity.
    created = []
    for etype, verts, eclass, ancestor in rebuilt:
        child = mesh.create(etype, verts, eclass)
        created.append(child)
        if tag is not None and ancestor is not None:
            tag.set(child, ancestor)
    mesh.classify_closure(dim, [child.idx for child in created])
    for element in cavity:
        mesh.destroy(element, cascade=True)
    return True


def _closure_classifiable(mesh: Mesh, verts: Sequence[Ent], at: int) -> bool:
    """Whether no new edge or face of the rebuilt simplex ``verts`` (each
    passes through ``verts[at]``) lands, by the closure rule, on a model
    entity below its own dimension."""
    gents = [mesh.classification(v) for v in verts]
    if mesh.model is None or None in gents:
        return True  # classify_closure leaves such entities unset
    others = [i for i in range(len(verts)) if i != at]
    return not any(
        mesh.find(d, [verts[at], *(verts[i] for i in rest)]) is None
        and mesh.model.cover(tuple(sorted(
            {gents[at], *(gents[i] for i in rest)}
        ))).dim < d
        for d in range(1, len(verts) - 1) for rest in combinations(others, d)
    )


def _simplex_measure(pts: List[np.ndarray]) -> float:
    if len(pts) == 3:
        a, b, c = pts
        return 0.5 * (
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
    if len(pts) == 4:
        a, b, c, d = pts
        return float(np.linalg.det(np.stack([b - a, c - a, d - a]))) / 6.0
    raise ValueError("collapse supports simplex meshes (tri/tet)")


def coarsen_pass(
    mesh: Mesh,
    size,
    ratio: float = 0.5,
    ancestry_tag: Optional[str] = None,
    max_collapses: Optional[int] = None,
) -> int:
    """Collapse edges shorter than ``ratio`` times their prescribed size.

    Shortest-relative-to-target first; returns collapses performed.
    """
    from ..field.sizefield import edge_size_ratio

    under = []
    for edge in mesh.entities(1):
        r = edge_size_ratio(mesh, size, edge)
        if r < ratio:
            under.append((r, edge))
    under.sort(key=lambda item: (item[0], item[1]))

    collapses = 0
    for _r, edge in under:
        if max_collapses is not None and collapses >= max_collapses:
            break
        if not mesh.has(edge):
            continue
        if edge_size_ratio(mesh, size, edge) >= ratio:
            continue
        if collapse_edge(mesh, edge, ancestry_tag=ancestry_tag):
            collapses += 1
    return collapses
