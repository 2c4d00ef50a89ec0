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
from typing import Iterator, Optional, Sequence

import numpy as np

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..mesh.quality import tet_volume, tri_area
from .refine import split_order


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
        if len(pts) not in (3, 4):
            raise ValueError("collapse supports simplex meshes (tri/tet)")
        if (tri_area if len(pts) == 3 else tet_volume)(*pts) <= min_quality:
            return False
        rebuilt.append(
            (
                mesh.etype(element),
                new_verts,
                mesh.classification(element),
                tag.get(element) if tag is not None else None,
            )
        )
    # A duplicate element or an unclassifiable one rejects the collapse;
    # one walk per dimension covers the whole cavity.
    rows = [[v.idx for v in verts] for _etype, verts, _c, _a in rebuilt]
    if rows and (
        (mesh.core.find_rows(dim, rows) >= 0).any()
        or not _closure_classifiable(mesh, rows, kept.idx)
    ):
        return False

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


def _closure_classifiable(
    mesh: Mesh, rows: Sequence[Sequence[int]], kept: int
) -> bool:
    """Whether no new edge or face of the rebuilt simplices ``rows``
    (vertex ids) through vertex ``kept`` lands, by the closure rule, on a
    model entity below its own dimension.  Simplices with an unclassified
    vertex are skipped: classify_closure leaves such entities unset."""
    if mesh.model is None:
        return True
    gents = {v: mesh.classification(Ent(0, v)) for row in rows for v in row}
    subs = {}
    for row in rows:
        if None in (gents[v] for v in row):
            continue
        others = [v for v in row if v != kept]
        for d in range(1, len(row) - 1):
            subs.setdefault(d, []).extend(
                (kept, *rest) for rest in combinations(others, d)
            )
    return not any(
        idx < 0 and mesh.model.cover(
            tuple(sorted({gents[v] for v in sub}))
        ).dim < d
        for d, block in subs.items()
        for sub, idx in zip(block, mesh.core.find_rows(d, block).tolist())
    )


def collapse_order(mesh: Mesh, size, ratio: float) -> Iterator[Ent]:
    """The edges shorter than ``ratio`` times their prescribed size, by the
    handle-free key ``(ratio, midpoint x, y, z)``: the split key of
    :func:`~repro.adapt.refine.split_order` on the negated ratios.  Each
    is found by its end vertices when the iteration reaches it (a collapse
    frees edge slots that later ones reuse); edges gone by then are skipped.
    """
    from ..field.sizefield import edge_size_ratios

    edges = mesh.entity_ids(1).astype(np.int64)
    ratios = edge_size_ratios(mesh, size, edges)
    under = ratios < ratio
    order = split_order(mesh, edges[under], -ratios[under])
    core = mesh.core
    for a, b in core.verts[1][edges[under][order], :2].tolist():
        if core.is_alive(0, a) and core.is_alive(0, b):
            idx = int(core.find_rows(1, [[a, b]])[0])
            if idx >= 0:
                yield Ent(1, idx)


def coarsen_pass(
    mesh: Mesh,
    size,
    ratio: float = 0.5,
    ancestry_tag: Optional[str] = None,
    max_collapses: Optional[int] = None,
) -> int:
    """Collapse edges shorter than ``ratio`` times their prescribed size.

    Shortest-relative-to-target first (:func:`collapse_order`); returns
    collapses performed.
    """
    from ..field.sizefield import edge_size_ratio

    collapses = 0
    for edge in collapse_order(mesh, size, ratio):
        if max_collapses is not None and collapses >= max_collapses:
            break
        if edge_size_ratio(mesh, size, edge) >= ratio:
            continue
        if collapse_edge(mesh, edge, ancestry_tag=ancestry_tag):
            collapses += 1
    return collapses
