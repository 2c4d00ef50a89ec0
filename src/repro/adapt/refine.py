"""Edge-split refinement.

The primitive mesh modification operation behind isotropic refinement: an
edge is split at its (geometry-snapped) midpoint and every element adjacent
to the edge is replaced by two elements using the split templates

* triangle ``(a, b, c)`` with edge ``ab`` → ``(a, m, c)`` + ``(m, b, c)``,
* tetrahedron ``(a, b, c, d)`` with edge ``ab`` → ``(a, m, c, d)`` +
  ``(m, b, c, d)``,

which keep the mesh conforming (every neighbor of the edge is refined in the
same pass over the same midpoint).  The new vertex is classified on the
split edge's geometric classification and snapped to its shape, following
the curved-domain adaptation rule the paper cites.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..gmodel.snap import snap_to_entity
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh


def split_edge(
    mesh: Mesh,
    edge: Ent,
    point: Optional[Sequence[float]] = None,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
) -> Ent:
    """Split ``edge``; returns the new mid vertex.

    ``point`` overrides the midpoint.  With ``snap`` and a classified mesh,
    the new vertex is projected onto the edge's model entity.  When
    ``ancestry_tag`` names a tag, each child element inherits the parent
    element's tag value (used for the post-adaptation imbalance studies).
    """
    if edge.dim != 1:
        raise ValueError(f"split_edge needs an edge, got {edge}")
    if not mesh.has(edge):
        raise KeyError(f"{edge} is not a live entity")
    a, b = mesh.verts_of(edge)
    dim = mesh.dim()
    elements = mesh.adjacent(edge, dim)
    if not elements:
        raise ValueError(f"{edge} bounds no elements")

    old = []
    tag = mesh.tags.find(ancestry_tag) if ancestry_tag else None
    for element in elements:
        old.append(
            (
                mesh.etype(element),
                mesh.verts_of(element),
                mesh.classification(element),
                tag.get(element) if tag is not None else None,
            )
        )

    gclass = mesh.classification(edge)
    location = (
        np.asarray(point, dtype=float)
        if point is not None
        else 0.5 * (mesh.coords(a) + mesh.coords(b))
    )
    if snap and gclass is not None and mesh.model is not None:
        location = snap_to_entity(mesh.model, gclass, location)
    mid = mesh.create_vertex(location, gclass)

    # Create children first so shared boundary entities stay referenced,
    # then destroy the parents (cascade removes the split edge itself).
    created: List[Ent] = []
    for etype, verts, eclass, ancestor in old:
        for replaced in (a, b):
            child_verts = [mid if v == replaced else v for v in verts]
            child = mesh.create(etype, child_verts, eclass)
            created.append(child)
            if tag is not None and ancestor is not None:
                tag.set(child, ancestor)
    mesh.classify_closure(dim, [child.idx for child in created])
    for element in elements:
        mesh.destroy(element, cascade=True)
    return mid


def refine_pass(
    mesh: Mesh,
    size,
    ratio: float = 1.5,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
    max_splits: Optional[int] = None,
) -> int:
    """Split every edge longer than ``ratio`` times its prescribed size.

    Edges are processed longest-relative-to-target first, re-checking each
    edge's existence (earlier splits may have consumed it).  Returns the
    number of splits performed.
    """
    from ..field.sizefield import edge_size_ratio

    over = []
    for edge in mesh.entities(1):
        r = edge_size_ratio(mesh, size, edge)
        if r > ratio:
            over.append((r, edge))
    over.sort(key=lambda item: (-item[0], item[1]))

    splits = 0
    for _r, edge in over:
        if max_splits is not None and splits >= max_splits:
            break
        if not mesh.has(edge):
            continue
        # The edge may have shrunk relative to target since scheduling.
        if edge_size_ratio(mesh, size, edge) <= ratio:
            continue
        split_edge(mesh, edge, snap=snap, ancestry_tag=ancestry_tag)
        splits += 1
    return splits
