"""2D edge swapping for element quality improvement.

The classic local reconnection: an interior edge shared by triangles
``(a, b, c)`` and ``(b, a, d)`` is replaced by the opposite diagonal,
producing ``(a, d, c)`` and ``(d, b, c)``, when that raises the minimum
quality of the pair.  Swaps only apply to edges classified on the model
interior (boundary edges trace the geometry and must stay).
"""

from __future__ import annotations

from typing import Optional

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..mesh.quality import mean_ratio_tri
from ..mesh.topology import TRI


def swap_edge(mesh: Mesh, edge: Ent, min_gain: float = 1e-9) -> bool:
    """Swap one interior 2D edge if it improves minimum quality."""
    if mesh.dim() != 2:
        raise ValueError("edge swapping is implemented for 2D meshes")
    if edge.dim != 1 or not mesh.has(edge):
        raise ValueError(f"{edge} is not a live edge")
    faces = mesh.up(edge)
    if len(faces) != 2:
        return False  # boundary edge
    gclass = mesh.classification(edge)
    if gclass is not None and gclass.dim < 2:
        return False  # geometry edge, not swappable

    a, b = mesh.verts_of(edge)
    opposite = []
    for face in faces:
        if mesh.etype(face) != TRI:
            return False
        others = [v for v in mesh.verts_of(face) if v not in (a, b)]
        opposite.append(others[0])
    c, d = opposite
    if c == d or mesh.find(1, [c, d]) is not None:
        return False  # diagonal already exists elsewhere

    pa, pb = mesh.coords(a), mesh.coords(b)
    pc, pd = mesh.coords(c), mesh.coords(d)
    before = min(mean_ratio_tri(pa, pb, pc), mean_ratio_tri(pb, pa, pd))
    # Candidate pair (keep counter-clockwise orientation).
    q1 = mean_ratio_tri(pa, pd, pc)
    q2 = mean_ratio_tri(pd, pb, pc)
    after = min(q1, q2)
    if after <= before + min_gain or after <= 0:
        return False

    classifications = [mesh.classification(f) for f in faces]
    tri1 = mesh.create(TRI, [a, d, c], classifications[0])
    tri2 = mesh.create(TRI, [d, b, c], classifications[1])
    mesh.classify_closure(2, [tri1.idx, tri2.idx])
    for face in faces:
        mesh.destroy(face, cascade=True)
    assert mesh.has(tri1) and mesh.has(tri2)
    return True


def swap_pass(mesh: Mesh, max_swaps: Optional[int] = None) -> int:
    """Attempt to swap every interior edge once; returns swaps performed."""
    swaps = 0
    for edge in list(mesh.entities(1)):
        if max_swaps is not None and swaps >= max_swaps:
            break
        if not mesh.has(edge):
            continue
        if swap_edge(mesh, edge):
            swaps += 1
    return swaps
