"""Element geometric measures and quality metrics.

Mesh adaptation and verification need signed measures (area/volume) to detect
inversion, and scale-invariant shape-quality metrics to reject slivers.  The
quality metric used is the *mean ratio* family: 1 for the equilateral
simplex, → 0 as the element degenerates, negative when inverted.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .entity import Ent
from .mesh import Mesh
from .topology import QUAD, TET, TRI


def tri_area(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed area of triangle abc (positive when counter-clockwise in xy);
    broadcasts over leading axes."""
    u, v = b - a, c - a
    return 0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def tet_volume(a, b, c, d) -> np.ndarray:
    """Signed volume of tet abcd (positive when right-handed), any leading axes."""
    return np.linalg.det(np.stack([b - a, c - a, d - a], axis=-2)) / 6.0


def measure(mesh: Mesh, ent: Ent) -> float:
    """Signed size of an element: length, area, or volume."""
    pts = [mesh.coords(v) for v in mesh.verts_of(ent)]
    if ent.dim == 1:
        return float(np.linalg.norm(pts[1] - pts[0]))
    etype = mesh.etype(ent)
    if etype == TRI:
        return tri_area(*pts)
    if etype == QUAD:
        return tri_area(pts[0], pts[1], pts[2]) + tri_area(pts[0], pts[2], pts[3])
    if etype == TET:
        return tet_volume(*pts)
    # General polyhedra: fan decomposition from the centroid over faces.
    centroid = np.mean(pts, axis=0)
    total = 0.0
    for face in mesh.down(ent):
        fpts = [mesh.coords(v) for v in mesh.verts_of(face)]
        for i in range(1, len(fpts) - 1):
            total += abs(tet_volume(centroid, fpts[0], fpts[i], fpts[i + 1]))
    return total


def mean_ratio_tri(a, b, c) -> float:
    """Mean-ratio quality of a triangle: 1 equilateral, <=0 degenerate."""
    area = tri_area(a, b, c)
    lengths2 = (
        float((b - a) @ (b - a))
        + float((c - b) @ (c - b))
        + float((a - c) @ (a - c))
    )
    if lengths2 == 0.0:
        return 0.0
    return 4.0 * math.sqrt(3.0) * area / lengths2


def mean_ratio_tet(a, b, c, d) -> float:
    """Mean-ratio quality of a tet: 1 equilateral, <=0 degenerate/inverted."""
    volume = tet_volume(a, b, c, d)
    edges = [b - a, c - a, d - a, c - b, d - b, d - c]
    lengths2 = sum(float(e @ e) for e in edges)
    if lengths2 == 0.0:
        return 0.0
    # Normalized so the regular tet scores exactly 1.
    return 12.0 * (3.0 * abs(volume)) ** (2.0 / 3.0) / lengths2 * math.copysign(
        1.0, volume
    )


def quality(mesh: Mesh, ent: Ent) -> float:
    """Shape quality of an element (mean ratio for simplices)."""
    pts = [mesh.coords(v) for v in mesh.verts_of(ent)]
    etype = mesh.etype(ent)
    if etype == TRI:
        return mean_ratio_tri(*pts)
    if etype == TET:
        return mean_ratio_tet(*pts)
    raise ValueError(f"no quality metric for {mesh.type_name(ent)} elements")


def worst_quality(mesh: Mesh) -> float:
    """Minimum element quality over the mesh (1.0 for an empty mesh)."""
    dim = mesh.dim()
    worst = 1.0
    for ent in mesh.entities(dim):
        worst = min(worst, quality(mesh, ent))
    return worst


def quality_histogram(mesh: Mesh, bins: int = 10) -> List[int]:
    """Histogram of element qualities over [0, 1] (out-of-range clamps)."""
    counts = [0] * bins
    dim = mesh.dim()
    for ent in mesh.entities(dim):
        q = min(max(quality(mesh, ent), 0.0), 1.0)
        counts[min(int(q * bins), bins - 1)] += 1
    return counts
