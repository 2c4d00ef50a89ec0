"""AAA-surrogate workload: a curved, bulged vessel tetrahedral mesh.

Table II's experiments run on a 133M-element tetrahedral mesh of an
abdominal aorta aneurysm (AAA) model.  No patient geometry or industrial
mesh generator is available offline, so this surrogate produces a mesh with
the same *partitioning-relevant* characteristics: an elongated, curved,
non-uniform 3D tet mesh whose cross-section bulges in the middle (the
aneurysm sac).  The construction maps a structured box tet mesh through a
smooth vessel transformation — centerline curvature, radius modulation, and
a mild jitter that breaks the structured symmetry so partition boundaries
behave like those of an unstructured mesh.

After the coordinate transformation the attached box b-rep remains the
topological classification (which PUMI-style bookkeeping needs); its shape
evaluators no longer describe the deformed geometry, so this workload is
used for partitioning studies, not adaptation with snapping.
"""

from __future__ import annotations

import numpy as np

from ..mesh.generate import box_tet
from ..mesh.mesh import Mesh


def aaa_mesh(
    n: int = 8,
    aspect: int = 4,
    length: float = 8.0,
    radius: float = 1.0,
    bulge: float = 1.2,
    curvature: float = 0.8,
    jitter: float = 0.15,
    seed: int = 0,
) -> Mesh:
    """Build the AAA-surrogate mesh: ``6 * aspect * n^3`` tetrahedra.

    Parameters mirror the anatomy: ``bulge`` scales the mid-vessel radius
    growth (the aneurysm), ``curvature`` bends the centerline, ``jitter``
    perturbs interior vertices by a fraction of the local spacing.
    """
    if n < 2:
        raise ValueError("need at least two cells across the vessel")
    mesh = box_tet(
        aspect * n, n, n,
        lo=(0.0, -0.5, -0.5),
        hi=(length, 0.5, 0.5),
    )
    rng = np.random.default_rng(seed)

    coords = mesh._coords
    h = 1.0 / n  # cross-section spacing before deformation
    for idx in mesh.core.live_ids(0).tolist():
        x, y, z = coords[idx]
        t = x / length
        # Aneurysm sac: radius grows smoothly in the middle of the vessel.
        r = radius * (1.0 + bulge * np.exp(-(((t - 0.5) / 0.15) ** 2)))
        # Centerline curvature: a gentle S-bend.
        cy = curvature * np.sin(2.0 * np.pi * t)
        cz = 0.5 * curvature * np.sin(np.pi * t)
        new = np.array([x, cy + 2.0 * r * y, cz + 2.0 * r * z])
        gdim = mesh.classification(_ent0(idx)).dim if mesh.model else 3
        if jitter > 0 and gdim == 3:  # keep the surface smooth
            new += rng.uniform(-jitter * h, jitter * h, size=3)
        coords[idx] = new
    return mesh


def _ent0(idx: int):
    from ..mesh.entity import Ent

    return Ent(0, idx)
