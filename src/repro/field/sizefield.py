"""Isotropic size fields driving mesh adaptation.

A size field prescribes the desired local edge length h(x) over the domain.
Adaptation refines edges longer than their prescribed size and coarsens
edges much shorter than it.  The fields here model the paper's adaptation
scenarios:

* :class:`UniformSize` — uniform target resolution,
* :class:`ShockPlaneSize` — fine resolution in a band around a planar shock
  front (the ONERA M6 scenario of Fig. 13, where the size field comes from
  the hessian of the mach number around the shock),
* :class:`SphereSize` — fine resolution near a moving point (the particle
  tracking scenario of Fig. 8),
* :class:`AnalyticSize` — any callable h(x).

Every field evaluates a block of points at once (:meth:`SizeField.values`);
the one-point :meth:`SizeField.value` is its one-row call.  Also here:
:func:`edge_size_ratios` (how far each edge of a block is from its target;
:func:`edge_size_ratio` is its one-edge call) and
:func:`current_vertex_sizes` (the mesh's existing resolution, the starting
point for predictive load-balance estimates).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh


class SizeField:
    """Base class: subclasses implement ``values(X) -> (n,) sizes``."""

    def values(self, X: np.ndarray) -> np.ndarray:
        """Prescribed sizes at the points ``X`` (one row each)."""
        raise NotImplementedError

    def value(self, x: Sequence[float]) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None, :])[0])

    def at_vertex(self, mesh: Mesh, v: Ent) -> float:
        return self.value(mesh.coords(v))

    def edge_targets(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Prescribed sizes of the segments ``A[k]``–``B[k]``.

        The minimum of the sizes at both endpoints and the midpoint —
        sampling the midpoint keeps refinement from aliasing past bands
        narrower than the current edge length (a shock thinner than h).
        """
        return np.minimum(
            np.minimum(self.values(A), self.values(B)),
            self.values(0.5 * (A + B)),
        )

    def edge_target(self, mesh: Mesh, edge: Ent) -> float:
        """Prescribed size for one edge (see :meth:`edge_targets`)."""
        a, b = mesh.verts_of(edge)
        return float(
            self.edge_targets(mesh.coords(a)[None], mesh.coords(b)[None])[0]
        )


class UniformSize(SizeField):
    """Constant target size everywhere."""

    def __init__(self, h: float) -> None:
        if h <= 0:
            raise ValueError(f"size must be positive, got {h}")
        self.h = float(h)

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.h)


class AnalyticSize(SizeField):
    """Target size from an arbitrary callable ``h(x)``."""

    def __init__(self, fn: Callable[[np.ndarray], float]) -> None:
        self.fn = fn

    def values(self, X: np.ndarray) -> np.ndarray:
        h = np.asarray(
            [float(self.fn(x)) for x in np.asarray(X, dtype=float)], dtype=float
        )
        if (h <= 0).any():
            raise ValueError(
                f"size field returned non-positive size {h[h <= 0][0]}"
            )
        return h


class ShockPlaneSize(SizeField):
    """Fine size in a Gaussian band around the plane ``normal . x = offset``.

    ``h(x) = h_fine + (h_coarse - h_fine) * (1 - exp(-(d/width)^2))`` where
    ``d`` is the distance to the plane — the analytic stand-in for a
    hessian-of-mach-number size field around a shock front.
    """

    def __init__(
        self,
        normal: Sequence[float],
        offset: float,
        h_fine: float,
        h_coarse: float,
        width: float,
    ) -> None:
        self.normal = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(self.normal)
        if norm == 0:
            raise ValueError("plane normal must be nonzero")
        self.normal = self.normal / norm
        self.offset = float(offset) / norm
        if not 0 < h_fine <= h_coarse:
            raise ValueError("need 0 < h_fine <= h_coarse")
        if width <= 0:
            raise ValueError("band width must be positive")
        self.h_fine = float(h_fine)
        self.h_coarse = float(h_coarse)
        self.width = float(width)

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = min(len(self.normal), X.shape[1])
        d = X[:, :n] @ self.normal[:n] - self.offset
        blend = 1.0 - np.exp(-((d / self.width) ** 2))
        return self.h_fine + (self.h_coarse - self.h_fine) * blend


class SphereSize(SizeField):
    """Fine size inside a sphere around ``center`` (a tracked particle)."""

    def __init__(
        self,
        center: Sequence[float],
        radius: float,
        h_fine: float,
        h_coarse: float,
    ) -> None:
        self.center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not 0 < h_fine <= h_coarse:
            raise ValueError("need 0 < h_fine <= h_coarse")
        self.radius = float(radius)
        self.h_fine = float(h_fine)
        self.h_coarse = float(h_coarse)

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = min(len(self.center), X.shape[1])
        d = np.linalg.norm(X[:, :n] - self.center[:n], axis=1)
        # Fine inside the sphere, smooth growth back to coarse over one
        # radius outside it.
        t = np.clip((d - self.radius) / self.radius, 0.0, 1.0)
        return self.h_fine + (self.h_coarse - self.h_fine) * t

    def moved_to(self, center: Sequence[float]) -> "SphereSize":
        """The same field around a new particle position."""
        return SphereSize(center, self.radius, self.h_fine, self.h_coarse)


class MinSize(SizeField):
    """Pointwise minimum of several size fields (overlapping features)."""

    def __init__(self, fields: Sequence[SizeField]) -> None:
        if not fields:
            raise ValueError("need at least one size field")
        self.fields = list(fields)

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.minimum.reduce([f.values(X) for f in self.fields])


def edge_size_ratios(mesh: Mesh, size: SizeField, ids) -> np.ndarray:
    """Current length of each edge ``ids`` divided by its prescribed size.

    > 1 means too long (refine); << 1 means too short (coarsen candidate).
    One evaluation of the size field per block.
    """
    ends = mesh.core.verts[1][np.asarray(ids, dtype=np.int64), :2]
    coords = mesh.coords_view()
    A, B = coords[ends[:, 0]], coords[ends[:, 1]]
    d = A - B
    length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    return length / size.edge_targets(A, B)


def edge_size_ratio(mesh: Mesh, size: SizeField, edge: Ent) -> float:
    """The ratio of one live edge (see :func:`edge_size_ratios`)."""
    if edge.dim != 1 or not mesh.has(edge):
        raise KeyError(f"{edge} is not a live edge")
    return float(edge_size_ratios(mesh, size, [edge.idx])[0])


def current_vertex_sizes(mesh: Mesh) -> Dict[Ent, float]:
    """Existing resolution at each vertex: mean adjacent edge length."""
    sizes: Dict[Ent, float] = {}
    for v in mesh.entities(0):
        edges = mesh.up(v)
        if not edges:
            sizes[v] = 0.0
            continue
        total = 0.0
        for e in edges:
            a, b = mesh.verts_of(e)
            total += float(np.linalg.norm(mesh.coords(a) - mesh.coords(b)))
        sizes[v] = total / len(edges)
    return sizes
