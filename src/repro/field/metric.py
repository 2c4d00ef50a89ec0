"""Anisotropic metric fields for directional mesh adaptation.

The paper's adaptation lineage is anisotropic (it cites Alauzet, Li, Seol &
Shephard, "Parallel anisotropic 3D mesh adaptation by mesh modification"):
the target is not a scalar size h(x) but a symmetric positive-definite
metric M(x) whose unit balls prescribe different edge lengths in different
directions — boundary layers and shocks want fine resolution across the
feature and coarse along it.

:class:`MetricField` plugs into the existing isotropic machinery through a
small trick: the adaptation driver refines edges with
``length / edge_target > ratio``, and an edge's length *in the metric* is
``sqrt(e^T M e)``; setting ``edge_targets = physical_length / metric_length``
makes the existing ratio exactly the metric length, so refinement and
coarsening become metric-driven with no driver changes.

Provided metrics: :class:`AnalyticMetric` (any callable M(x)) and
:func:`boundary_layer_metric` (fine across a wall, coarse along it — the
canonical anisotropic use case).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..mesh.mesh import Mesh
from .sizefield import SizeField


class MetricField(SizeField):
    """Base: subclasses provide ``matrix(x) -> (d, d) SPD array``."""

    def matrix(self, x: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def metric_length(self, a: np.ndarray, b: np.ndarray) -> float:
        """Length of segment ab in the metric (3-point Simpson sampling).

        Sampling both endpoints as well as the midpoint keeps steep metric
        gradients (a boundary layer thinner than the edge) from being
        aliased away, the same reason the isotropic
        :meth:`SizeField.edge_targets` samples the midpoint.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        mid = 0.5 * (a + b)
        lengths = []
        for point, weight in ((a, 1.0), (mid, 4.0), (b, 1.0)):
            m = self.matrix(point)
            d = m.shape[0]
            e = (b - a)[:d]
            value = float(e @ m @ e)
            if value < 0:
                raise ValueError("metric is not positive semi-definite")
            lengths.append(weight * np.sqrt(value))
        return sum(lengths) / 6.0

    # -- SizeField protocol ---------------------------------------------

    def values(self, X: np.ndarray) -> np.ndarray:
        """Isotropic fallback: the size along the metric's stiffest axis."""
        eigmax = np.asarray(
            [float(np.linalg.eigvalsh(self.matrix(x))[-1]) for x in X]
        )
        if (eigmax <= 0).any():
            raise ValueError("metric has no positive eigenvalue")
        return 1.0 / np.sqrt(eigmax)

    def edge_targets(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Targets making ``length / target`` equal the metric length."""
        targets = np.empty(len(A))
        for k, (pa, pb) in enumerate(zip(A, B)):
            length = float(np.linalg.norm(pb - pa))
            metric = self.metric_length(pa, pb)
            # Zero metric length: never refine.
            targets[k] = length / metric if metric > 1e-300 else float("inf")
        return targets


class AnalyticMetric(MetricField):
    """Metric from an arbitrary callable ``M(x)``."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        self.fn = fn

    def matrix(self, x: Sequence[float]) -> np.ndarray:
        m = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be square, got shape {m.shape}")
        return m


class UniformMetric(MetricField):
    """Isotropic metric requesting size ``h`` everywhere (sanity anchor)."""

    def __init__(self, h: float, dim: int = 2) -> None:
        if h <= 0:
            raise ValueError("size must be positive")
        self.h = float(h)
        self.dim = dim

    def matrix(self, x: Sequence[float]) -> np.ndarray:
        return np.eye(self.dim) / self.h ** 2


def boundary_layer_metric(
    wall_normal: Sequence[float],
    wall_offset: float,
    h_normal: float,
    h_tangent: float,
    growth: float = 3.0,
    dim: int = 2,
) -> AnalyticMetric:
    """Boundary-layer metric: ``h_normal`` across the wall, ``h_tangent``
    along it, with the normal size relaxing exponentially away from the wall
    (distance scale ``growth * h_tangent``).
    """
    n = np.asarray(wall_normal, dtype=float)[:dim]
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("wall normal must be nonzero")
    n = n / norm
    if not 0 < h_normal <= h_tangent:
        raise ValueError("need 0 < h_normal <= h_tangent")
    scale = growth * h_tangent

    def matrix(x: np.ndarray) -> np.ndarray:
        d = abs(float(n @ x[:dim]) - wall_offset)
        blend = 1.0 - np.exp(-d / scale)
        h_n = h_normal + (h_tangent - h_normal) * blend
        # M = n n^T / h_n^2 + (I - n n^T) / h_t^2.
        nnt = np.outer(n, n)
        return nnt / h_n ** 2 + (np.eye(dim) - nnt) / h_tangent ** 2

    return AnalyticMetric(matrix)


def mean_metric_edge_length(mesh: Mesh, metric: MetricField) -> float:
    """Average metric length over all edges (1.0 = perfectly conforming)."""
    total = 0.0
    count = 0
    for edge in mesh.entities(1):
        a, b = mesh.verts_of(edge)
        total += metric.metric_length(mesh.coords(a), mesh.coords(b))
        count += 1
    return total / count if count else 0.0
