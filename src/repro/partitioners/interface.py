"""Zoltan-like partitioning facade and partition quality metrics.

One entry point, :func:`partition`, selecting by method name — the way
applications call Zoltan — plus :func:`entity_counts_from_assignment`, which
evaluates the per-part entity counts (the paper's balance metrics, with
part-boundary entities counted on every holding part) directly from an
assignment without building the distributed mesh, so baseline partitions can
be scored cheaply.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mesh.mesh import Mesh
from .bisection import recursive_bisection
from .graph import dual_graph
from .hypergraph import phg
from .rcb import rcb
from .rib import rib


def _graph_method(mesh, nparts, eps, seed, weights):
    graph = dual_graph(mesh, weights)
    return recursive_bisection(
        graph.xadj, graph.adjncy, graph.weights.astype(float), nparts,
        eps=eps, seed=seed,
    )


def partition(
    mesh: Mesh,
    nparts: int,
    method: str = "hypergraph",
    eps: float = 0.05,
    seed: int = 0,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Partition a mesh's elements; returns a part id per element (id order).

    Methods: ``hypergraph`` (PHG substitute — multilevel + connectivity
    refinement), ``graph`` (multilevel recursive bisection), ``rcb`` and
    ``rib`` (geometric).
    """
    if nparts < 1:
        raise ValueError(f"need at least one part, got {nparts}")
    if method == "hypergraph":
        return phg(mesh, nparts, eps=eps, seed=seed, weights=weights)
    if method == "graph":
        return _graph_method(mesh, nparts, eps, seed, weights)
    if method == "rcb":
        return rcb(mesh, nparts, weights)
    if method == "rib":
        return rib(mesh, nparts, weights)
    raise ValueError(
        f"unknown method {method!r}; pick hypergraph, graph, rcb or rib"
    )


def entity_counts_from_assignment(
    mesh: Mesh, assignment: np.ndarray, nparts: Optional[int] = None
) -> np.ndarray:
    """Per-part entity counts ``(nparts, 4)`` implied by an assignment.

    An entity of dimension d < D is counted on every part holding an
    adjacent element (it would be duplicated there after distribution);
    elements are counted on their assigned part.  Matches
    ``DistributedMesh.entity_counts()`` after ``distribute``.
    """
    dim = mesh.dim()
    core = mesh.core
    ids = core.live_ids(dim).astype(np.int64)
    parts = np.asarray(assignment, dtype=np.int64)
    if parts.shape != (len(ids),):
        raise ValueError("assignment must have one entry per element")
    if nparts is None:
        nparts = int(parts.max()) + 1 if len(parts) else 1

    counts = np.zeros((nparts, 4), dtype=np.int64)
    counts[:, dim] = np.bincount(parts, minlength=nparts)
    # Walk the closure one dimension down at a time: the distinct
    # (entity, part) pairs of dimension d are those of d + 1's downward rows.
    for d in range(dim - 1, -1, -1):
        parts = np.repeat(parts, core.ndown[d + 1][ids])
        ids = core.gather_down(d + 1, ids).astype(np.int64)
        pairs = np.unique(ids * nparts + parts)
        ids, parts = pairs // nparts, pairs % nparts
        counts[:, d] = np.bincount(parts, minlength=nparts)
    return counts


def imbalance(counts: np.ndarray, base_mean: Optional[np.ndarray] = None):
    """Peak imbalance per entity dimension: ``max / mean - 1`` (fractions).

    ``base_mean`` optionally fixes the means (the paper computes all
    imbalance ratios against the T0 partition's means so tests are
    comparable).
    """
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean(axis=0) if base_mean is None else np.asarray(base_mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(mean > 0, counts.max(axis=0) / mean - 1.0, 0.0)
    return result
