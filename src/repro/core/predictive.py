"""Predictive load balancing for mesh adaptation.

"Large imbalance spikes are also observed when predictively load balancing
for mesh adaptation based on the estimated target mesh resolution at each
mesh vertex" (paper, Section III-B).  Before adapting, each element's
post-adaptation load is estimated as ``(h_current / h_target)^d`` — the
number of target-size elements that will replace it — and the partition is
rebalanced under those weights, so that after adaptation the element counts
come out even (avoiding the Fig. 13 histogram).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..field.sizefield import SizeField
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..mesh.topology import type_info
from ..partition.dmesh import DistributedMesh
from ..partition.migration import migrate
from ..partitioners.rcb import rcb_points


def element_geometry(
    mesh: Mesh, dim: int, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sizes, centroids)`` of the dim-``dim`` entities ``ids``: each one's
    current resolution (mean edge length over its type's edge template) and
    the average of its vertex coordinates."""
    core = mesh.core
    ids = np.asarray(ids, dtype=np.int64)
    coords = mesh.coords_view()
    sizes = np.empty(len(ids))
    centroids = np.empty((len(ids), 3))
    etypes = core.etype[dim][ids]
    for etype in np.unique(etypes).tolist():
        info = type_info(etype)
        rows = np.flatnonzero(etypes == etype)
        verts = core.verts[dim][ids[rows], : info.nverts]
        ends = verts[:, np.asarray(info.edges, dtype=np.int64)]
        sizes[rows] = np.linalg.norm(
            coords[ends[:, :, 0]] - coords[ends[:, :, 1]], axis=2
        ).mean(axis=1)
        centroids[rows] = coords[verts].mean(axis=1)
    return sizes, centroids


def element_size(mesh: Mesh, element: Ent) -> float:
    """Current resolution of an element: mean edge length."""
    return float(element_geometry(mesh, element.dim, [element.idx])[0][0])


def element_weights(
    mesh: Mesh, ids: np.ndarray, size: SizeField, floor: float = 0.1
) -> np.ndarray:
    """Estimated number of post-adaptation elements replacing each element
    ``ids``: ``(h_now / h_target)^d``, at least ``floor``, with the target
    sampled at the centroid (one size-field evaluation per block)."""
    dim = mesh.dim()
    h_now, centroids = element_geometry(mesh, dim, ids)
    return np.maximum((h_now / size.values(centroids)) ** dim, floor)


def predicted_element_weight(
    mesh: Mesh, element: Ent, size: SizeField, floor: float = 0.1
) -> float:
    """Estimated number of post-adaptation elements replacing ``element``."""
    return float(element_weights(mesh, [element.idx], size, floor)[0])


def predicted_weights(mesh: Mesh, size: SizeField) -> np.ndarray:
    """Predicted weight of every element (id order)."""
    return element_weights(mesh, mesh.entity_ids(mesh.dim()), size)


def predictive_balance(
    dmesh: DistributedMesh,
    size: SizeField,
    assigner: Optional[Callable[[np.ndarray, int, np.ndarray], np.ndarray]] = None,
) -> int:
    """Rebalance the distributed mesh under predicted adaptation weights.

    Gathers every element's centroid and predicted weight (the simulation's
    stand-in for the parallel gather), computes a weighted geometric
    repartition (RCB by default, matching predictive balancing practice —
    geometric methods are the fast choice here), and migrates the diff.
    Returns the number of elements moved.
    """
    if assigner is None:
        def assigner(points, nparts, weights):
            return rcb_points(points, nparts, weights)

    dim = dmesh.element_dim()
    holders, points, weights = [], [], []
    for part in dmesh:
        mesh = part.mesh
        ids = np.setdiff1d(mesh.entity_ids(dim), part.ghost_ids(dim))
        holders.append(ids)
        points.append(element_geometry(mesh, dim, ids)[1])
        weights.append(element_weights(mesh, ids, size))

    assignment = assigner(
        np.concatenate(points), dmesh.nparts, np.concatenate(weights)
    )
    plan: Dict[int, Dict[Ent, int]] = {}
    start = 0
    for part, ids in zip(dmesh, holders):
        targets = np.asarray(assignment[start : start + len(ids)], dtype=np.int64)
        start += len(ids)
        moved = targets != part.pid
        if moved.any():
            plan[part.pid] = {
                Ent(dim, idx): target
                for idx, target in zip(ids[moved].tolist(), targets[moved].tolist())
            }
    return migrate(dmesh, plan).elements_moved
