"""Two-level, architecture-aware mesh partitioning (paper Section II-D).

"The partitioned mesh representation of PUMI is under improvement towards a
hybrid mesh partitioning algorithm which involves first partitioning a mesh
into nodes and subsequently to the cores on the nodes.  Part handles
assigned to threads on the same node shared memory should result in faster
communications and reduced memory usage."

:func:`two_level_partition` implements exactly that: a global partition to
``nodes`` pieces, then an independent partition of each node's piece to its
``cores_per_node`` cores, with the final part id ``node * cores + core`` —
the block mapping the machine topology assumes.  The payoff is *locality by
construction*: every intra-node interface created by the second phase is an
on-node part boundary (implicit, shared memory), so the fraction of shared
entity copies that must live in distributed memory is bounded by the
first-phase cut, no matter how many cores each node has.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..mesh.mesh import Mesh
from ..parallel.topology import MachineTopology
from .bisection import recursive_bisection
from .graph import dual_graph
from .interface import partition


def two_level_partition(
    mesh: Mesh,
    topology: MachineTopology,
    method: str = "hypergraph",
    eps: float = 0.05,
    seed: int = 0,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Partition elements to ``topology.total_cores`` parts, node-first.

    Phase 1 partitions globally to ``topology.nodes`` pieces with ``method``;
    phase 2 partitions each piece's induced dual graph to
    ``topology.cores_per_node`` parts.  Returns the flat assignment with
    part id ``node * cores_per_node + core`` (block mapping).
    """
    nodes = topology.nodes
    cores = topology.cores_per_node
    node_assignment = partition(
        mesh, nodes, method=method, eps=eps, seed=seed, weights=weights
    )
    if cores == 1:
        return node_assignment.copy()

    graph = dual_graph(mesh, weights)
    final = np.zeros(graph.n, dtype=np.int64)
    for node in range(nodes):
        ids = np.flatnonzero(node_assignment == node)
        if len(ids) == 0:
            continue
        sub_xadj, sub_adjncy, sub_ew = _induced(graph, ids)
        pieces = min(cores, len(ids))
        local = recursive_bisection(
            sub_xadj,
            sub_adjncy,
            graph.weights[ids].astype(float),
            pieces,
            eweights=sub_ew,
            eps=eps,
            seed=seed + 1 + node,
        )
        final[ids] = node * cores + local
    return final


def _induced(graph, ids):
    remap = -np.ones(graph.n, dtype=np.int64)
    remap[ids] = np.arange(len(ids))
    xadj = [0]
    adjncy = []
    for i in ids:
        for j in graph.neighbors(int(i)):
            k = remap[int(j)]
            if k >= 0:
                adjncy.append(int(k))
        xadj.append(len(adjncy))
    return (
        np.asarray(xadj, dtype=np.int64),
        np.asarray(adjncy, dtype=np.int64),
        np.ones(len(adjncy)),
    )


def boundary_locality(
    mesh: Mesh,
    assignment: np.ndarray,
    topology: MachineTopology,
) -> Dict[str, float]:
    """How architecture-friendly a partition's boundaries are.

    Classifies every shared entity *copy* (an entity counted once per
    holding part beyond the first) as on-node — all holders on one node,
    "implicit in shared memory" per the paper — or off-node.  Returns the
    copy counts and the on-node fraction, the quantity two-level
    partitioning maximizes.
    """
    dim = mesh.dim()
    elements = list(mesh.entities(dim))
    part_of = {e.idx: int(p) for e, p in zip(mesh.entities(dim), assignment)}

    on_node = 0
    off_node = 0
    for d in range(dim):
        for ent in mesh.entities(d):
            holders = {part_of[e.idx] for e in mesh.adjacent(ent, dim)}
            if len(holders) < 2:
                continue
            copies = len(holders) - 1
            holder_nodes = {topology.node_of(p) for p in holders}
            if len(holder_nodes) == 1:
                on_node += copies
            else:
                off_node += copies
    total = on_node + off_node
    return {
        "on_node_copies": float(on_node),
        "off_node_copies": float(off_node),
        "on_node_fraction": on_node / total if total else 1.0,
    }
