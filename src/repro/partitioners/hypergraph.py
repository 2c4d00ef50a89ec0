"""Multilevel hypergraph partitioner — the Zoltan PHG substitute (test T0).

"Hypergraph-based methods can further optimize the partition boundaries at
the cost of increased run-time over the graph-based methods" (paper, Section
III).  This implementation follows that structure:

1. a multilevel recursive bisection of the element dual graph produces the
   initial k-way partition (the graph phase), then
2. a greedy **connectivity refinement** pass walks the boundary elements and
   moves any whose reassignment lowers the hypergraph (λ-1) connectivity
   metric without violating element balance — the hyperedge-aware phase PHG
   adds over pure graph methods, and the reason it is slower.

The result matches the paper's baseline signature: tight element (region)
balance, optimized boundaries, but no control whatsoever over vertex/edge
balance — the spikes ParMA then removes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.mesh import Mesh
from .bisection import recursive_bisection
from .graph import (
    ElementGraph,
    ElementHypergraph,
    dual_graph,
    element_hypergraph,
)

#: λ-1 refinement passes after the recursive bisection.
REFINE_PASSES = 2


def refine_connectivity(
    mesh: Mesh,
    assignment: np.ndarray,
    eps: float = 0.05,
    passes: int = 2,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Greedy λ-1 refinement; returns (assignment, moves made)."""
    return _refine(
        dual_graph(mesh), element_hypergraph(mesh, weights), assignment,
        eps, passes,
    )


def _refine(
    graph: ElementGraph,
    hg: ElementHypergraph,
    assignment: np.ndarray,
    eps: float,
    passes: int,
) -> Tuple[np.ndarray, int]:
    """:func:`refine_connectivity` on an already-built dual graph/hypergraph.

    Each pass visits, in index order, the elements on a part boundary: those
    with a dual-graph neighbour on another part when the pass starts, plus
    the neighbours of every element the pass moves.  An element moves
    to the neighbouring part (lowest id on ties) that lowers the λ-1 metric
    most without overfilling it.  ``table[j][p]`` counts hyperedge ``j``'s
    pins on part ``p``, so a move's gain reads only the mover's hyperedges.
    """
    assignment = assignment.copy()
    nparts = int(assignment.max()) + 1

    # Per-element hyperedges (CSR slices, ascending) and the pin-count table.
    edge_of_pin = np.repeat(np.arange(hg.nedges), np.diff(hg.eptr))
    edges = edge_of_pin[np.argsort(hg.pins, kind="stable")].tolist()
    at = [0] + np.cumsum(np.bincount(hg.pins, minlength=hg.n)).tolist()
    table = np.zeros((hg.nedges, nparts), dtype=np.int32)
    np.add.at(table, (edge_of_pin, assignment[hg.pins]), 1)
    table = table.tolist()

    node_w = hg.weights.tolist()
    part_weight = np.bincount(
        assignment, weights=hg.weights.astype(float), minlength=nparts
    ).tolist()
    max_weight = float(hg.weights.sum() / nparts * (1.0 + eps))

    ptr = graph.xadj.tolist()
    adj = graph.adjncy.tolist()
    src = np.repeat(np.arange(graph.n), np.diff(graph.xadj))
    total_moves = 0
    for _pass in range(passes):
        part = assignment.tolist()
        todo = np.zeros(hg.n, dtype=bool)
        todo[src[assignment[src] != assignment[graph.adjncy]]] = True
        todo = todo.tolist()
        moves = 0
        for i in range(hg.n):
            if not todo[i]:
                continue
            frm = part[i]
            neighbor_parts = {part[j] for j in adj[ptr[i]: ptr[i + 1]]}
            neighbor_parts.discard(frm)
            if not neighbor_parts:
                continue
            rows = [table[j] for j in edges[at[i]: at[i + 1]]]
            lost = sum(row[frm] == 1 for row in rows)
            best_to = -1
            best_gain = 0
            for to in sorted(neighbor_parts):
                if part_weight[to] + node_w[i] > max_weight:
                    continue
                gain = lost - sum(row[to] == 0 for row in rows)
                if gain > best_gain:
                    best_gain = gain
                    best_to = to
            if best_to < 0:
                continue
            for row in rows:
                row[frm] -= 1
                row[best_to] += 1
            part_weight[frm] -= node_w[i]
            part_weight[best_to] += node_w[i]
            part[i] = best_to
            moves += 1
            for j in adj[ptr[i]: ptr[i + 1]]:
                todo[j] = True  # only the later ones are still to visit
        assignment = np.array(part, dtype=np.int64)
        total_moves += moves
        if moves == 0:
            break
    return assignment, total_moves


def phg(
    mesh: Mesh,
    nparts: int,
    eps: float = 0.05,
    seed: int = 0,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Partition a mesh's elements with the PHG-style pipeline."""
    graph = dual_graph(mesh, weights)
    assignment = recursive_bisection(
        graph.xadj, graph.adjncy, graph.weights.astype(float), nparts,
        eps=eps, seed=seed,
    )
    if nparts > 1:
        hg = element_hypergraph(mesh, weights)
        assignment, _moves = _refine(graph, hg, assignment, eps, REFINE_PASSES)
    return assignment
