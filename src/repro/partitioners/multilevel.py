"""Multilevel two-way graph bisection (the METIS/Chaco scheme).

Three phases: **coarsen** by heavy-edge matching until the graph is small,
**bisect** the coarsest graph by greedy graph growing from a pseudo-
peripheral seed, and **uncoarsen** by projecting the side assignment back up
the hierarchy with an FM refinement pass at each level.  Node and edge
weights are carried through contraction so balance and cut are measured on
the original graph's terms throughout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .fm import fm_refine

#: Graphs at most this many nodes are bisected directly, not coarsened.
COARSE_LIMIT = 120


def heavy_edge_matching(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    eweights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy heavy-edge matching; returns each node's mate (or itself).

    Nodes are visited in a random order; each unmatched node takes its
    heaviest unmatched neighbour (the first one on ties).  The walk runs
    over Python lists, so no numpy scalar is indexed per edge.
    """
    n = len(xadj) - 1
    mate = [-1] * n
    ptr = xadj.tolist()
    adj = adjncy.tolist()
    ew = eweights.tolist()
    for i in rng.permutation(n).tolist():
        if mate[i] != -1:
            continue
        best = -1
        best_w = -1.0
        for k in range(ptr[i], ptr[i + 1]):
            j = adj[k]
            if mate[j] == -1 and j != i and ew[k] > best_w:
                best = j
                best_w = ew[k]
        if best == -1:
            mate[i] = i
        else:
            mate[i] = best
            mate[best] = i
    return np.array(mate, dtype=np.int64)


def contract(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    weights: np.ndarray,
    eweights: np.ndarray,
    mate: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contract matched pairs; returns (xadj, adjncy, weights, eweights, cmap).

    ``mate`` is a matching (an involution, as :func:`heavy_edge_matching`
    returns).  Coarse node ids follow each pair's lower index, and each
    coarse row lists its neighbours ascending.
    """
    n = len(weights)
    nodes = np.arange(n, dtype=np.int64)
    leader = np.minimum(nodes, np.asarray(mate, dtype=np.int64))
    is_leader = leader == nodes
    cmap = (np.cumsum(is_leader) - 1)[leader]
    nc = int(is_leader.sum())

    cweights = np.zeros(nc, dtype=weights.dtype)
    np.add.at(cweights, cmap, weights)

    src = cmap[np.repeat(nodes, np.diff(xadj))]
    dst = cmap[adjncy]
    keep = src != dst
    keys, slot = np.unique(src[keep] * nc + dst[keep], return_inverse=True)
    # add.at sums each coarse edge's fine weights from 0.0 in CSR order, so
    # the result does not depend on the sort; the partitioners' edge weights
    # are integer-valued (sums of ones), so the sums are exact as well.
    ceweights = np.zeros(len(keys))
    np.add.at(ceweights, slot, np.asarray(eweights, dtype=float)[keep])
    cxadj = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // nc, minlength=nc), out=cxadj[1:])
    return cxadj, keys % nc, cweights, ceweights, cmap


def greedy_grow(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    weights: np.ndarray,
    ratio: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow side 0 by BFS from a pseudo-peripheral seed to the target weight."""
    n = len(weights)
    side = [1] * n
    total = float(weights.sum())
    target = total * ratio
    ptr = xadj.tolist()
    adj = adjncy.tolist()
    w = weights.tolist()

    # Pseudo-peripheral seed: BFS twice from a random start.
    start = int(rng.integers(n))
    for _ in range(2):
        seen = [False] * n
        seen[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for k in range(ptr[i], ptr[i + 1]):
                j = adj[k]
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        start = queue[-1]

    grown = 0.0
    seen = [False] * n
    seen[start] = True
    queue = [start]
    head = 0
    while head < len(queue) and grown < target:
        i = queue[head]
        head += 1
        if side[i] == 1:
            side[i] = 0
            grown += float(w[i])
        for k in range(ptr[i], ptr[i + 1]):
            j = adj[k]
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    # Disconnected leftovers: sweep any unreached nodes if still underweight.
    if grown < target:
        for i in range(n):
            if grown >= target:
                break
            if side[i] == 1:
                side[i] = 0
                grown += float(w[i])
    return np.array(side, dtype=np.int64)


def multilevel_bisect(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    weights: np.ndarray,
    eweights: Optional[np.ndarray] = None,
    ratio: float = 0.5,
    eps: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Two-way multilevel bisection; returns a 0/1 side per node."""
    rng = np.random.default_rng(seed)
    if eweights is None:
        eweights = np.ones(len(adjncy))
    return _bisect_level(xadj, adjncy, weights, eweights, ratio, eps, rng)


def _bisect_level(
    xadj, adjncy, weights, eweights, ratio, eps, rng
) -> np.ndarray:
    n = len(weights)
    if n <= COARSE_LIMIT or len(adjncy) == 0:
        side = greedy_grow(xadj, adjncy, weights, ratio, rng)
        return fm_refine(xadj, adjncy, weights, side, eweights, ratio, eps)

    mate = heavy_edge_matching(xadj, adjncy, eweights, rng)
    if (mate == np.arange(n)).all():
        # Matching made no progress (e.g. edgeless graph): bisect directly.
        side = greedy_grow(xadj, adjncy, weights, ratio, rng)
        return fm_refine(xadj, adjncy, weights, side, eweights, ratio, eps)
    cxadj, cadjncy, cweights, ceweights, cmap = contract(
        xadj, adjncy, weights, eweights, mate
    )
    coarse_side = _bisect_level(
        cxadj, cadjncy, cweights, ceweights, ratio, eps, rng
    )
    side = coarse_side[cmap]
    return fm_refine(xadj, adjncy, weights, side, eweights, ratio, eps)
