"""Fiduccia–Mattheyses (FM) refinement for two-way partitions.

The boundary-refinement engine of the multilevel partitioner: given a CSR
graph with node and edge weights and a 0/1 side assignment, FM repeatedly
moves the boundary node with the best cut-gain whose move keeps both sides
within the balance tolerance, locks it, and at the end of each pass rolls
back to the best prefix seen — the classic hill-climbing-with-lookahead that
escapes local minima a greedy pass cannot.

As in Zoltan PHG and METIS, a pass ends after ``max(n // 20, 50)`` moves in a
row without a new best prefix, moves the rollback would only undo; the
pinned partitions stay bit for bit by measurement, not by construction.
Every node is still a candidate: a boundary-only heap cut 897 faces, not
877, on 16 parts of ``aaa_mesh(6)``.  A pass does not heapify all ``n`` of
them, though: it sorts them once into a reserve (most gain first, then
lowest index) and pops the smaller of the reserve's head and a heap that
holds only the entries pushed since, which is one heap's pop order.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

#: FM passes per call; a pass that improves nothing ends the call sooner.
PASSES = 4


def cut_weight(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    eweights: Optional[np.ndarray],
    side: np.ndarray,
) -> float:
    """Total weight of edges crossing the two sides."""
    src = np.repeat(np.arange(len(xadj) - 1), np.diff(xadj))
    crossing = side[src] != side[adjncy]
    if eweights is None:
        return float(crossing.sum()) / 2.0
    return float(eweights[crossing].sum()) / 2.0


def _gains(xadj, adjncy, eweights, side) -> np.ndarray:
    """FM gain of every node: external minus internal incident edge weight."""
    n = len(xadj) - 1
    src = np.repeat(np.arange(n), np.diff(xadj))
    w = eweights if eweights is not None else np.ones(len(adjncy))
    # bincount sums each node's terms in CSR order, one fixed summation order.
    return np.bincount(src, np.where(side[src] != side[adjncy], w, -w), n)


def fm_refine(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    weights: np.ndarray,
    side: np.ndarray,
    eweights: Optional[np.ndarray] = None,
    ratio: float = 0.5,
    eps: float = 0.05,
) -> np.ndarray:
    """Refine a two-way partition in place-and-return.

    ``ratio`` is side 0's target weight fraction; both sides may exceed
    their targets by the factor ``1 + eps``.  A pass stops after
    ``max(n // 20, 50)`` moves without a new best prefix, and a pass that
    improves nothing ends the call.  Each pass works on Python lists and floats (one ``tolist()``
    per array per pass), never on numpy scalars.
    """
    n = len(weights)
    side = np.asarray(side, dtype=np.int64).copy()
    total = float(weights.sum())
    # Allow at least one max-weight cell of slack beyond the tolerance, the
    # standard FM relaxation without which a perfectly balanced partition
    # could never move anything at tight eps.
    slack = float(weights.max()) if n else 0.0
    max_side = (
        max(total * ratio * (1.0 + eps), total * ratio + slack),
        max(total * (1.0 - ratio) * (1.0 + eps), total * (1.0 - ratio) + slack),
    )
    targets = (total * ratio, total * (1.0 - ratio))
    ptr = xadj.tolist()
    adj = adjncy.tolist()
    ew = eweights.tolist() if eweights is not None else [1.0] * len(adj)
    node_w = weights.tolist()
    pop, push = heapq.heappop, heapq.heappush
    stall = max(n // 20, 50)

    for _pass in range(PASSES):
        g = _gains(xadj, adjncy, eweights, side)
        gains = g.tolist()
        # The pass's first entries, already in heap order, merged with a
        # heap of the entries pushed since: the same pop order as one heap
        # of both (equal entries are one node's, and the second is stale).
        order = np.lexsort((np.arange(n), -g))
        reserve = list(zip((-g)[order].tolist(), order.tolist()))
        next_up = 0
        heap = []
        locked = [False] * n
        side_weight = [
            float(weights[side == 0].sum()),
            float(weights[side == 1].sum()),
        ]
        part = side.tolist()

        def balance_metric() -> float:
            return max(
                side_weight[0] / targets[0] if targets[0] else 1.0,
                side_weight[1] / targets[1] if targets[1] else 1.0,
            )

        # A prefix only counts as "best" if it is at least as balanced as
        # the tolerance (or as the input, when the input starts outside it).
        acceptable = max(1.0 + eps, balance_metric())

        moves = []
        improvement = 0.0
        best_improvement = 0.0
        best_prefix = 0
        while True:
            if heap and (next_up == n or heap[0] < reserve[next_up]):
                neg_gain, i = pop(heap)
            elif next_up < n:
                neg_gain, i = reserve[next_up]
                next_up += 1
            else:
                break
            if locked[i] or -neg_gain != gains[i]:
                continue  # stale heap entry
            frm = part[i]
            to = 1 - frm
            if side_weight[to] + node_w[i] > max_side[to]:
                locked[i] = True  # infeasible this pass
                continue
            # Apply the move.
            locked[i] = True
            part[i] = to
            side_weight[frm] -= node_w[i]
            side_weight[to] += node_w[i]
            improvement += gains[i]
            moves.append(i)
            if improvement > best_improvement and balance_metric() <= acceptable:
                best_improvement = improvement
                best_prefix = len(moves)
            elif len(moves) - best_prefix >= stall:
                break  # rolled back below anyway
            # Update neighbor gains.
            for k in range(ptr[i], ptr[i + 1]):
                j = adj[k]
                if locked[j]:
                    continue
                # j's edge to i flipped internal<->external.
                gains[j] += 2.0 * ew[k] if part[j] != to else -2.0 * ew[k]
                push(heap, (-gains[j], j))

        # Roll back everything after the best prefix.
        for i in moves[best_prefix:]:
            part[i] = 1 - part[i]
        side = np.array(part, dtype=np.int64)
        if best_improvement <= 0.0:
            break
    return side
