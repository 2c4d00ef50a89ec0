"""Recursive k-way partitioning driven by two-way bisection.

Splits the node set into ``nparts`` pieces by recursive multilevel two-way
bisection, handling arbitrary (non-power-of-2) part counts by biasing each
bisection's target ratio.  This is the driver behind both the "graph" and
"hypergraph" methods of the Zoltan-like facade.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .multilevel import multilevel_bisect


def _subgraph(xadj, adjncy, eweights, ids):
    """Extract the induced subgraph of ``ids`` (renumbered 0..len-1).

    Row ``r`` of the result is node ``ids[r]``'s CSR row with the edges
    leaving ``ids`` masked out, in the original edge order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    remap = -np.ones(len(xadj) - 1, dtype=np.int64)
    remap[ids] = np.arange(len(ids))
    starts = xadj[ids]
    lengths = xadj[ids + 1] - starts
    row = np.repeat(np.arange(len(ids), dtype=np.int64), lengths)
    # Edge positions of the selected rows, row after row.
    pos = np.arange(len(row), dtype=np.int64) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths
    )
    sub = remap[adjncy[pos]]
    keep = sub >= 0
    sub_xadj = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=len(ids)), out=sub_xadj[1:])
    if eweights is None:
        sub_ew = np.ones(int(keep.sum()))
    else:
        sub_ew = np.asarray(eweights, dtype=float)[pos[keep]]
    return sub_xadj, sub[keep], sub_ew


def recursive_bisection(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    weights: np.ndarray,
    nparts: int,
    eweights: Optional[np.ndarray] = None,
    eps: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Partition a CSR graph into ``nparts``; returns a part id per node."""
    if nparts < 1:
        raise ValueError(f"need at least one part, got {nparts}")
    n = len(weights)
    assignment = np.zeros(n, dtype=np.int64)
    if nparts == 1:
        return assignment
    # Imbalance compounds multiplicatively down the recursion, so each level
    # gets the tolerance that makes the leaves land within the overall eps.
    levels = int(np.ceil(np.log2(nparts)))
    eps_level = (1.0 + eps) ** (1.0 / levels) - 1.0
    _recurse(
        xadj, adjncy, weights, eweights, np.arange(n), 0, nparts, eps_level,
        seed, assignment,
    )
    return assignment


def _recurse(
    xadj, adjncy, weights, eweights, ids, first_part, nparts, eps, seed,
    assignment,
) -> None:
    if nparts == 1 or len(ids) == 0:
        assignment[ids] = first_part
        return
    left_parts = nparts // 2
    ratio = left_parts / nparts
    sub_xadj, sub_adjncy, sub_ew = _subgraph(xadj, adjncy, eweights, ids)
    side = multilevel_bisect(
        sub_xadj, sub_adjncy, weights[ids], sub_ew,
        ratio=ratio, eps=eps, seed=seed,
    )
    left_ids = ids[side == 0]
    right_ids = ids[side == 1]
    if len(left_ids) == 0 or len(right_ids) == 0:
        # Degenerate bisection (tiny or pathological graph): split by order.
        half = max(1, int(round(len(ids) * ratio)))
        left_ids, right_ids = ids[:half], ids[half:]
    _recurse(
        xadj, adjncy, weights, eweights, left_ids, first_part, left_parts,
        eps, seed * 2 + 1, assignment,
    )
    _recurse(
        xadj, adjncy, weights, eweights, right_ids, first_part + left_parts,
        nparts - left_parts, eps, seed * 2 + 2, assignment,
    )
