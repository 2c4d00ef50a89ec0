"""Local (per-part) partitioning: split every part of a distribution in place.

The paper's largest runs create their partitions this way: "This partition is
created by locally partitioning each part of a 16,384 part mesh with Zoltan
Hypergraph to 96 parts" (Section III-A) — cheap, embarrassingly parallel,
but blind to anything outside each part, which is why "the initial peak
vertex imbalance of the 1.5M part mesh is 54% while the initial peak vertex
imbalance of the 16,384 part mesh is 9%".  Reproducing that imbalance growth
is one of the benchmark targets.
"""

from __future__ import annotations

from typing import Dict

from ..mesh.entity import Ent
from ..partition.dmesh import DistributedMesh
from ..partition.migration import migrate
from .bisection import recursive_bisection
from .graph import dual_graph


def local_partition(
    dmesh: DistributedMesh,
    factor: int,
    eps: float = 0.05,
    seed: int = 0,
) -> DistributedMesh:
    """Split every non-empty part into ``factor`` subparts, in place.

    Subpart 0 stays on the original part id; the rest move to freshly
    created parts.  One collective migration executes all moves.  Returns
    the same (mutated) distributed mesh for chaining.
    """
    if factor < 1:
        raise ValueError(f"split factor must be >= 1, got {factor}")
    if factor == 1:
        return dmesh
    for part in dmesh:
        if part.has_ghosts():
            raise ValueError("delete ghosts before local partitioning")

    dim = dmesh.element_dim()
    plan: Dict[int, Dict[Ent, int]] = {}
    original_pids = [part.pid for part in dmesh if part.mesh.count(dim) > 0]
    for pid in original_pids:
        part = dmesh.part(pid)
        graph = dual_graph(part.mesh)
        pieces = min(factor, graph.n)  # cannot split finer than one element
        local = recursive_bisection(
            graph.xadj,
            graph.adjncy,
            graph.weights.astype(float),
            pieces,
            eps=eps,
            seed=seed + pid,
        )
        new_pids = [pid] + [dmesh.add_part().pid for _ in range(pieces - 1)]
        moves = {
            element: new_pids[local[i]]
            for i, element in enumerate(graph.elements)
            if local[i] != 0
        }
        if moves:
            plan[pid] = moves
    migrate(dmesh, plan)
    return dmesh
