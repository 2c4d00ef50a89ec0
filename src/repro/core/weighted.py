"""Weighted diffusive balancing: application-defined element costs.

Graph partitioners "explicitly account for application defined imbalance
criteria via graph node weights" (paper, Section III); ParMA-style diffusion
supports the same through an element weight tag.  The canonical use is
predictive balancing (weights = estimated post-adaptation element counts,
:mod:`repro.core.predictive`) executed *diffusively* on the existing
distribution instead of by a from-scratch geometric repartition — far
cheaper when the partition is already mostly right.

:func:`weighted_diffusion` balances the per-part total element weight to a
tolerance using the same heavy-part/candidate/schedule machinery as the
entity-count improvement, with selection accumulating weight until each
candidate's quota is filled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from ..mesh.entity import Ent
from ..partition.dmesh import DistributedMesh
from ..partition.migration import migrate
from .selection import select_elements_by_boundary_rule


@dataclass
class WeightedStats:
    """Outcome of one weighted diffusion run."""

    iterations: int = 0
    elements_migrated: int = 0
    initial_imbalance: float = 1.0
    final_imbalance: float = 1.0
    converged: bool = False
    seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"weighted diffusion: {100 * (self.initial_imbalance - 1):.1f}% "
            f"-> {100 * (self.final_imbalance - 1):.1f}% in "
            f"{self.iterations} iteration(s), "
            f"{self.elements_migrated} elements ({self.seconds:.2f}s)"
            + ("" if self.converged else " [not converged]")
        )


def part_weights(dmesh: DistributedMesh, weight_tag: str) -> np.ndarray:
    """Total element weight per part (missing tag values default to 1)."""
    dim = dmesh.element_dim()
    loads = np.zeros(dmesh.nparts)
    for part in dmesh:
        tag = part.mesh.tags.find(weight_tag)
        for element in part.mesh.entities(dim):
            if part.is_ghost(element):
                continue
            value = tag.get(element) if tag is not None else None
            loads[part.pid] += float(value) if value is not None else 1.0
    return loads


def weighted_diffusion(
    dmesh: DistributedMesh,
    weight_tag: str,
    tol: float = 0.05,
    max_iterations: int = 24,
) -> WeightedStats:
    """Diffuse element *weight* from heavy parts to light neighbors.

    Elements travel with their weight-tag values (migration does not move
    tags, so the plan carries them explicitly and re-tags on arrival).
    """
    start = time.perf_counter()
    dim = dmesh.element_dim()
    stats = WeightedStats()
    loads = part_weights(dmesh, weight_tag)
    mean = loads.mean()
    stats.initial_imbalance = loads.max() / mean if mean > 0 else 1.0

    for _iteration in range(max_iterations):
        loads = part_weights(dmesh, weight_tag)
        mean = loads.mean()
        if mean <= 0 or loads.max() / mean <= 1.0 + tol:
            stats.converged = True
            break

        plan: Dict[int, Dict[Ent, int]] = {}
        carried: Dict[int, Dict[int, float]] = {}  # pid -> {element gid: w}
        order = [
            p for p in np.argsort(-loads) if loads[p] > mean * (1.0 + tol)
        ]
        for heavy in map(int, order):
            part = dmesh.part(heavy)
            tag = part.mesh.tags.find(weight_tag)
            neighbors = sorted(
                nb for nb in part.neighbors()
                if loads[nb] < mean or loads[nb] < loads[heavy]
            )
            if not neighbors:
                continue
            excess = loads[heavy] - mean
            already: Set[Ent] = set()
            moves: Dict[Ent, int] = {}
            weights_out: Dict[int, float] = {}
            for cand in sorted(neighbors, key=lambda p: (loads[p], p)):
                capacity = (
                    mean - loads[cand]
                    if loads[cand] < mean
                    else (loads[heavy] - loads[cand]) / 2.0
                )
                budget = min(excess, max(capacity, 0.0))
                if budget <= 0:
                    continue
                shed = 0.0
                # Pull elements until the weight budget is filled.
                while shed < budget:
                    picked = select_elements_by_boundary_rule(
                        part, cand, quota=4, already=already
                    )
                    if not picked:
                        break
                    for element in picked:
                        value = (
                            float(tag.get(element))
                            if tag is not None and tag.has(element)
                            else 1.0
                        )
                        moves[element] = cand
                        weights_out[part.gid(element)] = value
                        shed += value
                        if shed >= budget:
                            break
                excess -= shed
                if excess <= 0:
                    break
            if moves:
                plan[heavy] = moves
                for element, cand in moves.items():
                    carried.setdefault(cand, {})[part.gid(element)] = (
                        weights_out[part.gid(element)]
                    )
        if not plan:
            break
        stats.elements_migrated += migrate(dmesh, plan).elements_moved
        stats.iterations += 1
        # Re-tag migrated elements on their new parts.
        for pid, values in carried.items():
            part = dmesh.part(pid)
            tag = part.mesh.tag(weight_tag)
            landed = part.handles(dim, list(values))
            for idx, value in zip(landed.tolist(), values.values()):
                if idx >= 0:
                    tag.set(Ent(dim, idx), value)

    loads = part_weights(dmesh, weight_tag)
    mean = loads.mean()
    stats.final_imbalance = loads.max() / mean if mean > 0 else 1.0
    if stats.final_imbalance <= 1.0 + tol:
        stats.converged = True
    stats.seconds = time.perf_counter() - start
    return stats
