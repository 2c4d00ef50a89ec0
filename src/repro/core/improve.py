"""ParMA multi-criteria greedy diffusive partition improvement.

The driver of Section III-A: "The ParMA partition improvement procedure
traverses the priority list in order of decreasing priority.  For each mesh
entity type the migration schedule is computed, regions are selected for
migration, and the regions are migrated.  These three steps form one
iteration.  When the application defined imbalance is achieved, or the
maximum number of iterations is reached, the next mesh entity type is
processed."

Per iteration, every heavy part (in the balanced entity type) selects
candidate neighbors (:mod:`repro.core.candidates`), computes per-candidate
quotas (:mod:`repro.core.schedule`), picks elements/cavities with the
adjacency-based rules (:mod:`repro.core.selection`), and one collective
migration applies all moves.  Priority protection is enforced through
candidate gating: a candidate may not be heavy in a higher-priority type nor
loaded in lower-priority ones, so improving the current type cannot create
spikes in the types already balanced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Set, Union

import numpy as np

from ..mesh.entity import Ent
from ..obs.tracer import trace_span
from ..partition.dmesh import DistributedMesh
from ..partition.migration import migrate
from .candidates import candidate_parts
from .imbalance import ENTITY_NAMES, heavy_parts, imbalance_of, imbalances
from .priorities import PriorityList, parse_priorities
from .schedule import migration_schedule
from .selection import linked_to, select_for_dimension


@dataclass
class DimensionStats:
    """Outcome of balancing one entity dimension."""

    dim: int
    iterations: int = 0
    elements_migrated: int = 0
    initial_imbalance: float = 1.0
    final_imbalance: float = 1.0
    converged: bool = False

    @property
    def name(self) -> str:
        return ENTITY_NAMES[self.dim]


@dataclass
class ImproveStats:
    """Outcome of one multi-criteria improvement run."""

    priorities: str
    tolerance: float
    initial_imbalances: np.ndarray = field(default_factory=lambda: np.ones(4))
    final_imbalances: np.ndarray = field(default_factory=lambda: np.ones(4))
    initial_boundary_entities: int = 0
    final_boundary_entities: int = 0
    per_dimension: List[DimensionStats] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def total_migrated(self) -> int:
        return sum(d.elements_migrated for d in self.per_dimension)

    def summary(self) -> str:
        lines = [
            f"ParMA improvement [{self.priorities}] tol={self.tolerance:.0%} "
            f"in {self.seconds:.2f}s, {self.total_migrated} elements migrated"
        ]
        for stat in self.per_dimension:
            lines.append(
                f"  {stat.name}: {100 * (stat.initial_imbalance - 1):.2f}% -> "
                f"{100 * (stat.final_imbalance - 1):.2f}% in "
                f"{stat.iterations} iteration(s)"
                + ("" if stat.converged else " (max iterations)")
            )
        lines.append(
            f"  boundary entity copies: {self.initial_boundary_entities} -> "
            f"{self.final_boundary_entities}"
        )
        return "\n".join(lines)


def _trim_by_higher_priority(
    part, cand, selected, counts, means, tol, higher_dims, planned
):
    """Keep only the selection prefix whose migration cannot spike a
    higher-priority (already balanced) entity type on the candidate.

    For each protected dimension the candidate has a headroom of
    ``mean * (1 + tol) - count - already planned``; each kept element
    charges exactly the closure entities of that dimension that the
    candidate does not yet hold (i.e. the copies migration will create).
    Elements are dropped from the first one that would overdraw any
    protected dimension.  ``planned[cand][d]`` accumulates the charges so
    several heavy parts sending to one candidate in the same iteration
    share the same headroom.
    """
    if not higher_dims or not selected:
        return selected
    pending = planned.setdefault(cand, {})
    budgets = {
        d: float(means[d]) * (1.0 + tol)
        - float(counts[cand, d])
        - pending.get(d, 0.0)
        for d in higher_dims
    }
    mesh = part.mesh
    added = {d: set() for d in higher_dims}
    held = {d: set(linked_to(part, d, cand)) for d in higher_dims}
    kept = []
    for element in selected:
        trial = {}
        fits = True
        for d in higher_dims:
            new = [
                ent
                for ent in mesh.adjacent(element, d)
                if ent not in added[d] and ent not in held[d]
            ]
            if len(added[d]) + len(new) > budgets[d]:
                fits = False
                break
            trial[d] = new
        if not fits:
            break
        for d in higher_dims:
            added[d].update(trial[d])
        kept.append(element)
    for d in higher_dims:
        pending[d] = pending.get(d, 0.0) + len(added[d])
    return kept


def improve_partition(
    dmesh: DistributedMesh,
    priorities: Union[str, PriorityList],
    tol: float = 0.05,
    max_iterations: int = 24,
    candidate_mode: str = "both",
    selection_rule=select_for_dimension,
) -> ImproveStats:
    """Run multi-criteria partition improvement in place; returns statistics.

    ``priorities`` is a Table-I-style string (``"Vtx = Edge > Rgn"``) or a
    parsed :class:`~repro.core.priorities.PriorityList`.  ``tol`` is the
    application-defined imbalance (0.05 = the paper's 5%).
    ``candidate_mode`` and ``selection_rule`` exist for the ablation
    benchmarks; the defaults are the paper's algorithm.
    """
    plist = (
        parse_priorities(priorities) if isinstance(priorities, str) else priorities
    )
    start = time.perf_counter()
    stats = ImproveStats(priorities=str(plist), tolerance=tol)
    stats.initial_imbalances = imbalances(dmesh.entity_counts())
    stats.initial_boundary_entities = dmesh.shared_entity_count()
    elem_dim = dmesh.element_dim()
    tracer = dmesh.tracer
    if tracer is not None and not tracer.enabled:
        tracer = None

    with trace_span(tracer, "improve_partition", priorities=str(plist)):
        _improve_body(
            dmesh, plist, tol, max_iterations, candidate_mode,
            selection_rule, stats, elem_dim, tracer,
        )

    stats.final_imbalances = imbalances(dmesh.entity_counts())
    stats.final_boundary_entities = dmesh.shared_entity_count()
    stats.seconds = time.perf_counter() - start
    dmesh.counters.add("parma.improve.runs")
    return stats


def _improve_body(
    dmesh, plist, tol, max_iterations, candidate_mode, selection_rule,
    stats, elem_dim, tracer,
):
    for level in plist.levels:
        for dim in level:
            higher = plist.higher_priority_dims(dim)
            lower = plist.lower_priority_dims(dim)
            dstat = DimensionStats(dim=dim)
            dstat.initial_imbalance = imbalance_of(dmesh.entity_counts(), dim)
            series = f"imbalance[{ENTITY_NAMES[dim]}]"
            with trace_span(tracer, f"improve.{ENTITY_NAMES[dim]}", dim=dim):
                for _iteration in range(max_iterations):
                    counts = dmesh.entity_counts()
                    means = counts.astype(float).mean(axis=0)
                    current = imbalance_of(counts, dim, float(means[dim]))
                    if tracer is not None:
                        tracer.record_value(series, current)
                    if current <= 1.0 + tol:
                        dstat.converged = True
                        break
                    plan: Dict[int, Dict[Ent, int]] = {}
                    planned: Dict[int, Dict[int, float]] = {}
                    heavies = heavy_parts(counts, dim, tol, float(means[dim]))
                    for heavy in heavies:
                        part = dmesh.part(heavy)
                        cands = candidate_parts(
                            dmesh, counts, heavy, dim,
                            lower_priority_dims=lower,
                            higher_priority_dims=higher,
                            tol=tol,
                            means=means,
                            mode=candidate_mode,
                        )
                        if not cands:
                            continue
                        schedule = migration_schedule(
                            counts, heavy, cands, dim, float(means[dim]), tol
                        )
                        already: Set[Ent] = set()
                        moves: Dict[Ent, int] = {}
                        for cand in sorted(schedule):
                            selected = selection_rule(
                                part, cand, dim, schedule[cand], already
                            )
                            selected = _trim_by_higher_priority(
                                part, cand, selected, counts, means, tol,
                                higher, planned,
                            )
                            for element in selected:
                                moves[element] = cand
                        # Never empty the part entirely (its id must
                        # survive); anything finer is the candidate
                        # gate's business.
                        max_send = int(counts[heavy, elem_dim]) - 1
                        if max_send <= 0:
                            continue
                        if len(moves) > max_send:
                            moves = dict(sorted(moves.items())[:max_send])
                        if moves:
                            plan[heavy] = moves
                    if not plan:
                        break  # diffusion is stuck (nothing selected)
                    dstat.elements_migrated += migrate(
                        dmesh, plan
                    ).elements_moved
                    dstat.iterations += 1
                else:
                    # Loop exhausted max_iterations without converging.
                    pass
            final = imbalance_of(dmesh.entity_counts(), dim)
            if tracer is not None:
                tracer.record_value(series, final)
            dstat.final_imbalance = final
            if final <= 1.0 + tol:
                dstat.converged = True
            stats.per_dimension.append(dstat)
