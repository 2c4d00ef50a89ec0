"""Size-field-driven mesh adaptation driver.

Alternates refinement and coarsening passes until every edge is within the
size-field band (or the pass budget runs out), optionally finishing 2D
meshes with quality edge swaps — the isotropic core of the adaptive loop
the paper's Figs. 7 and 8 illustrate (shock tracking on the scramjet,
moving refinement zones in the accelerator).

Ancestry tracking: pass ``ancestry_tag`` to stamp every initial element
with a label and have all descendants inherit it.  The Fig. 13 experiment
uses part ids as labels, so post-adaptation per-part element counts can be
measured without running the adaptation distributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..field.sizefield import SizeField, edge_size_ratios
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from .coarsen import coarsen_pass
from .refine import refine_pass
from .swap import swap_pass


@dataclass
class AdaptStats:
    """Outcome of one adaptation run."""

    passes: int = 0
    splits: int = 0
    collapses: int = 0
    swaps: int = 0
    initial_elements: int = 0
    final_elements: int = 0
    converged: bool = False

    def summary(self) -> str:
        return (
            f"adapt: {self.initial_elements} -> {self.final_elements} "
            f"elements in {self.passes} pass(es) "
            f"({self.splits} splits, {self.collapses} collapses, "
            f"{self.swaps} swaps)"
            + ("" if self.converged else " [pass budget reached]")
        )


def seed_ancestry(
    mesh: Mesh, tag_name: str, label_of: Optional[Callable[[Ent], Any]] = None
) -> None:
    """Stamp every current element with an ancestry label (default: own id)."""
    tag = mesh.tag(tag_name)
    dim = mesh.dim()
    for element in mesh.entities(dim):
        tag.set(element, label_of(element) if label_of else element.idx)


def ancestry_counts(mesh: Mesh, tag_name: str) -> Dict[Any, int]:
    """Element count per ancestry label (the Fig. 13 measurement)."""
    tag = mesh.tags.find(tag_name)
    if tag is None:
        raise KeyError(f"no ancestry tag {tag_name!r}")
    counts: Dict[Any, int] = {}
    dim = mesh.dim()
    for element in mesh.entities(dim):
        label = tag.get(element)
        counts[label] = counts.get(label, 0) + 1
    return counts


def adapt(
    mesh: Mesh,
    size: SizeField,
    max_passes: int = 10,
    refine_ratio: float = 1.5,
    coarsen_ratio: float = 0.45,
    do_coarsen: bool = True,
    do_swap: bool = False,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
) -> AdaptStats:
    """Adapt ``mesh`` to the size field in place; returns statistics.

    ``refine_ratio``/``coarsen_ratio`` bound the acceptable edge-length band
    relative to the prescribed size (defaults give the standard
    [0.45, 1.5] band whose midpoint operations converge).
    """
    dim = mesh.dim()
    stats = AdaptStats(initial_elements=mesh.count(dim))
    for _pass in range(max_passes):
        splits = refine_pass(
            mesh, size, ratio=refine_ratio, snap=snap,
            ancestry_tag=ancestry_tag,
        )
        collapses = (
            coarsen_pass(
                mesh, size, ratio=coarsen_ratio, ancestry_tag=ancestry_tag
            )
            if do_coarsen
            else 0
        )
        swaps = swap_pass(mesh) if (do_swap and dim == 2) else 0
        stats.passes += 1
        stats.splits += splits
        stats.collapses += collapses
        stats.swaps += swaps
        if splits == 0 and collapses == 0:
            stats.converged = True
            break
    stats.final_elements = mesh.count(dim)
    return stats


def conformity(mesh: Mesh, size: SizeField) -> Dict[str, float]:
    """How well edge lengths match the size field: fraction in-band, extremes."""
    r = edge_size_ratios(mesh, size, mesh.entity_ids(1))
    total = len(r)
    return {
        "edges": float(total),
        "in_band_fraction": (
            float(((0.45 <= r) & (r <= 1.5)).sum()) / total if total else 1.0
        ),
        "max_ratio": float(r.max(initial=0.0)),
        "min_ratio": float(r.min()) if total else 0.0,
    }
