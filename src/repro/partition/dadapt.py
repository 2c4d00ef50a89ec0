"""Distributed mesh adaptation: refinement and coarsening across parts.

PUMI's partition classification "enables ... various capabilities for
parallel unstructured mesh modification in an effective manner" (paper,
Section II-C) — the mesh must remain conforming *across* part boundaries
while every part modifies its piece.  This module provides the two
bulk-synchronous operations the adaptive workflows need:

* :func:`refine_distributed` — size-field refinement where part-boundary
  edges are split *coordinately*: the owning part decides the split,
  allocates the new vertex's global id, and instructs every residence part
  to perform the identical local split at the identical (snapped) location.
  Because every holder splits the same edge at the same point with the same
  vertex gid, the copies stay conforming, and the remote-link rebuild keyed
  on vertex gids re-discovers the new boundary entities.
* :func:`coarsen_distributed` — edge collapse restricted to edges whose
  *removed* vertex is part-interior (an interior vertex exists on exactly
  one part, so the collapse is purely local and cannot desynchronize the
  boundary).  Part-boundary coarsening would require cavity migration first
  (PUMI does exactly that); the restriction is documented and tested.

Both operations assign fresh element gids to all children so migration and
ghosting keep working on the adapted distributed mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..adapt.coarsen import collapse_edge
from ..adapt.refine import split_edge
from ..field.sizefield import SizeField, edge_size_ratio
from ..mesh.entity import Ent
from .dmesh import DistributedMesh
from .migration import rebuild_links
from .part import Part

_TAG_SPLIT = 31


@dataclass
class DistributedAdaptStats:
    """Outcome of one distributed adaptation run."""

    passes: int = 0
    interior_splits: int = 0
    boundary_splits: int = 0
    collapses: int = 0
    converged: bool = False

    @property
    def splits(self) -> int:
        return self.interior_splits + self.boundary_splits

    def summary(self) -> str:
        return (
            f"distributed adapt: {self.passes} pass(es), "
            f"{self.interior_splits} interior + {self.boundary_splits} "
            f"boundary splits, {self.collapses} collapses"
            + ("" if self.converged else " [pass budget reached]")
        )


def _fresh_element_gids(dmesh: DistributedMesh, part: Part) -> None:
    """Assign gids to any elements that lack one (children of splits)."""
    dim = dmesh.element_dim()
    for element in part.mesh.entities(dim):
        if not part.has_gid(element):
            part.set_gid(element, dmesh.alloc_gid(dim))


def _split_local(
    dmesh: DistributedMesh,
    part: Part,
    edge: Ent,
    point=None,
    vertex_gid: Optional[int] = None,
) -> Ent:
    """Split one edge on one part, maintaining gid bookkeeping."""
    mid = split_edge(part.mesh, edge, point=point, snap=(point is None))
    part.set_gid(
        mid, vertex_gid if vertex_gid is not None else dmesh.alloc_gid(0)
    )
    return mid


def refine_distributed(
    dmesh: DistributedMesh,
    size: SizeField,
    ratio: float = 1.5,
    max_passes: int = 6,
) -> DistributedAdaptStats:
    """Refine the distributed mesh until every edge fits the size field.

    Each pass: (1) every part splits its over-long *interior* edges
    locally; (2) owners of over-long *shared* edges broadcast split
    commands (midpoint, new vertex gid, classification is implied by the
    edge's own); (3) every residence part executes its commanded splits;
    (4) remote links are rebuilt.  Ghosts must be deleted first.
    """
    for part in dmesh:
        if part.has_ghosts():
            raise ValueError("delete ghosts before distributed refinement")
    stats = DistributedAdaptStats()
    dim = dmesh.element_dim()
    if dim < 2:
        raise ValueError("distributed refinement needs a 2D or 3D mesh")

    for _pass in range(max_passes):
        splits_this_pass = 0

        # Phase 1: interior edges, purely local (longest first).
        for part in dmesh:
            mesh = part.mesh
            over = []
            for edge in mesh.entities(1):
                if part.is_shared(edge):
                    continue
                r = edge_size_ratio(mesh, size, edge)
                if r > ratio:
                    over.append((r, edge))
            over.sort(key=lambda item: (-item[0], item[1]))
            for _r, edge in over:
                if not mesh.has(edge) or part.is_shared(edge):
                    continue
                if edge_size_ratio(mesh, size, edge) <= ratio:
                    continue
                _split_local(dmesh, part, edge)
                splits_this_pass += 1
                stats.interior_splits += 1

        # Phase 2: owners decide shared-edge splits and command all copies.
        router = dmesh.router()
        commands: Dict[int, List[Tuple[Ent, Tuple[float, ...], int]]] = {}
        for part in dmesh:
            mesh = part.mesh
            for edge in part.shared_entities(1):
                if not part.owns(edge):
                    continue
                if edge_size_ratio(mesh, size, edge) <= ratio:
                    continue
                a, b = mesh.verts_of(edge)
                midpoint = 0.5 * (mesh.coords(a) + mesh.coords(b))
                gclass = mesh.classification(edge)
                if gclass is not None and mesh.model is not None:
                    from ..gmodel.snap import snap_to_entity

                    midpoint = snap_to_entity(mesh.model, gclass, midpoint)
                vertex_gid = dmesh.alloc_gid(0)
                point = tuple(midpoint)
                commands.setdefault(part.pid, []).append(
                    (edge, point, vertex_gid)
                )
                pids, rids = part.copies(edge)
                for other_pid, rid in zip(pids.tolist(), rids.tolist()):
                    router.post(
                        part.pid, other_pid, _TAG_SPLIT,
                        (Ent(1, rid), point, vertex_gid),
                    )

        # Phase 3: every part executes its commanded splits (incoming
        # plus, for owners, its own).  Exchange delivers an inbox for every
        # part, so one loop covers both.
        inboxes = router.exchange()
        boundary_splits = 0
        for pid in sorted(inboxes):
            part = dmesh.part(pid)
            ordered = [payload for _s, _t, payload in inboxes[pid]]
            ordered.extend(commands.get(pid, []))
            for edge, point, vertex_gid in sorted(ordered):
                if not part.mesh.has(edge):
                    raise AssertionError(
                        f"part {pid}: commanded split edge {edge} is dead"
                    )
                _split_local(dmesh, part, edge, point=point,
                             vertex_gid=vertex_gid)
                boundary_splits += 1

        stats.boundary_splits += boundary_splits
        splits_this_pass += boundary_splits

        for part in dmesh:
            _fresh_element_gids(dmesh, part)
        rebuild_links(dmesh)
        stats.passes += 1
        if splits_this_pass == 0:
            stats.converged = True
            break
    dmesh.counters.add("dadapt.splits", stats.splits)
    return stats


def coarsen_distributed(
    dmesh: DistributedMesh,
    size: SizeField,
    ratio: float = 0.45,
    max_passes: int = 4,
) -> DistributedAdaptStats:
    """Collapse under-resolved edges whose removed vertex is part-interior.

    A vertex interior to a part exists nowhere else, so the collapse is
    purely local; shared entities of the cavity survive by find-or-create.
    Edges needing coarsening whose *both* endpoints are shared are skipped
    (PUMI migrates such cavities inward first; see module docstring).
    """
    for part in dmesh:
        if part.has_ghosts():
            raise ValueError("delete ghosts before distributed coarsening")
    stats = DistributedAdaptStats()

    for _pass in range(max_passes):
        collapses = 0
        for part in dmesh:
            mesh = part.mesh
            under = []
            for edge in mesh.entities(1):
                r = edge_size_ratio(mesh, size, edge)
                if r < ratio:
                    under.append((r, edge))
            under.sort(key=lambda item: (item[0], item[1]))
            for _r, edge in under:
                if not mesh.has(edge):
                    continue
                if edge_size_ratio(mesh, size, edge) >= ratio:
                    continue
                a, b = mesh.verts_of(edge)
                # Only an interior vertex may be removed.
                keep: Optional[Ent] = None
                if not part.is_shared(a) and not _touches_boundary(part, a):
                    keep = b
                elif not part.is_shared(b) and not _touches_boundary(part, b):
                    keep = a
                else:
                    continue
                if collapse_edge(mesh, edge, keep=keep):
                    collapses += 1
        for part in dmesh:
            _fresh_element_gids(dmesh, part)
        rebuild_links(dmesh)
        stats.passes += 1
        stats.collapses += collapses
        if collapses == 0:
            stats.converged = True
            break
    dmesh.counters.add("dadapt.collapses", stats.collapses)
    return stats


def _touches_boundary(part: Part, vertex: Ent) -> bool:
    """Whether any entity adjacent to ``vertex`` is part-shared.

    Removing such a vertex rebuilds elements that own shared faces/edges,
    which is safe topologically but changes which elements bound them —
    conservatively skipped so collapses never disturb the part boundary.
    """
    mesh = part.mesh
    for edge in mesh.up(vertex):
        if part.is_shared(edge):
            return True
    return False


def adapt_distributed(
    dmesh: DistributedMesh,
    size: SizeField,
    refine_ratio: float = 1.5,
    coarsen_ratio: float = 0.45,
    max_passes: int = 6,
    do_coarsen: bool = True,
) -> DistributedAdaptStats:
    """Refine then coarsen the distributed mesh to the size field."""
    stats = refine_distributed(
        dmesh, size, ratio=refine_ratio, max_passes=max_passes
    )
    if do_coarsen:
        coarsen_stats = coarsen_distributed(
            dmesh, size, ratio=coarsen_ratio, max_passes=max_passes
        )
        stats.collapses = coarsen_stats.collapses
        stats.passes += coarsen_stats.passes
        stats.converged = stats.converged and coarsen_stats.converged
    return stats
