"""Distributed mesh adaptation: refinement and coarsening across parts.

PUMI's partition classification "enables ... various capabilities for
parallel unstructured mesh modification in an effective manner" (paper,
Section II-C) — the mesh must remain conforming *across* part boundaries
while every part modifies its piece.  This module provides the two
bulk-synchronous operations the adaptive workflows need:

* :func:`refine_distributed` — size-field refinement on the one batched
  split kernel (:func:`repro.adapt.refine.split_edges`), one call per part
  per pass.  Each pass (1) orders every part's over-long interior edges
  and takes their vertex global ids; (2) has the owner of every over-long
  *shared* edge decide its split, allocate the new vertex's global id and
  post one array payload per residence part (edges, size ratios, snapped
  points, vertex gids); (3) has every part split its interior edges, then
  its commanded ones, in one call — the mesh two calls in turn leave,
  computed before any split because an interior split changes no shared
  edge; (4) rebuilds the remote links.  Both edge lists are ordered by the
  same handle-free key (:func:`repro.adapt.refine.split_order`: size
  ratio, then midpoint), so the holders of a shared face split its edges
  in the same order and triangulate it identically — the copies stay
  conforming, and the remote-link rebuild keyed on vertex gids
  re-discovers the new boundary entities.
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
from typing import Optional

import numpy as np

from ..adapt.coarsen import collapse_edge, collapse_order
from ..adapt.refine import split_edges, split_order, split_points
from ..field.sizefield import SizeField, edge_size_ratio, edge_size_ratios
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
    ids = part.mesh.entity_ids(dim)
    missing = ids[part.gids_of(dim, ids) < 0]
    part.set_gids(dim, missing, dmesh.alloc_gids(dim, len(missing)))


def refine_distributed(
    dmesh: DistributedMesh,
    size: SizeField,
    ratio: float = 1.5,
    max_passes: int = 6,
) -> DistributedAdaptStats:
    """Refine the distributed mesh until every edge fits the size field.

    Each pass: (1) every part orders its over-long *interior* edges and
    takes a vertex gid for each; (2) owners of over-long *shared* edges
    post split commands (edge, size ratio, snapped point, new vertex gid)
    to every copy; (3) every part splits its interior edges, then its
    commanded ones, in one call; (4) remote links are rebuilt.  Ghosts
    must be deleted first.
    """
    for part in dmesh:
        if part.has_ghosts():
            raise ValueError("delete ghosts before distributed refinement")
    stats = DistributedAdaptStats()
    dim = dmesh.element_dim()
    if dim < 2:
        raise ValueError("distributed refinement needs a 2D or 3D mesh")

    for _pass in range(max_passes):
        # Phase 1: interior edges, purely local.  An interior split
        # destroys only its own edge and the faces through it and moves no
        # vertex, so it changes no shared edge: the commands can be
        # computed before any split.
        interior = []
        for part in dmesh:
            edges = np.setdiff1d(part.mesh.entity_ids(1), part.links(1)[0])
            ratios = edge_size_ratios(part.mesh, size, edges)
            over = ratios > ratio
            edges = edges[over][split_order(part.mesh, edges[over], ratios[over])]
            interior.append((
                edges, split_points(part.mesh, edges),
                dmesh.alloc_gids(0, len(edges)),
            ))

        # Phase 2: owners decide shared-edge splits and command all copies,
        # one array payload per destination.
        router = dmesh.router()
        commands = []
        for part in dmesh:
            ids, pids, rids = part.links(1)
            # The owner is the lowest residence part.
            owned = np.setdiff1d(ids, ids[pids < part.pid])
            ratios = edge_size_ratios(part.mesh, size, owned)
            over = ratios > ratio
            edges, ratios = owned[over], ratios[over]
            points = split_points(part.mesh, edges)
            gids = dmesh.alloc_gids(0, len(edges))
            commands.append((edges, ratios, points, gids))
            copied = np.isin(ids, edges)
            for dest in np.unique(pids[copied]).tolist():
                rows = copied & (pids == dest)
                at = np.searchsorted(edges, ids[rows])
                router.post(
                    part.pid, dest, _TAG_SPLIT,
                    (rids[rows], ratios[at], points[at], gids[at]),
                )

        # Phase 3: every part splits its interior edges, then its commanded
        # ones (incoming plus, for owners, its own) in split-key order: one
        # call leaves the mesh the two orders' calls in turn leave.
        inboxes = router.exchange()
        splits_this_pass = 0
        for part, inner, own in zip(dmesh, interior, commands):
            batches = [own] + [payload for _s, _t, payload in inboxes[part.pid]]
            edges, ratios, points, gids = (
                np.concatenate(cols) for cols in zip(*batches)
            )
            order = split_order(part.mesh, edges, ratios)
            edges, points, gids = (
                np.concatenate((first, cols[order]))
                for first, cols in zip(inner, (edges, points, gids))
            )
            mids = split_edges(part.mesh, edges, points=points)
            part.set_gids(0, mids, gids)
            stats.interior_splits += len(inner[0])
            stats.boundary_splits += len(order)
            splits_this_pass += len(mids)

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
            for edge in collapse_order(mesh, size, ratio):
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
