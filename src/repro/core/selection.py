"""Mesh element selection for migration (Section III-A-2 of the paper).

The rules decide *which* elements a heavy part ships to a candidate so the
target entity type's count drops without roughening the part boundary:

* **element (region) balance** — traverse the facets classified on the part
  boundary with the candidate and select adjacent elements that have more
  facets on the part boundary than on the part interior (Fig. 9): migrating
  them shrinks both the load and the boundary.
* **edge balance** (3D) — traverse part-boundary edges shared with the
  candidate that bound at most two local faces; the elements bounded by the
  edge form a small cavity whose migration removes the edge from this part
  with minimal side effects (Fig. 10a); edges bounding three or more faces
  are skipped because migrating their larger cavity would grow the boundary
  (Fig. 10b).
* **vertex balance** — Zhou's rule: part-boundary vertices shared with the
  candidate whose local element cavity is small (at most ``max_cavity``)
  are selected with their cavity, removing the vertex from this part.

Facet balance uses the element rule (facet counts track element counts
through the same boundary-shape mechanism), gated by the facet quota.
"""

from __future__ import annotations

from typing import List, Set

from ..mesh.entity import Ent
from ..partition.part import Part


def linked_to(part: Part, dim: int, pid: int) -> List[Ent]:
    """The entities of ``dim`` part ``pid`` holds a copy of, in id order."""
    ids, pids, _rids = part.links(dim)
    return [Ent(dim, idx) for idx in ids[pids == pid].tolist()]


def boundary_facet_count(part: Part, element: Ent) -> int:
    """Facets of ``element`` on any part boundary."""
    return sum(
        1 for facet in part.mesh.down(element) if part.is_shared(facet)
    )


def select_elements_by_boundary_rule(
    part: Part,
    candidate: int,
    quota: int,
    already: Set[Ent],
) -> List[Ent]:
    """Fig. 9 rule: elements with more boundary facets than interior ones.

    Selection is tiered: the strict rule (boundary > interior facets, which
    smooths the part boundary) runs first; if the quota is unmet — a flat
    boundary has no such elements — any element touching the candidate
    through a facet qualifies, so diffusion always makes progress.
    """
    mesh = part.mesh
    dim = mesh.dim()
    picks: List[Ent] = []

    def scan(strict: bool) -> None:
        for facet in linked_to(part, dim - 1, candidate):
            if len(picks) >= quota:
                return
            for element in mesh.up(facet):
                if element in already or part.is_ghost(element):
                    continue
                if strict:
                    nfacets = len(mesh.down(element))
                    boundary = boundary_facet_count(part, element)
                    if boundary <= nfacets - boundary:
                        continue
                picks.append(element)
                already.add(element)
                if len(picks) >= quota:
                    return

    scan(strict=True)
    if len(picks) < quota:
        scan(strict=False)
    return picks


def _greedy_cavities(
    part: Part,
    quota: int,
    already: Set[Ent],
    keyed_cavities,
) -> List[Ent]:
    """Take cavities smallest-key first until ``quota`` keys are removed.

    ``keyed_cavities`` yields ``(sort_key, cavity_elements)``; cavities
    overlapping an earlier selection are skipped whole (a cavity only
    removes its key entity if it leaves together).
    """
    picks: List[Ent] = []
    removed = 0
    for _key, cavity in sorted(keyed_cavities, key=lambda kc: kc[0]):
        if removed >= quota:
            break
        if not cavity or any(e in already for e in cavity):
            continue
        picks.extend(cavity)
        already.update(cavity)
        removed += 1
    return picks


def select_edge_cavities(
    part: Part,
    candidate: int,
    quota: int,
    already: Set[Ent],
) -> List[Ent]:
    """Fig. 10 rule: cavities of part-boundary edges, fewest-local-faces first.

    Edges bounding two local faces cost one region and no boundary growth
    (Fig. 10a); each additional face makes the cavity's migration roughen
    the boundary more (Fig. 10b), so edges are taken in increasing order of
    local face count — the strict <=2 preference with a graded fallback that
    keeps diffusion from stalling on smooth boundaries.
    """
    mesh = part.mesh
    dim = mesh.dim()
    if dim < 3:
        # In 2D edges are facets; the boundary rule covers them.
        return select_elements_by_boundary_rule(part, candidate, quota, already)

    def cavities():
        for edge in linked_to(part, 1, candidate):
            local_faces = sum(
                1 for f in mesh.up(edge) if not part.is_ghost(f)
            )
            cavity = [
                r for r in mesh.adjacent(edge, dim) if not part.is_ghost(r)
            ]
            yield (local_faces, edge), cavity

    return _greedy_cavities(part, quota, already, cavities())


def select_vertex_cavities(
    part: Part,
    candidate: int,
    quota: int,
    already: Set[Ent],
) -> List[Ent]:
    """Zhou's rule: element cavities around boundary vertices, smallest first.

    Migrating a vertex's whole local cavity removes the vertex from this
    part; taking the smallest cavities first sheds the most vertices per
    migrated element (the "small number of mesh elements" the paper's
    Section III-A-1 prescribes).
    """
    mesh = part.mesh
    dim = mesh.dim()

    def cavities():
        for vert in linked_to(part, 0, candidate):
            cavity = [
                e for e in mesh.adjacent(vert, dim) if not part.is_ghost(e)
            ]
            yield (len(cavity), vert), cavity

    return _greedy_cavities(part, quota, already, cavities())


def select_for_dimension(
    part: Part,
    candidate: int,
    dim: int,
    quota: int,
    already: Set[Ent],
) -> List[Ent]:
    """Dispatch to the selection rule for the entity dimension balanced."""
    mesh_dim = part.mesh.dim()
    if quota <= 0:
        return []
    if dim >= mesh_dim - 1:
        return select_elements_by_boundary_rule(part, candidate, quota, already)
    if dim == 1:
        return select_edge_cavities(part, candidate, quota, already)
    if dim == 0:
        return select_vertex_cavities(part, candidate, quota, already)
    raise ValueError(
        f"no selection rule for dim {dim} in a {mesh_dim}D mesh"
    )
