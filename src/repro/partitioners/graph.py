"""Graph and hypergraph extraction from meshes.

The graph/hypergraph-based partitioners the paper compares against (Zoltan
PHG) operate on the element connectivity of the mesh:

* the **dual graph** has one node per element and an edge between elements
  sharing a facet (dimension ``d-1`` entity) — the classic METIS/Chaco input;
* the **element hypergraph** has one node per element and one hyperedge per
  mesh vertex, containing the elements adjacent to that vertex — the Zoltan
  PHG input, whose connectivity metric models communication volume better.

Both are returned in CSR-like NumPy form for speed, with helpers to compute
cut metrics for a given assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh


@dataclass
class ElementGraph:
    """CSR dual graph over a mesh's top-dimension elements.

    ``elements[i]`` is the mesh entity of node ``i``; ``xadj``/``adjncy``
    is the CSR adjacency; ``weights`` the node (element) weights.
    """

    elements: List[Ent]
    xadj: np.ndarray
    adjncy: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.elements)

    def neighbors(self, i: int) -> np.ndarray:
        return self.adjncy[self.xadj[i]: self.xadj[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.xadj[i + 1] - self.xadj[i])

    def edge_cut(self, assignment: np.ndarray) -> int:
        """Number of graph edges crossing parts under ``assignment``."""
        src = np.repeat(np.arange(self.n), np.diff(self.xadj))
        return int((assignment[src] != assignment[self.adjncy]).sum()) // 2


@dataclass
class ElementHypergraph:
    """Element hypergraph: one hyperedge (pin list) per mesh vertex."""

    elements: List[Ent]
    #: CSR over hyperedges: pins[eptr[j]:eptr[j+1]] are the elements of
    #: hyperedge j.
    eptr: np.ndarray
    pins: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def nedges(self) -> int:
        return len(self.eptr) - 1

    def connectivity_cost(self, assignment: np.ndarray) -> int:
        """The (lambda - 1) connectivity metric Zoltan PHG minimizes."""
        assignment = np.asarray(assignment, dtype=np.int64)
        nparts = int(assignment.max()) + 1 if len(assignment) else 1
        edge = np.repeat(np.arange(self.nedges), np.diff(self.eptr))
        pairs = np.unique(edge * nparts + assignment[self.pins])
        return len(pairs) - self.nedges


def dual_graph(
    mesh: Mesh,
    weights: Optional[np.ndarray] = None,
) -> ElementGraph:
    """Facet-dual graph of the mesh's top-dimension elements.

    Built directly from the core SoA arrays: interior facets are the live
    ``dim-1`` entities with exactly two upward users (``core.nup``), and
    both directed edges of each such facet are emitted in facet-id order,
    then stably bucketed by source element — bit-identical CSR to the old
    per-entity facade walk, without any per-facet Python dispatch.
    """
    dim = mesh.dim()
    if dim < 1:
        raise ValueError("mesh has no elements")
    elements = list(mesh.entities(dim))
    core = mesh.core
    eids = core.live_ids(dim)
    nelem = len(eids)
    index = np.full(int(eids.max()) + 1 if nelem else 1, -1, dtype=np.int64)
    index[eids] = np.arange(nelem, dtype=np.int64)

    fids = core.live_ids(dim - 1)
    interior = fids[core.nup[dim - 1][fids] == 2]
    ups = index[core.up[dim - 1][interior, :2].astype(np.int64)]
    # Interleave (a->b, b->a) in facet order so a stable sort by source
    # reproduces each element's legacy facet-ordered neighbor list.
    m = len(interior)
    src = np.empty(2 * m, dtype=np.int64)
    dst = np.empty(2 * m, dtype=np.int64)
    src[0::2], dst[0::2] = ups[:, 0], ups[:, 1]
    src[1::2], dst[1::2] = ups[:, 1], ups[:, 0]
    order = np.argsort(src, kind="stable")
    adjncy = dst[order]
    degrees = np.bincount(src, minlength=nelem).astype(np.int64)
    xadj = np.zeros(nelem + 1, dtype=np.int64)
    np.cumsum(degrees, out=xadj[1:])

    if weights is None:
        weights = np.ones(nelem, dtype=np.int64)
    else:
        weights = np.asarray(weights)
        if weights.shape != (nelem,):
            raise ValueError("weights must have one entry per element")
    return ElementGraph(elements, xadj, adjncy, weights)


def element_hypergraph(
    mesh: Mesh,
    weights: Optional[np.ndarray] = None,
) -> ElementHypergraph:
    """Vertex hyperedges over the mesh's top-dimension elements."""
    dim = mesh.dim()
    if dim < 1:
        raise ValueError("mesh has no elements")
    elements = list(mesh.entities(dim))
    core = mesh.core
    eids = core.live_ids(dim)
    nelem = len(eids)

    # Invert the element->vertex SoA rows: a stable sort of the flattened
    # (vertex, element) incidence by vertex groups pins per hyperedge with
    # elements ascending inside each — one vectorized pass instead of an
    # upward adjacency walk per mesh vertex.
    nv = core.nverts[dim][eids].astype(np.int64)
    flat_verts = core.gather_verts(dim, eids).astype(np.int64)
    flat_elems = np.repeat(np.arange(nelem, dtype=np.int64), nv)
    order = np.argsort(flat_verts, kind="stable")
    sorted_verts = flat_verts[order]
    pins = flat_elems[order]
    # Hyperedge boundaries: positions where the owning vertex changes.
    # Vertices with no element (none in practice) simply emit no edge,
    # matching the old walk's skip of empty adjacencies.
    counts = np.bincount(sorted_verts)
    counts = counts[counts > 0]
    eptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=eptr[1:])

    if weights is None:
        weights = np.ones(nelem, dtype=np.int64)
    else:
        weights = np.asarray(weights)
        if weights.shape != (nelem,):
            raise ValueError("weights must have one entry per element")
    return ElementHypergraph(elements, eptr, pins, weights)


def element_centroids(mesh: Mesh) -> Tuple[List[Ent], np.ndarray]:
    """Elements (id order) and their centroid coordinates, vectorized."""
    dim = mesh.dim()
    elements = list(mesh.entities(dim))
    core = mesh.core
    eids = core.live_ids(dim)
    nv = core.nverts[dim][eids].astype(np.int64)
    corner_coords = mesh.coords_view()[core.gather_verts(dim, eids)]
    indptr = np.zeros(len(eids) + 1, dtype=np.int64)
    np.cumsum(nv, out=indptr[1:])
    sums = np.add.reduceat(corner_coords, indptr[:-1], axis=0)
    centroids = sums / nv[:, None]
    return elements, centroids
