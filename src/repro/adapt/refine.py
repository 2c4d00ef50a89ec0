"""Edge-split refinement: one batched split kernel.

The primitive mesh modification operation behind isotropic refinement: an
edge is split at its (geometry-snapped) midpoint and every element adjacent
to the edge is replaced by two elements using the split templates

* triangle ``(a, b, c)`` with edge ``ab`` → ``(m, b, c)`` + ``(a, m, c)``,
* tetrahedron ``(a, b, c, d)`` with edge ``ab`` → ``(m, b, c, d)`` +
  ``(a, m, c, d)``,

(``a`` replaced by ``m``, then ``b``), which keep the mesh conforming.  The
new vertex is classified on the split edge's geometric classification and
snapped to its shape, following the curved-domain adaptation rule the
paper cites.

:func:`split_edges` is the one kernel.  It takes edges in priority order
and splits them in *rounds* — mark, resolve conflicts locally, apply in
bulk (Schornbaum & Rüde, arXiv 1704.06829).  A round splits every edge
that has the best priority among the remaining edges in each of its
elements (a local maximum on the edge–element conflict graph).  The
rounds run on the cavity's element rows only, plain int64 arrays: every
row's edges are coded ``min * base + max`` and joined against the pending
edges, and each winning edge's rows are replaced by their two children by
index arithmetic on the templates.  The mesh is written once, after the
last round (so no entity a later round would destroy is ever created):
one :func:`~repro.mesh.build.land_vertices` for every midpoint, one
:func:`~repro.mesh.build.land_rows` per dimension (probing nothing, as
every row holds a new midpoint, with downward rows joined against the
cavities' old closure), one :meth:`~repro.mesh.mesh.Mesh.classify_closure`
and one :meth:`~repro.mesh.mesh.Mesh.destroy_block` cascade per dimension;
each child inherits its original element's classification and ancestry.

The rounds leave the mesh a sequential loop over the same order leaves: a
split destroys only its own edge (and the faces through it) and moves no
existing vertex, so order matters only between edges that share an
element, and a child's edges are its parent's edges plus new ones through
the midpoint, so no conflict appears later.  So one call over ``A ++ B``
leaves what a call over ``A`` and then one over ``B`` leave.
:func:`split_order` gives the
handle-free order every caller uses — largest size ratio first, ties by
midpoint coordinates — so copies of one edge on several parts of a
distributed mesh take the same place in it.  :func:`split_edge` is the
one-edge call and :func:`refine_pass` the size-field pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..gmodel.model import ModelEntity
from ..gmodel.snap import snap_to_entity
from ..mesh.build import _joined_down, _row_codes, land_rows, land_vertices
from ..mesh.core import VERT_WIDTH, first_seen
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh
from ..mesh.topology import EDGE, type_info


def _midpoints(mesh: Mesh, edges: np.ndarray) -> np.ndarray:
    """Midpoints of the edges ``edges``, one row each."""
    ends = mesh.core.verts[1][edges, :2]
    coords = mesh.coords_view()
    return 0.5 * (coords[ends[:, 0]] + coords[ends[:, 1]])


def split_points(mesh: Mesh, edges: np.ndarray, snap: bool = True) -> np.ndarray:
    """Where splitting ``edges`` puts the new vertices: the midpoints, with
    ``snap`` projected onto each edge's model entity."""
    points = _midpoints(mesh, edges)
    if not snap or mesh.model is None:
        return points
    codes = mesh.core.gclass[1][edges]
    gents = [ModelEntity(d, t) for d, t in mesh.class_pairs().tolist()]
    for k in np.flatnonzero(codes >= 0).tolist():
        point = snap_to_entity(mesh.model, gents[codes[k]], points[k])
        points[k] = 0.0
        points[k, : len(point)] = point
    return points


def split_order(mesh: Mesh, edges: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Positions of ``edges`` by the split key ``(-ratio, midpoint x, y, z)``.

    The key depends on geometry only (distinct edges of a valid mesh have
    distinct midpoints), never on handles or allocation order.
    """
    mid = _midpoints(mesh, edges)
    return np.lexsort((mid[:, 2], mid[:, 1], mid[:, 0], -np.asarray(ratios)))


def _batch_edges(
    etypes: np.ndarray, rows: np.ndarray, codes: np.ndarray, base: int
):
    """``(row, k)`` for every template edge of the element ``rows`` that is
    batch edge ``k``; edges are coded ``min * base + max`` over their
    vertices, ``codes`` the batch's."""
    at, found = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for etype in np.unique(etypes).tolist():
        sel = np.flatnonzero(etypes == etype)
        pairs = np.asarray(type_info(etype).edges, dtype=np.int64)
        a, b = rows[sel][:, pairs[:, 0]], rows[sel][:, pairs[:, 1]]
        found.append((np.minimum(a, b) * base + np.maximum(a, b)).reshape(-1))
        at.append(np.repeat(sel, len(pairs)))
    at, found = np.concatenate(at), np.concatenate(found)
    order = np.argsort(codes)
    pos = np.minimum(np.searchsorted(codes[order], found), len(codes) - 1)
    hit = codes[order][pos] == found
    return at[hit], order[pos[hit]]


def _closure_rows(
    etypes: np.ndarray, rows: np.ndarray, d: int, fresh: np.ndarray
):
    """Distinct dim-``d`` bounding rows ``(types, padded verts)`` of the
    element rows that contain a vertex of ``fresh``, in first-occurrence
    order (the rest already exist)."""
    types, blocks = [], []
    for etype in np.unique(etypes).tolist():
        info = type_info(etype)
        group = rows[etypes == etype]
        templates = (
            [(EDGE, edge) for edge in info.edges] if d == 1 else info.faces
        )
        for ttype, locals_ in templates:
            block = np.full((len(group), VERT_WIDTH[d]), -1, dtype=np.int64)
            block[:, : len(locals_)] = group[:, list(locals_)]
            types.append(np.full(len(group), ttype, dtype=np.int16))
            blocks.append(block)
    types, block = np.concatenate(types), np.concatenate(blocks)
    new = np.isin(block, fresh).any(axis=1)
    types, block = types[new], block[new]
    first, _group = first_seen(_row_codes(np.sort(block, axis=1)))
    return types[first], block[first]


def _sorted_verts(core, d: int, ids: np.ndarray) -> np.ndarray:
    """Sorted vertex rows of dim-``d`` entities, left-padded with -1."""
    used = np.arange(VERT_WIDTH[d]) < core.nverts[d][ids][:, None]
    return np.sort(np.where(used, core.verts[d][ids], -1), axis=1)


def split_edges(
    mesh: Mesh,
    edges: Sequence[int],
    points: Optional[np.ndarray] = None,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
) -> np.ndarray:
    """Split the distinct live edges ``edges``, given in priority order.

    Rounds of local maxima on the cavity's element rows (see the module
    docstring) give the mesh the same splits one at a time in this order
    give; the mesh is written once, after the last round.  ``points[k]``
    overrides edge ``k``'s new vertex location (no snapping); otherwise it
    is the midpoint, projected onto the edge's model entity when ``snap``.
    With ``ancestry_tag``, each child element inherits its original
    element's tag value.  Returns the new vertex ids, aligned with
    ``edges``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1)
    core = mesh.core
    if not core.alive_at(1, edges).all():
        raise KeyError("split batch names a dead edge")
    if len(np.unique(edges)) != len(edges):
        raise ValueError("split batch names an edge twice")
    if not len(edges):
        return edges
    if points is None:
        points = split_points(mesh, edges, snap)
    points = np.asarray(points, dtype=float).reshape(len(edges), -1)
    dim = mesh.dim()
    cavity = edges
    for d in range(1, dim):
        cavity = core.gather_up(d, cavity)
    cavity = np.unique(cavity)
    etypes = core.etype[dim][cavity]
    nverts = core.nverts[dim][cavity]
    width = int(nverts.max(initial=1))
    rows = core.verts[dim][cavity, :width].astype(np.int64)
    rows[np.arange(width) >= nverts[:, None]] = -1
    origin = np.arange(len(cavity))

    # The rounds rewrite rows only; edge k's midpoint is labelled top + k
    # until the vertices land.
    top = int(core.top[0])
    ends = core.verts[1][edges, :2].astype(np.int64)
    base = top + len(edges)
    codes = ends.min(axis=1) * base + ends.max(axis=1)
    at, k = _batch_edges(etypes, rows, codes, base)
    bare = np.setdiff1d(np.arange(len(edges)), k)
    if len(bare):
        raise ValueError(f"{Ent(1, int(edges[bare[0]]))} bounds no elements")
    # An edge wins a round when it is the first batch edge of every row
    # that holds it; each such row is replaced, in place, by its children.
    while len(k):
        best = np.full(len(rows), len(edges))
        np.minimum.at(best, at, k)
        wins = np.zeros(len(edges) + 1, dtype=bool)
        wins[k] = True
        wins[k[best[at] != k]] = False
        cut = wins[best]
        split = best[cut]
        counts = 1 + cut
        first = (np.cumsum(counts) - counts)[cut]
        parents = rows[cut]
        rows = np.repeat(rows, counts, axis=0)
        for j in (0, 1):
            col = np.argmax(parents == ends[split, j][:, None], axis=1)
            rows[first + j, col] = top + split
        etypes, origin = np.repeat(etypes, counts), np.repeat(origin, counts)
        at, k = _batch_edges(etypes, rows, codes, base)

    mids = land_vertices(mesh, points, gclass=core.gclass[1][edges]).astype(
        np.int64
    )
    label = rows >= top
    rows[label] = mids[rows[label] - top]
    # Every row holding a midpoint is new, so nothing is probed; a row's
    # downward ids join the cavities' old closure with the rows landed
    # just before it (a child's bounding entity either holds a midpoint or
    # is one of its original element's).
    closure = {dim: cavity}
    for d in range(dim - 1, 0, -1):
        closure[d] = np.unique(core.gather_down(d + 1, closure[d + 1]))
    table = None
    for d in range(1, dim):
        types, block = _closure_rows(etypes, rows, d, mids)
        ids, _created = land_rows(
            mesh, d, types, block,
            down=_joined_down(types, block, *table) if d > 1 else None,
            probe=np.zeros(len(types), dtype=bool),
        )
        table = (
            np.concatenate((
                _sorted_verts(core, d, closure[d]), np.sort(block, axis=1)
            )),
            np.concatenate((closure[d], ids)),
        )
    child_ids, _created = land_rows(
        mesh, dim, etypes, rows,
        gclass=core.gclass[dim][cavity][origin],
        down=_joined_down(etypes, rows, *table) if dim > 1 else None,
        probe=np.zeros(len(etypes), dtype=bool),
    )
    mesh.classify_closure(dim, child_ids)
    tag = mesh.tags.find(ancestry_tag) if ancestry_tag else None
    if tag is not None:
        for parent, child in zip(cavity[origin].tolist(), child_ids.tolist()):
            value = tag.get(Ent(dim, parent))
            if value is not None:
                tag.set(Ent(dim, child), value)

    # Destroy the cavities, then whatever they alone used: the faces
    # through each split edge and the edge itself.
    dead = cavity
    for d in range(dim, 0, -1):
        lowers = np.unique(core.gather_down(d, dead))
        mesh.destroy_block(d, dead)
        dead = lowers[core.nup[d - 1][lowers] == 0]
    mesh.destroy_block(0, dead)
    return mids


def split_edge(
    mesh: Mesh,
    edge: Ent,
    point: Optional[Sequence[float]] = None,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
) -> Ent:
    """Split ``edge``; returns the new mid vertex.

    The one-edge call of :func:`split_edges`.  ``point`` overrides the
    midpoint.  With ``snap`` and a classified mesh, the new vertex is
    projected onto the edge's model entity.  When ``ancestry_tag`` names a
    tag, each child element inherits the parent element's tag value (used
    for the post-adaptation imbalance studies).
    """
    if edge.dim != 1:
        raise ValueError(f"split_edge needs an edge, got {edge}")
    if not mesh.has(edge):
        raise KeyError(f"{edge} is not a live entity")
    points = None if point is None else np.asarray(point, dtype=float)[None, :]
    mids = split_edges(
        mesh, [edge.idx], points=points, snap=snap, ancestry_tag=ancestry_tag
    )
    return Ent(0, int(mids[0]))


def refine_pass(
    mesh: Mesh,
    size,
    ratio: float = 1.5,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
    max_splits: Optional[int] = None,
) -> int:
    """Split every edge longer than ``ratio`` times its prescribed size.

    One vectorized ratio evaluation marks the edges, :func:`split_order`
    orders them (``max_splits`` keeps the first ones) and
    :func:`split_edges` splits them all: a split never changes another
    marked edge, so none needs a re-check.  Returns the number of splits.
    """
    from ..field.sizefield import edge_size_ratios

    edges = mesh.entity_ids(1).astype(np.int64)
    ratios = edge_size_ratios(mesh, size, edges)
    over = ratios > ratio
    edges = edges[over][split_order(mesh, edges[over], ratios[over])]
    if max_splits is not None:
        edges = edges[:max_splits]
    split_edges(mesh, edges, snap=snap, ancestry_tag=ancestry_tag)
    return len(edges)
