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
elements (a local maximum on the edge–element conflict graph) and applies
all of them at once: children by index arithmetic on the templates, one
:func:`~repro.mesh.build.land_vertices`, one
:func:`~repro.mesh.build.land_rows` per dimension (probing nothing, as
every row holds a new midpoint, with downward rows joined against the
cavities' old closure), one
:meth:`~repro.mesh.mesh.Mesh.classify_closure` and one
:meth:`~repro.mesh.mesh.Mesh.destroy_block` per dimension.

The rounds leave the mesh a sequential loop over the same order leaves: a
split destroys only its own edge (and the faces through it) and moves no
existing vertex, so order matters only between edges that share an
element, and a child's edges are its parent's edges plus new ones through
the midpoint, so no conflict appears later.  :func:`split_order` gives the
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


def _cavities(mesh: Mesh, dim: int, edges: np.ndarray):
    """``(k, elements)``: one row per (edge ``edges[k]``, adjacent element)
    pair, ascending by ``k`` then element id."""
    core = mesh.core
    k = np.arange(len(edges), dtype=np.int64)
    ids = edges
    for d in range(1, dim):
        k = np.repeat(k, core.nup[d][ids])
        ids = core.gather_up(d, ids)
    top = np.int64(core.top[dim])
    pairs = np.unique(k * top + ids)
    k, elements = pairs // top, pairs % top
    bare = np.setdiff1d(np.arange(len(edges)), k)
    if len(bare):
        raise ValueError(f"{Ent(1, int(edges[bare[0]]))} bounds no elements")
    return k, elements


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


def _split_round(
    mesh: Mesh,
    dim: int,
    edges: np.ndarray,
    k: np.ndarray,
    elements: np.ndarray,
    points: np.ndarray,
    ancestry_tag: Optional[str],
) -> np.ndarray:
    """Split ``edges`` (cavities disjoint) at ``points``; returns the new
    vertex ids."""
    core = mesh.core
    ends = core.verts[1][edges, :2].astype(np.int64)
    mids = land_vertices(mesh, points, gclass=core.gclass[1][edges]).astype(
        np.int64
    )

    etypes = core.etype[dim][elements]
    nverts = core.nverts[dim][elements]
    width = int(nverts.max())
    rows = core.verts[dim][elements, :width].astype(np.int64)
    rows[np.arange(width) >= nverts[:, None]] = -1
    children = np.repeat(rows, 2, axis=0)
    at = np.arange(len(rows)) * 2
    for j, end in enumerate((ends[k, 0], ends[k, 1])):
        children[at + j, np.argmax(rows == end[:, None], axis=1)] = mids[k]
    ctypes = np.repeat(etypes, 2)

    # Every row holding a midpoint is new, so nothing is probed; a row's
    # downward ids join the cavities' old closure with the rows landed just
    # before it (a child's bounding entity either holds its midpoint or is
    # one of its parent's).
    closure = {dim: elements}
    for d in range(dim - 1, 0, -1):
        closure[d] = np.unique(core.gather_down(d + 1, closure[d + 1]))
    table = None
    for d in range(1, dim):
        types, block = _closure_rows(ctypes, children, d, mids)
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
        mesh, dim, ctypes, children,
        gclass=np.repeat(core.gclass[dim][elements], 2),
        down=_joined_down(ctypes, children, *table) if dim > 1 else None,
        probe=np.zeros(len(ctypes), dtype=bool),
    )
    mesh.classify_closure(dim, child_ids)
    tag = mesh.tags.find(ancestry_tag) if ancestry_tag else None
    if tag is not None:
        parents = np.repeat(elements, 2).tolist()
        for parent, child in zip(parents, child_ids.tolist()):
            value = tag.get(Ent(dim, parent))
            if value is not None:
                tag.set(Ent(dim, child), value)

    # Destroy the cavities, then whatever they alone used: the faces
    # through each split edge and the edge itself.
    dead = elements
    for d in range(dim, 0, -1):
        lowers = np.unique(core.gather_down(d, dead))
        mesh.destroy_block(d, dead)
        dead = lowers[core.nup[d - 1][lowers] == 0]
    mesh.destroy_block(0, dead)
    return mids


def split_edges(
    mesh: Mesh,
    edges: Sequence[int],
    points: Optional[np.ndarray] = None,
    snap: bool = True,
    ancestry_tag: Optional[str] = None,
) -> np.ndarray:
    """Split the distinct live edges ``edges``, given in priority order.

    Rounds of local maxima (see the module docstring) give the mesh the
    same splits one at a time in this order give.  ``points[k]`` overrides
    edge ``k``'s new vertex location (no snapping); otherwise it is the
    midpoint, projected onto the edge's model entity when ``snap``.  With
    ``ancestry_tag``, each child element inherits its parent's tag value.
    Returns the new vertex ids, aligned with ``edges``.
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
    mids = np.empty(len(edges), dtype=np.int64)
    todo = np.arange(len(edges))
    while len(todo):
        k, elements = _cavities(mesh, dim, edges[todo])
        best = np.full(core.top[dim], len(todo))
        np.minimum.at(best, elements, k)
        wins = np.ones(len(todo), dtype=bool)
        wins[k[best[elements] != k]] = False
        # Renumber the winners' cavity rows to the round's own edge order.
        local = np.cumsum(wins) - 1
        rows = wins[k]
        now = todo[wins]
        mids[now] = _split_round(
            mesh, dim, edges[now], local[k[rows]], elements[rows],
            points[now], ancestry_tag,
        )
        todo = todo[~wins]
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
