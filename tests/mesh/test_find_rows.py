"""``MeshCore.find_rows`` / ``Mesh.find`` against a brute-force scan.

The adjacency walk is the one way to find the entity on a set of vertices,
so it is checked here against the definition: scan every live entity of the
dimension and compare sorted vertex lists.  Each case takes a tri, quad,
tet, prism, pyramid or hex mesh, destroys random elements (with their
orphaned closure) and re-creates some of them, so freed handles are reused,
then asks for every live entity's own row (shuffled, padded with -1), rows
of destroyed entities, random vertex sets that share no entity, and rows
naming a dead vertex.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mesh import (
    PYRAMID, Ent, Mesh, box_hex, box_tet, rect_quad, rect_tri,
)
from repro.mesh.core import VERT_WIDTH
from repro.mesh.generate import extrude_to_prisms
from repro.mesh.topology import type_info


def pyramid_mesh() -> Mesh:
    """Each hex of a 2x1x1 box split into six pyramids about its centre."""
    hexes = box_hex(2, 1, 1, classify=False)
    mesh = Mesh()
    coords = hexes.coords_view()
    verts = [mesh.create_vertex(x) for x in coords[: hexes.count(0)]]
    info = type_info(hexes.core.etype[3][0])
    for cell in hexes.entity_ids(3).tolist():
        corners = hexes.core.verts_row(3, cell)
        centre = mesh.create_vertex(coords[list(corners)].mean(axis=0))
        for _ftype, locals_ in info.faces:
            base = [verts[corners[i]] for i in locals_]
            mesh.create(PYRAMID, base + [centre])
    return mesh


MESHES = {
    "tri": lambda: rect_tri(3),
    "quad": lambda: rect_quad(3),
    "tet": lambda: box_tet(2),
    "prism": lambda: extrude_to_prisms(rect_tri(2), layers=2),
    "pyramid": pyramid_mesh,
    "hex": lambda: box_hex(2),
}


def scan(mesh: Mesh, dim: int, row) -> int:
    """The definition: the live entity whose sorted vertices are the row's."""
    want = sorted(v for v in row if v >= 0)
    for idx in mesh.entity_ids(dim).tolist():
        if sorted(mesh.core.verts_row(dim, idx)) == want:
            return idx
    return -1


def churn(mesh: Mesh, rng) -> list:
    """Destroy random elements and re-create some; returns the vertex rows
    of the elements left destroyed."""
    dim = mesh.dim()
    elements = mesh.entity_ids(dim).tolist()
    dropped = rng.choice(elements, size=len(elements) // 3, replace=False)
    saved = [(mesh.etype(Ent(dim, e)), mesh.verts_of(Ent(dim, e)))
             for e in dropped.tolist()]
    for e in dropped.tolist():
        mesh.destroy(Ent(dim, e), cascade=True)
    gone = []
    for k in rng.permutation(len(saved)).tolist():
        etype, verts = saved[k]
        if rng.random() < 0.5 and all(mesh.has(v) for v in verts):
            mesh.create(etype, verts)
        else:
            gone.append([v.idx for v in verts])
    return gone


def padded(rows, width, rng):
    """Rows shuffled within and padded with -1 (at random places) to width."""
    out = np.full((len(rows), width), -1, dtype=np.int64)
    for k, row in enumerate(rows):
        cols = rng.choice(width, size=len(row), replace=False)
        out[k, cols] = rng.permutation(row)
    return out


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(MESHES)), seed=st.integers(0, 2**32 - 1))
def test_find_rows_matches_a_scan_of_live_entities(kind, seed):
    rng = np.random.default_rng(seed)
    mesh = MESHES[kind]()
    gone = churn(mesh, rng)
    core = mesh.core
    live = mesh.entity_ids(0)
    dead = np.setdiff1d(np.arange(core.top[0]), live)
    for dim in range(1, mesh.dim() + 1):
        width = VERT_WIDTH[dim]
        rows = [
            list(core.verts_row(dim, i)) for i in mesh.entity_ids(dim).tolist()
        ]
        rows += [row for row in gone if len(row) <= width]
        for _ in range(20):  # random vertex sets: most bound nothing
            size = int(rng.integers(2, width + 1))
            size = min(size, len(live))
            rows.append(rng.choice(live, size=size, replace=False).tolist())
        if len(dead) and rows:
            row = list(rows[0])
            row[0] = int(rng.choice(dead))
            rows.append(row)
        block = padded(rows, width, rng)
        found = core.find_rows(dim, block)
        assert found.tolist() == [scan(mesh, dim, row) for row in rows]
        for row, idx in zip(rows, found.tolist()):
            if all(mesh.has(Ent(0, v)) for v in row):
                ent = mesh.find(dim, [Ent(0, v) for v in row])
                assert (ent.idx if ent is not None else -1) == idx


def test_find_rows_takes_any_order_and_padding():
    mesh = box_tet(1)
    core = mesh.core
    tets = core.verts_matrix(3, mesh.entity_ids(3))
    padded_rows = np.pad(tets, ((0, 0), (2, 1)), constant_values=-1)
    for rows in (tets, tets[:, ::-1], padded_rows):
        assert core.find_rows(3, rows).tolist() == mesh.entity_ids(3).tolist()
    # A face's row asked at dim 3, a tet's row plus a stranger, no rows.
    assert (core.find_rows(3, tets[:, :3]) == -1).all()
    stranger = np.setdiff1d(mesh.entity_ids(0), tets[0])[:1]
    assert core.find_rows(3, [np.append(tets[0], stranger)]).tolist() == [-1]
    assert core.find_rows(2, np.empty((0, 3), dtype=np.int64)).tolist() == []
