"""The bulk landing/destroy kernels against the incremental facade.

``land_vertices``/``land_rows`` and ``Mesh.destroy_block`` must leave a mesh
*exactly* as the equivalent ``create_vertex``/``create``/``destroy`` sequence
does — same handles (free-list slots first, LIFO), same core arrays, same
lookup tables — on an empty mesh, next to entities that already exist, and
over free-list holes.
"""

import numpy as np
import pytest

from repro.gmodel.model import ModelEntity
from repro.mesh import PRISM, TET, Ent, Mesh, box_tet, rect_tri, verify
from repro.mesh.build import land_rows, land_vertices


def mixed_prism_tet():
    """Two prisms sharing a quad face, a tet capping one of them."""
    mesh = Mesh()
    pts = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
        (1, 1, 0), (1, 1, 1), (0.3, 0.3, 2),
    ]
    v = [mesh.create_vertex(p) for p in pts]
    mesh.create(PRISM, [v[i] for i in (0, 1, 2, 3, 4, 5)])
    mesh.create(PRISM, [v[i] for i in (1, 6, 2, 4, 7, 5)])
    mesh.create(TET, [v[i] for i in (3, 4, 5, 8)])
    return mesh


SOURCES = {
    "tri": lambda: rect_tri(3),
    "tet": lambda: box_tet(2),
    "mixed": mixed_prism_tet,
}


def closure_rows(src, elements):
    """Explicit closure rows of ``elements``: the vertex ids used, and per
    dimension ``(etypes, padded source-vertex rows)`` in id order."""
    dim = src.dim()
    core = src.core
    ids = {dim: sorted(elements)}
    for d in range(dim - 1, -1, -1):
        ids[d] = sorted({
            sub.idx for e in elements for sub in src.adjacent(Ent(dim, e), d)
        })
    rows = {}
    for d in range(1, dim + 1):
        sel = np.asarray(ids[d], dtype=np.int64)
        vrows = core.verts[d][sel].astype(np.int64)
        # Core rows carry stale values beyond nverts: mark the padding.
        vrows[np.arange(vrows.shape[1]) >= core.nverts[d][sel][:, None]] = -1
        rows[d] = (core.etype[d][sel].copy(), vrows)
    return ids[0], rows


class Target:
    """One mesh under construction plus its source-vertex -> local-id map."""

    def __init__(self, bulk):
        self.mesh = Mesh()
        self.bulk = bulk
        self.local = {}

    def land(self, src, verts, rows, classes):
        fresh = [v for v in verts if v not in self.local]
        vclasses = [classes[0][verts.index(v)] for v in fresh]
        coords = np.asarray(
            [src.coords(Ent(0, v)) for v in fresh], dtype=float
        ).reshape(-1, 3)
        if self.bulk:
            self._land_bulk(fresh, coords, vclasses, rows, classes)
        else:
            self._land_incremental(fresh, coords, vclasses, rows, classes)

    def _land_incremental(self, fresh, coords, vclasses, rows, classes):
        mesh = self.mesh
        for v, xyz, gent in zip(fresh, coords, vclasses):
            self.local[v] = mesh.create_vertex(xyz, gent).idx
        for d in sorted(rows):
            etypes, vrows = rows[d]
            for etype, row, gent in zip(
                etypes.tolist(), vrows.tolist(), classes[d]
            ):
                handles = [Ent(0, self.local[v]) for v in row if v >= 0]
                # Classification applies to entities this row creates.
                if mesh.find(d, handles) is not None:
                    gent = None
                mesh.create(etype, handles, gent)

    def _land_bulk(self, fresh, coords, vclasses, rows, classes):
        def codes(per):
            return self.mesh.class_codes(
                [(g.dim, g.tag) if g else (-1, -1) for g in per]
            )

        ids = land_vertices(self.mesh, coords, codes(vclasses))
        self.local.update(zip(fresh, ids.tolist()))
        for d in sorted(rows):
            etypes, vrows = rows[d]
            local = np.vectorize(lambda v: self.local.get(v, 0))(vrows)
            land_rows(self.mesh, d, etypes, local, codes(classes[d]))


def snapshot(mesh):
    """Everything the two paths must agree on, as plain Python."""
    core = mesh.core
    out = {"top": list(core.top), "n_alive": list(core.n_alive),
           "free": [list(f) for f in core.free]}
    for d in range(4):
        top = core.top[d]
        alive = core.alive[d][:top]
        out[f"alive{d}"] = alive.tolist()
        live = np.nonzero(alive)[0].tolist()
        out[f"etype{d}"] = core.etype[d][live].tolist()
        out[f"rows{d}"] = [
            (core.verts_row(d, i), core.down_row(d, i), core.up_row(d, i))
            for i in live
        ]
        out[f"class{d}"] = [
            (i, mesh.classification(Ent(d, i)))
            for i in np.flatnonzero(core.gclass[d] >= 0).tolist()
        ]
    out["coords"] = mesh.coords_view()[: core.top[0]][
        core.alive[0][: core.top[0]]
    ].tolist()
    return out


def halves(src):
    elements = src.entity_ids(src.dim()).tolist()
    cut = max(1, len(elements) // 2)
    return [elements[:cut], elements[cut:]]


def land_both(kind, batches, prepare=None):
    """Land ``batches(src)`` element sets both ways; returns both meshes."""
    src = SOURCES[kind]()
    targets = (Target(bulk=False), Target(bulk=True))
    for target in targets:
        if prepare:
            prepare(target.mesh)
    for elements in batches(src):
        verts, rows = closure_rows(src, elements)
        classes = {0: [ModelEntity(3, 1 + v % 2) for v in verts]}
        for d, (etypes, _vrows) in rows.items():
            classes[d] = [
                ModelEntity(3, 1 + k % 3) if k % 4 else None
                for k in range(len(etypes))
            ]
        for target in targets:
            target.land(src, verts, rows, classes)
    incremental, bulk = (target.mesh for target in targets)
    # (Triangles landed beside the hole-punching tet dangle by design.)
    verify(bulk, allow_dangling=True, check_classification=False)
    return incremental, bulk


def punch_holes(mesh):
    """Leave free-list holes in every dimension before anything lands."""
    v = [mesh.create_vertex((10.0 + i, 10.0, 10.0 * (i % 2))) for i in range(7)]
    keep = mesh.create(TET, [v[0], v[1], v[2], v[3]])
    gone = [
        mesh.create(TET, [v[1], v[2], v[3], v[4]]),
        mesh.create(TET, [v[2], v[3], v[4], v[5]]),
        mesh.create(TET, [v[3], v[4], v[5], v[6]]),
    ]
    for element in gone:
        mesh.destroy(element, cascade=True)
    assert mesh.has(keep) and all(mesh.core.free[d] for d in range(4))


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_landing_on_empty_mesh_matches_incremental(kind):
    incremental, bulk = land_both(
        kind, lambda src: [src.entity_ids(src.dim()).tolist()]
    )
    assert snapshot(bulk) == snapshot(incremental)


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_landing_next_to_existing_boundary_matches_incremental(kind):
    incremental, bulk = land_both(kind, halves)
    assert snapshot(bulk) == snapshot(incremental)


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_landing_over_free_list_holes_matches_incremental(kind):
    incremental, bulk = land_both(kind, halves, prepare=punch_holes)
    assert snapshot(bulk) == snapshot(incremental)
    # The holes were consumed before the arrays grew (triangles land no
    # regions, so the region holes stay).
    landed_dims = range(3) if kind == "tri" else range(4)
    assert not any(bulk.core.free[d] for d in landed_dims)


def test_landing_rejects_rows_with_missing_boundary():
    mesh = Mesh()
    ids = land_vertices(mesh, np.eye(3))
    with pytest.raises(ValueError, match="bounding entity is missing"):
        land_rows(mesh, 2, np.asarray([2]), ids.reshape(1, 3))


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_destroy_block_matches_destroy_loop(kind):
    meshes = (SOURCES[kind](), SOURCES[kind]())
    dim = meshes[0].dim()
    victims = meshes[0].entity_ids(dim)[::2]
    # Sweep the victims, then every lower entity left bounding nothing —
    # descending ids so the free-lists get a non-trivial order.
    for mesh, bulk in zip(meshes, (False, True)):
        todo = victims
        for d in range(dim, -1, -1):
            if bulk:
                mesh.destroy_block(d, todo)
            else:
                for idx in todo.tolist():
                    mesh.destroy(Ent(d, idx))
            if d:
                below = mesh.entity_ids(d - 1)
                todo = below[mesh.core.nup[d - 1][below] == 0][::-1]
    assert snapshot(meshes[1]) == snapshot(meshes[0])
    verify(meshes[1], check_classification=False)


def test_destroy_block_refuses_entities_still_in_use():
    mesh = rect_tri(2)
    with pytest.raises(ValueError, match="still bound"):
        mesh.destroy_block(1, mesh.entity_ids(1)[:2])
    with pytest.raises(KeyError):
        mesh.destroy_block(2, np.asarray([10_000]))


def test_destroy_block_notifies_listeners_once_per_batch():
    mesh = rect_tri(2)
    calls = []

    class Listener:
        def on_destroy(self, dim, ids):
            calls.append((dim, ids.tolist()))

    listener = Listener()
    mesh.add_destroy_listener(listener.on_destroy)
    victims = mesh.entity_ids(2)[:3]
    mesh.destroy_block(2, victims)
    mesh.destroy(Ent(2, int(mesh.entity_ids(2)[0])))
    assert calls[0] == (2, victims.tolist())
    assert len(calls) == 2 and len(calls[1][1]) == 1
