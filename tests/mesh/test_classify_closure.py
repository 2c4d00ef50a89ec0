"""Classification is a column, derived in batches by one closure classifier.

``Mesh.classify_closure`` runs the closure rule once per distinct row of
vertex classifications; :func:`classify_from_closure`, applied entity by
entity, is its oracle.  Every mesh kind is checked right after
classification and again after a modification pass (refine/coarsen/swap on
simplices; drop and re-create a batch of elements everywhere).
"""

import numpy as np
import pytest

from repro.adapt import adapt, swap_pass
from repro.adapt.coarsen import coarsen_pass, collapse_edge
from repro.field import UniformSize
from repro.gmodel import box_model, classify_from_closure
from repro.gmodel.cylinder import cylinder_model
from repro.mesh import (
    TET,
    TRI,
    Ent,
    Mesh,
    box_hex,
    box_tet,
    rect_quad,
    rect_tri,
    verify,
)
from repro.mesh.build import land_rows
from repro.mesh.generate import extrude_to_prisms
from repro.mesh.reorder import compact


def mixed_prisms():
    """Prisms over a triangulated square, classified against the unit box."""
    mesh = extrude_to_prisms(rect_tri(2, classify=False), layers=2)
    mesh.classify_against(box_model())
    return mesh


def cylinder_tets(n=8, layers=2):
    """Tets of a fan of prisms around the axis of the unit cylinder.

    Each prism ``(a, b, c | a', b', c')`` has its centre vertex ``a`` as
    the lowest index, so its quads take their diagonals from their
    lowest-index vertex and the split conforms.  Every tet holds a centre
    vertex: none lies wholly on the curved wall.
    """
    mesh = Mesh()
    rings = []
    for level in range(layers + 1):
        z = level / layers
        ring = [mesh.create_vertex([0.0, 0.0, z])]
        for k in range(n):
            t = 2 * np.pi * k / n
            ring.append(mesh.create_vertex([np.cos(t), np.sin(t), z]))
        rings.append(ring)
    for lo, hi in zip(rings, rings[1:]):
        for k in range(1, n + 1):
            m = k % n + 1
            a, b, c, a2, b2, c2 = lo[0], lo[k], lo[m], hi[0], hi[k], hi[m]
            if min(b.idx, c2.idx) < min(b2.idx, c.idx):
                tets = [(a, b, c, c2), (a, b, c2, b2), (a, a2, b2, c2)]
            else:
                tets = [(a, b, c, b2), (a, c, c2, b2), (a, a2, b2, c2)]
            for tet in tets:
                p = [mesh.coords(v) for v in tet]
                if np.linalg.det(np.stack([p[1] - p[0], p[2] - p[0],
                                           p[3] - p[0]])) < 0:
                    tet = (tet[1], tet[0], tet[2], tet[3])
                mesh.create(TET, list(tet))
    mesh.classify_against(cylinder_model())
    return mesh


MESHES = {
    "rect_tri": lambda: rect_tri(4),
    "rect_quad": lambda: rect_quad(3),
    "box_tet": lambda: box_tet(2),
    "box_hex": lambda: box_hex(2),
    "mixed": mixed_prisms,
    "cylinder": cylinder_tets,
}
SIMPLICES = ("rect_tri", "box_tet", "cylinder")


def assert_closure_rule(mesh):
    """Every entity is classified, the vertices as set and the rest exactly
    as the closure rule says."""
    model = mesh.model
    for v in mesh.entities(0):
        assert mesh.classification(v) is not None, v
    for d in range(1, mesh.dim() + 1):
        for ent in mesh.entities(d):
            gents = [mesh.classification(v) for v in mesh.verts_of(ent)]
            assert mesh.classification(ent) == classify_from_closure(
                model, gents
            ), ent


def recreate_batch(mesh, count):
    """Destroy ``count`` elements and the edges/faces they leave orphaned,
    re-create them unclassified and classify the batch in one call."""
    dim = mesh.dim()
    doomed = mesh.entity_ids(dim)[::3][:count].tolist()
    rows = [
        (mesh.etype(Ent(dim, e)), mesh.verts_of(Ent(dim, e))) for e in doomed
    ]
    for e in doomed:
        mesh.destroy(Ent(dim, e))
    for d in range(dim - 1, 0, -1):
        ids = mesh.entity_ids(d)
        mesh.destroy_block(d, ids[mesh.core.nup[d][ids] == 0])
    created = [mesh.create(etype, verts).idx for etype, verts in rows]
    assert all(mesh.classification(Ent(dim, e)) is None for e in created)
    mesh.classify_closure(dim, created)
    return created


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_classification_matches_closure_rule(kind):
    mesh = MESHES[kind]()
    assert_closure_rule(mesh)
    recreate_batch(mesh, 4)
    assert_closure_rule(mesh)
    compacted, _elements, _verts = compact(mesh)
    assert_closure_rule(compacted)


@pytest.mark.parametrize("kind", SIMPLICES)
def test_classification_survives_adaptation(kind):
    mesh = MESHES[kind]()
    h = 0.15 if mesh.dim() == 2 else 0.4
    stats = adapt(mesh, UniformSize(h), max_passes=2)
    assert stats.splits > 0
    verify(mesh)
    assert_closure_rule(mesh)
    # A hard coarsening.  On the cylinder it tries to slide disk-centre
    # vertices onto the rim, which ``can_collapse_classification`` allows;
    # the collapse must be rejected before it leaves rim-only faces that no
    # closure rule can classify.
    stats = adapt(mesh, UniformSize(4 * h), max_passes=1)
    assert stats.collapses > 0
    verify(mesh)
    assert_closure_rule(mesh)


def test_unclassifiable_collapse_is_rejected_whole():
    """Sliding the bottom-centre vertex onto a rim vertex would put the
    rebuilt faces on the rim edge: the collapse is refused, mesh intact."""
    mesh = cylinder_tets()
    centre, rim = Ent(0, 0), Ent(0, 1)
    assert mesh.classification(centre).dim == 2
    assert mesh.classification(rim).dim == 0
    edge = mesh.find(1, [centre, rim])
    before = mesh.entity_counts()
    assert not collapse_edge(mesh, edge, keep=rim)
    assert mesh.entity_counts() == before
    verify(mesh)
    assert_closure_rule(mesh)
    coarsened = cylinder_tets()
    assert coarsen_pass(coarsened, UniformSize(1.5), ratio=0.9) > 0
    verify(coarsened)
    assert_closure_rule(coarsened)


def test_classification_survives_swaps():
    mesh = rect_tri(4)
    rng = np.random.default_rng(0)
    for v in mesh.entities(0):
        if mesh.classification(v).dim == 2:
            jitter = rng.uniform(-0.08, 0.08, 2)
            mesh.set_coords(v, mesh.coords(v)[:2] + jitter)
    assert swap_pass(mesh) > 0
    verify(mesh)
    assert_closure_rule(mesh)


def test_classify_against_resets_stale_classification():
    mesh = rect_tri(3)
    model = mesh.model
    for ent in mesh.entities(1):
        mesh.set_classification(ent, model.find(2, 0))
    mesh.classify_against()
    assert_closure_rule(mesh)


def test_classify_closure_skips_unclassified_vertices():
    mesh = rect_tri(2)
    tri = next(mesh.entities(2))
    a, b, c = mesh.verts_of(tri)
    mesh.destroy(tri)
    mesh.core.gclass[0][a.idx] = -1  # a vertex with no classification
    new = mesh.create(TRI, [a, b, c])
    mesh.classify_closure(2, [new.idx])
    assert mesh.classification(new) is None
    assert mesh.classification(mesh.find(1, [b, c])) is not None


def test_model_cover_memo_matches_rule_and_clears():
    model = box_model()
    face, edge = model.find(2, 0), model.find(1, 0)
    key = tuple(sorted({face, edge}))
    assert model.cover(key) == classify_from_closure(model, key)
    assert model._cover
    model.add(3, 7)
    assert not model._cover


def test_recycled_handles_come_back_unclassified():
    mesh = rect_tri(2)
    tri = next(mesh.entities(2))
    verts = mesh.verts_of(tri)
    assert mesh.classification(tri) is not None
    mesh.destroy(tri)
    again = mesh.create(TRI, verts)
    assert again == tri and mesh.classification(again) is None

    # The bulk path: destroy_block, then land the same rows again.
    ids = mesh.entity_ids(2)[:3].copy()
    rows = mesh.core.verts[2][ids, :3].astype(np.int64)
    assert all(mesh.classification(Ent(2, i)) is not None for i in ids[1:])
    mesh.destroy_block(2, ids)
    landed, created = land_rows(
        mesh, 2, np.full(len(ids), TRI, dtype=np.int16), rows
    )
    assert created.all() and sorted(landed.tolist()) == sorted(ids.tolist())
    assert all(mesh.classification(Ent(2, i)) is None for i in landed)
    mesh.classify_closure(2, landed)
    assert_closure_rule(mesh)
