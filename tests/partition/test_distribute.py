"""Tests for initial mesh distribution and the Part bookkeeping."""

import numpy as np
import pytest

from repro.mesh import Ent, box_tet, rect_tri
from repro.partition import build_partition_model, distribute


def strip_assignment(mesh, nparts, axis=0):
    elems = list(mesh.entities(mesh.dim()))
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1) for e in elems
    ]


@pytest.fixture
def dmesh2d():
    mesh = rect_tri(4)
    return mesh, distribute(mesh, strip_assignment(mesh, 4))


def test_distribution_preserves_elements(dmesh2d):
    mesh, dm = dmesh2d
    assert dm.entity_counts()[:, 2].sum() == mesh.count(2)
    dm.verify()


def test_each_part_is_valid_serial_mesh(dmesh2d):
    from repro.mesh.verify import verify

    _, dm = dmesh2d
    for part in dm:
        verify(part.mesh, check_classification=True)


def test_owned_counts_partition_the_global_mesh(dmesh2d):
    mesh, dm = dmesh2d
    owned = dm.owned_counts()
    for dim in range(3):
        assert owned[:, dim].sum() == mesh.count(dim)


def test_shared_entities_have_symmetric_links(dmesh2d):
    _, dm = dmesh2d
    for part in dm:
        for ent, copies in part.remotes.items():
            for other_pid, other_ent in copies.items():
                back = dm.part(other_pid).remotes[other_ent]
                assert back[part.pid] == ent


def test_boundary_vertex_count_2d(dmesh2d):
    """Strip partition of a 4x4 grid: 3 internal interfaces x 5 vertices."""
    _, dm = dmesh2d
    shared_verts = set()
    for part in dm:
        for ent in part.remotes:
            if ent.dim == 0:
                shared_verts.add(part.gid(ent))
    assert len(shared_verts) == 15


def test_residence_and_ownership(dmesh2d):
    _, dm = dmesh2d
    part0 = dm.part(0)
    interface = [e for e in part0.remotes if e.dim == 0]
    assert interface
    for v in interface:
        res = part0.residence(v)
        assert res[0] == 0  # part 0 is the smallest residence part here
        assert part0.owns(v)
        # The copy on the other part must NOT consider itself owner.
        for other_pid, other_ent in part0.remotes[v].items():
            assert not dm.part(other_pid).owns(other_ent)


def test_classification_copied(dmesh2d):
    mesh, dm = dmesh2d
    for part in dm:
        for v in part.mesh.entities(0):
            expected = mesh.classification(Ent(0, part.gid(v)))
            assert part.mesh.classification(v) == expected


def test_gids_unique_per_part_and_consistent(dmesh2d):
    mesh, dm = dmesh2d
    for part in dm:
        for dim in range(3):
            identity = part.gid if dim in (0, 2) else part.entity_key
            ids = [identity(e) for e in part.mesh.entities(dim)]
            assert len(ids) == len(set(ids))


def test_assignment_dict_form():
    mesh = rect_tri(2)
    elems = list(mesh.entities(2))
    assign = {e: i % 2 for i, e in enumerate(elems)}
    dm = distribute(mesh, assign)
    dm.verify()
    assert dm.nparts == 2


def test_assignment_validation():
    mesh = rect_tri(2)
    with pytest.raises(ValueError):
        distribute(mesh, [0] * 3)  # wrong length
    with pytest.raises(ValueError):
        distribute(mesh, [-1] * mesh.count(2))
    with pytest.raises(ValueError):
        distribute(mesh, [5] * mesh.count(2), nparts=2)
    # Non-integral or non-finite part ids are rejected, not truncated.
    with pytest.raises(ValueError, match="element M2_1 .* non-integral"):
        distribute(mesh, np.linspace(0, 1.9, mesh.count(2)))
    nan_last = [0.0] * (mesh.count(2) - 1) + [float("nan")]
    with pytest.raises(ValueError, match=f"element M2_{mesh.count(2) - 1} "):
        distribute(mesh, nan_last)
    with pytest.raises(ValueError, match="non-integral"):
        distribute(mesh, {e: 0.5 for e in mesh.entities(2)})
    # Integer-valued floats are still part ids.
    dm = distribute(mesh, [0.0, 1.0] * (mesh.count(2) // 2))
    assert dm.nparts == 2


def test_empty_parts_allowed():
    mesh = rect_tri(2)
    dm = distribute(mesh, [0] * mesh.count(2), nparts=3)
    assert dm.nparts == 3
    assert dm.part(1).mesh.count(2) == 0
    dm.verify()


def test_3d_distribution():
    mesh = box_tet(2)
    dm = distribute(mesh, strip_assignment(mesh, 2, axis=2))
    dm.verify()
    assert dm.entity_counts()[:, 3].sum() == mesh.count(3)
    owned = dm.owned_counts()
    for dim in range(4):
        assert owned[:, dim].sum() == mesh.count(dim)
    # The interface plane: 2x2 grid at z=0.5 has 9 verts, shared faces etc.
    shared_verts = {
        part.gid(e) for part in dm for e in part.remotes if e.dim == 0
    }
    assert len(shared_verts) == 9


def test_neighbors(dmesh2d):
    _, dm = dmesh2d
    assert dm.part(0).neighbors() == {1}
    assert dm.part(1).neighbors() == {0, 2}
    assert dm.part(1).neighbors(dim=0) == {0, 2}
    # Vertex-only diagonal neighbors are possible in general; here strips
    # share edges too.
    assert dm.part(1).neighbors(dim=1) == {0, 2}


def test_partition_model_strip(dmesh2d):
    _, dm = dmesh2d
    pm = build_partition_model(dm)
    # 4 interior partition faces + 3 interface partition edges, no corners.
    assert pm.count(2) == 4
    assert pm.count(1) == 3
    assert pm.count(0) == 0
    part0 = dm.part(0)
    interior = next(
        e for e in part0.mesh.entities(2) if not part0.is_shared(e)
    )
    assert pm.classification(0, interior).dim == 2
    shared = next(e for e in part0.remotes if e.dim == 0)
    pent = pm.classification(0, shared)
    assert pent.dim == 1
    assert pent.owner == 0


def test_partition_model_cross():
    """2x2 block partition: the center vertex lives on 4 parts."""
    mesh = rect_tri(4)
    elems = list(mesh.entities(2))
    assign = []
    for e in elems:
        c = mesh.centroid(e)
        assign.append((1 if c[0] > 0.5 else 0) + 2 * (1 if c[1] > 0.5 else 0))
    dm = distribute(mesh, assign)
    dm.verify()
    pm = build_partition_model(dm)
    # Residence sets: 4 singletons, 4 pair interfaces, 1 four-way center.
    assert pm.count(2) == 4
    assert pm.count(1) == 4
    # Center vertex: residence of size 4 -> dim max(2-3, 0) = 0.
    assert pm.count(0) == 1
    center = pm.entities(0)[0]
    assert center.residence == (0, 1, 2, 3)
    assert center.owner == 0


def test_partition_model_custom_owner_rule():
    mesh = rect_tri(2)
    assign = strip_assignment(mesh, 2)
    dm = distribute(mesh, assign)
    pm = build_partition_model(dm, owner_rule=max)
    shared = next(e for e in dm.part(0).remotes if e.dim == 0)
    assert pm.owner(0, shared) == 1


# -- bulk build vs the per-entity reference ----------------------------------


def _mixed_mesh():
    from repro.mesh import TET
    from repro.mesh.generate import extrude_to_prisms

    mesh = extrude_to_prisms(rect_tri(3), layers=2)
    for face in list(mesh.entities(2)):
        verts = mesh.verts_of(face)
        if len(verts) == 3 and all(mesh.coords(v)[2] == 1.0 for v in verts):
            apex = np.mean([mesh.coords(v) for v in verts], axis=0) + [0, 0, 0.3]
            mesh.create(TET, list(verts) + [mesh.create_vertex(apex)])
    return mesh


@pytest.mark.parametrize("kind", ["tri", "tet", "mixed"])
@pytest.mark.parametrize("nparts", [1, 3, 8])
def test_bulk_build_matches_per_entity_reference(kind, nparts):
    """gids, classification and links as the per-entity loop derives them:
    every local entity matched to the global mesh by its sorted global
    vertex ids (its key), one gid/``classification`` read at a time,
    holders grouped by matched global entity in a dict.  Only vertices and
    elements carry gids."""
    mesh = {"tri": lambda: rect_tri(5), "tet": lambda: box_tet(3),
            "mixed": _mixed_mesh}[kind]()
    dim = mesh.dim()
    rng = np.random.default_rng(nparts)
    dm = distribute(mesh, rng.integers(0, nparts, mesh.count(dim)), nparts=nparts)
    dm.verify()

    holders = {}
    for part in dm:
        local = part.mesh
        for d in range(dim + 1):
            assert local.count(d) == local.core.top[d]  # no holes
            for ent in local.entities(d):
                verts = [
                    Ent(0, part.gid(v)) for v in
                    ([ent] if d == 0 else local.verts_of(ent))
                ]
                match = verts[0] if d == 0 else mesh.find(d, verts)
                assert match is not None
                if d in (0, dim):
                    assert part.gid(ent) == match.idx
                    assert part.by_gid(d, match.idx) == ent
                else:
                    assert not part.has_gid(ent)
                assert local.classification(ent) == mesh.classification(match)
                if d == 0:
                    assert (local.coords(ent) == mesh.coords(match)).all()
                holders.setdefault((d, match.idx), []).append((part.pid, ent))
    for part in dm:
        expected = {
            ent: {q: other for q, other in held if q != part.pid}
            for (d, _idx), held in holders.items() if len(held) > 1 and d < dim
            for pid, ent in held if pid == part.pid
        }
        assert part.remotes == expected
