"""Tests for mesh migration and remote-link rebuilding."""

import numpy as np
import pytest

from repro.mesh import Ent, box_tet, rect_tri
from repro.partition import (
    distribute,
    merge_parts,
    migrate,
    move_elements_to_new_part,
    rebuild_links,
    surface_ids,
)


def strip(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


@pytest.fixture
def dm():
    mesh = rect_tri(4)
    return distribute(mesh, strip(mesh, 4))


def total_faces(dm):
    return dm.entity_counts()[:, 2].sum()


def test_migrate_one_element(dm):
    before = dm.entity_counts()[:, 2]
    element = next(dm.part(0).mesh.entities(2))
    stats = migrate(dm, {0: {element: 1}})
    assert stats.elements_moved == 1
    assert stats.per_dimension[2] == 1  # the element itself rode along
    assert stats.messages > 0
    assert stats.supersteps > 0
    after = dm.entity_counts()[:, 2]
    assert after[0] == before[0] - 1
    assert after[1] == before[1] + 1
    dm.verify()


def test_migrate_preserves_owned_totals(dm):
    owned_before = dm.owned_counts().sum(axis=0)
    part0 = dm.part(0)
    moves = {e: 1 for e in list(part0.mesh.entities(2))[:4]}
    migrate(dm, {0: moves})
    dm.verify()
    assert np.array_equal(dm.owned_counts().sum(axis=0), owned_before)


def test_migrate_whole_part(dm):
    n = dm.part(0).mesh.count(2)
    assert merge_parts(dm, 0, 1) == n
    dm.verify()
    assert dm.part(0).mesh.count(2) == 0
    assert dm.part(0).mesh.count(0) == 0  # closure fully cleaned up
    assert not dm.part(0).remotes
    # Part 1 now borders part 2 only.
    assert dm.part(1).neighbors() == {2}


def test_migrate_self_destination_is_noop(dm):
    element = next(dm.part(0).mesh.entities(2))
    before = dm.entity_counts().copy()
    assert migrate(dm, {0: {element: 0}}).elements_moved == 0
    assert np.array_equal(dm.entity_counts(), before)


def test_migrate_round_trip_restores_counts(dm):
    before = dm.entity_counts().copy()
    element = sorted(dm.part(1).mesh.entities(2))[0]
    gid = dm.part(1).gid(element)
    migrate(dm, {1: {element: 3}})
    landed = dm.part(3).by_gid(2, gid)
    assert landed is not None
    migrate(dm, {3: {landed: 1}})
    dm.verify()
    assert np.array_equal(dm.entity_counts(), before)


def test_migrate_classification_travels(dm):
    part0 = dm.part(0)
    # Pick a boundary element (classified closure includes model edges).
    element = next(
        e
        for e in part0.mesh.entities(2)
        if any(
            part0.mesh.classification(v).dim < 2
            for v in part0.mesh.verts_of(e)
        )
    )
    gid = part0.gid(element)
    bclasses = {
        part0.gid(v): part0.mesh.classification(v)
        for v in part0.mesh.verts_of(element)
    }
    migrate(dm, {0: {element: 3}})
    landed = dm.part(3).by_gid(2, gid)
    for v in dm.part(3).mesh.verts_of(landed):
        assert dm.part(3).mesh.classification(v) == bclasses[dm.part(3).gid(v)]


def test_migrate_rejects_dead_element(dm):
    with pytest.raises(ValueError):
        migrate(dm, {0: {Ent(2, 10_000): 1}})


def test_migrate_rejects_bad_destination(dm):
    element = next(dm.part(0).mesh.entities(2))
    with pytest.raises(ValueError):
        migrate(dm, {0: {element: 99}})


def test_migrate_rejects_with_ghosts(dm):
    from repro.partition import ghost_layer

    ghost_layer(dm)
    element = next(
        e for e in dm.part(0).mesh.entities(2)
        if not dm.part(0).is_ghost(e)
    )
    with pytest.raises(ValueError):
        migrate(dm, {0: {element: 1}})


def test_concurrent_migrations_between_many_parts(dm):
    plan = {}
    for pid in range(4):
        part = dm.part(pid)
        elements = sorted(part.mesh.entities(2))[:2]
        plan[pid] = {e: (pid + 1) % 4 for e in elements}
    migrate(dm, plan)
    dm.verify()
    assert total_faces(dm) == 32


def test_migration_3d():
    mesh = box_tet(2)
    dmesh = distribute(mesh, strip(mesh, 2, axis=2))
    part0 = dmesh.part(0)
    moves = {e: 1 for e in sorted(part0.mesh.entities(3))[:6]}
    migrate(dmesh, {0: moves})
    dmesh.verify()
    assert dmesh.entity_counts()[:, 3].sum() == mesh.count(3)
    owned = dmesh.owned_counts()
    for dim in range(4):
        assert owned[:, dim].sum() == mesh.count(dim)


def test_move_elements_to_new_part(dm):
    part2 = dm.part(2)
    chosen = sorted(part2.mesh.entities(2))[:3]
    new_pid = move_elements_to_new_part(dm, 2, chosen)
    assert new_pid == 4
    assert dm.nparts == 5
    assert dm.part(new_pid).mesh.count(2) == 3
    dm.verify()


def test_surface_closure_is_shared_superset(dm):
    for part in dm:
        surface = surface_ids(part)
        for ent in part.remotes:
            assert ent.idx in surface[ent.dim]


def test_rebuild_links_is_idempotent(dm):
    snapshot = {
        part.pid: dict(part.remotes) for part in dm
    }
    rebuild_links(dm)
    for part in dm:
        assert part.remotes == snapshot[part.pid]
    dm.verify()


def test_empty_plan_is_noop(dm):
    before = dm.entity_counts().copy()
    assert migrate(dm, {}).elements_moved == 0
    assert np.array_equal(dm.entity_counts(), before)
