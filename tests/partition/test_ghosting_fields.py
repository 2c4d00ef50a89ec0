"""Tests for ghosting and distributed field synchronization."""

import numpy as np
import pytest

from repro.mesh import Ent, box_tet, rect_tri
from repro.partition import (
    DistributedField,
    Overlap,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    node_entity_counts,
    parts_per_node,
    synchronize,
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


# -- ghosting ------------------------------------------------------------------


def ghost_elements(part):
    """``(ghost, home pid, home entity)`` of every ghost face, read from the
    part's ghost columns."""
    ids = part.ghost_ids(2)
    homes, handles = part.homes(2, ids)
    return [
        (Ent(2, idx), home, Ent(2, handle))
        for idx, home, handle in zip(ids.tolist(), homes.tolist(), handles.tolist())
    ]


def test_ghost_layer_counts_excluded_from_load(dm):
    before = dm.entity_counts().copy()
    stats = ghost_layer(dm)
    created = stats.ghosts_created
    assert created > 0
    assert stats.per_dimension[2] == created  # 2D: faces are the elements
    assert stats.messages > 0
    assert np.array_equal(dm.entity_counts(), before)  # ghosts don't count
    # But the raw meshes did grow.
    raw = sum(part.mesh.count(2) for part in dm)
    assert raw == 32 + created
    dm.verify()


def test_ghost_elements_mirror_their_home(dm):
    ghost_layer(dm)
    for part in dm:
        for ghost, home_pid, home_ent in ghost_elements(part):
            assert home_pid != part.pid
            home = dm.part(home_pid)
            assert home.gid(home_ent) == part.gid(ghost)
            assert not home.is_ghost(home_ent)
            assert part.owner(ghost) == home_pid


def test_ghost_layer_via_edges_smaller_than_via_vertices(dm):
    created_vtx = ghost_layer(dm).ghosts_created
    delete_ghosts(dm)
    created_edge = ghost_layer(dm, overlap=Overlap(bridge_dim=1)).ghosts_created
    delete_ghosts(dm)
    assert created_edge <= created_vtx
    dm.verify()


def test_delete_ghosts_restores_meshes(dm):
    raw_before = [part.mesh.count(2) for part in dm]
    created = ghost_layer(dm)
    removed = delete_ghosts(dm)
    # Deletion is purely local and removes at least every ghost element
    # that survived as a ghost (shared closure entities may stay).
    assert removed.entities_removed > 0
    assert removed.messages == 0 and removed.supersteps == 0
    assert [part.mesh.count(2) for part in dm] == raw_before
    assert all(not part.ghosts for part in dm)
    dm.verify()


def test_two_ghost_layers():
    # Strips two cells wide, so a second ring exists within the home part.
    mesh = rect_tri(8)
    dmesh = distribute(mesh, strip(mesh, 4))
    one = ghost_layer(dmesh, depth=1)
    delete_ghosts(dmesh)
    two = ghost_layer(dmesh, depth=2)
    assert two.ghosts_created > one.ghosts_created
    assert two.layers == 2 and one.layers == 1
    delete_ghosts(dmesh)
    dmesh.verify()


def test_ghost_tag_data_travels(dm):
    for part in dm:
        tag = part.mesh.tag("load")
        for e in part.mesh.entities(2):
            tag.set(e, part.pid * 100 + e.idx)
    ghost_layer(dm, tags=("load",))
    checked = 0
    for part in dm:
        tag = part.mesh.tag("load")
        for ghost, home_pid, home_ent in ghost_elements(part):
            expected = dm.part(home_pid).mesh.tag("load").get(home_ent)
            assert tag.get(ghost) == expected
            checked += 1
    assert checked > 0


def test_ghost_bridge_dim_validated(dm):
    with pytest.raises(ValueError):
        ghost_layer(dm, overlap=Overlap(bridge_dim=2))


def test_ghosting_3d():
    mesh = box_tet(2)
    dmesh = distribute(mesh, strip(mesh, 2, axis=2))
    created = ghost_layer(dmesh, overlap=Overlap(bridge_dim=2))
    assert created.ghosts_created > 0
    assert created.per_dimension[3] == created.ghosts_created
    dmesh.verify()
    delete_ghosts(dmesh)
    dmesh.verify()
    assert dmesh.entity_counts()[:, 3].sum() == mesh.count(3)


# -- distributed fields ------------------------------------------------------------


def test_synchronize_owner_value_wins(dm):
    df = DistributedField(dm, "u")
    for part in dm:
        df.on(part.pid).set_from_coords(lambda x: float(part.pid))
    assert df.max_copy_disagreement() > 0
    synchronize(df)
    assert df.max_copy_disagreement() == 0
    # Copies hold the owner's (smallest pid's) value.
    part1 = dm.part(1)
    shared_with_0 = next(
        e for e in part1.remotes if e.dim == 0 and 0 in part1.remotes[e]
    )
    assert df.on(1).get_scalar(shared_with_0) == 0.0


def test_accumulate_sums_copies(dm):
    df = DistributedField(dm, "a")
    for part in dm:
        field = df.on(part.pid)
        for v in part.mesh.entities(0):
            field.set(v, 1.0)
    accumulate(df)
    part0 = dm.part(0)
    interior = next(v for v in part0.mesh.entities(0) if not part0.is_shared(v))
    shared = next(e for e in part0.remotes if e.dim == 0)
    assert df.on(0).get_scalar(interior) == 1.0
    expected = len(part0.residence(shared))
    assert df.on(0).get_scalar(shared) == float(expected)
    assert df.max_copy_disagreement() == 0


def test_ghosts_never_contribute_to_accumulate(dm):
    """Every ghost vertex copy holds a huge value; each owner's sum is over
    the real copies only."""
    ghost_layer(dm, depth=2)
    df = DistributedField(dm, "a")
    ghosts = 0
    for part in dm:
        field = df.on(part.pid)
        for v in part.mesh.entities(0):
            ghost = part.is_ghost(v)
            ghosts += ghost
            field.set(v, 1e9 if ghost else 1.0 + part.pid)
    assert ghosts > 0
    accumulate(df)
    owned = 0
    for part in dm:
        for v in part.mesh.entities(0):
            if part.is_ghost(v) or not part.owns(v):
                continue
            want = sum(1.0 + q for q in part.residence(v))
            assert df.on(part.pid).get_scalar(v) == want
            owned += 1
    assert owned == 25  # rect_tri(4): every vertex has exactly one owner


def test_field_set_from_coords_consistent_needs_no_sync(dm):
    df = DistributedField(dm, "x")
    df.set_from_coords(lambda x: x[0] + 2 * x[1])
    assert df.max_copy_disagreement() == 0
    sent = synchronize(df)
    assert sent.values_sent > 0  # values still travel; they just agree
    assert sent.messages > 0 and sent.entity_dim == 0
    assert df.max_copy_disagreement() == 0


def test_vector_field_sync(dm):
    df = DistributedField(dm, "v", shape=2)
    for part in dm:
        df.on(part.pid).set_all(lambda e: [part.pid, -part.pid])
    synchronize(df)
    assert df.max_copy_disagreement() == 0


# -- multiple parts per process ----------------------------------------------------


def test_parts_per_node_flat(dm):
    grouping = parts_per_node(dm)
    assert grouping == {0: [0], 1: [1], 2: [2], 3: [3]}


def test_parts_per_node_two_per_node():
    from repro.parallel import MachineTopology

    mesh = rect_tri(4)
    dmesh = distribute(
        mesh, strip(mesh, 4), topology=MachineTopology(nodes=2, cores_per_node=2)
    )
    assert parts_per_node(dmesh) == {0: [0, 1], 1: [2, 3]}
    node_counts = node_entity_counts(dmesh)
    assert node_counts.shape == (2, 4)
    assert node_counts[:, 2].sum() == 32
