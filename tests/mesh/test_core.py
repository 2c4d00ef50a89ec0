"""Unit tests for the SoA/CSR mesh core and its handle free-list.

The facade tests exercise the core through ``Mesh``; these pin the core's
own contracts — handle recycling order, padded-row accessors, sorted upward
rows, CSR exports, and the vectorized gathers — plus the find-after-destroy
regression where a recycled handle must not resurrect stale lookups.
"""

import numpy as np
import pytest

from repro.mesh import EDGE, TRI, Mesh, rect_tri
from repro.mesh.core import MeshCore, first_occurrence_unique, first_seen
from repro.mesh.topology import VERTEX


def test_first_occurrence_unique_orders_by_first_hit():
    ids = np.array([7, 3, 7, 1, 3, 9, 1])
    assert first_occurrence_unique(ids).tolist() == [7, 3, 1, 9]
    assert first_occurrence_unique(np.array([], dtype=np.int64)).tolist() == []


@pytest.mark.parametrize("seed", range(40))
def test_first_seen_groups_keys_in_first_hit_order(seed):
    """Against np.unique: first positions ascending, and each entry's group;
    negative and huge keys (the dense fallback) included."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-4, int(rng.integers(1, 40)), int(rng.integers(1, 300)))
    if seed % 4 == 0:
        keys = keys * 2**58
    first, group = first_seen(keys)
    uniq, at = np.unique(keys, return_index=True)
    assert first.tolist() == sorted(at.tolist())
    assert (keys[first][group] == keys).all()
    assert first_seen(np.array([], dtype=np.int64))[0].tolist() == []


def test_create_and_row_accessors():
    core = MeshCore()
    v = [core.create(0, VERTEX, (), ()) for _ in range(3)]
    e01 = core.create(1, EDGE, (v[0], v[1]), ())
    tri = core.create(2, TRI, (v[0], v[1], v[2]), (e01,))
    assert core.verts_row(0, v[0]) == (v[0],)
    assert core.verts_row(2, tri) == (v[0], v[1], v[2])
    assert core.down_row(2, tri) == (e01,)
    core.add_up(1, e01, tri)
    assert core.up_row(1, e01) == [tri]


def test_handles_recycle_lifo():
    core = MeshCore()
    ids = [core.create(0, VERTEX, (), ()) for _ in range(4)]
    core.destroy(0, ids[1])
    core.destroy(0, ids[3])
    assert core.create(0, VERTEX, (), ()) == ids[3]
    assert core.create(0, VERTEX, (), ()) == ids[1]
    # Exhausted free-list: back to high-water appends.
    assert core.create(0, VERTEX, (), ()) == 4
    assert core.top[0] == 5


def test_upward_rows_stay_sorted():
    core = MeshCore()
    v = core.create(0, VERTEX, (), ())
    for upper in (5, 1, 9, 3):
        core.add_up(0, v, upper)
    assert core.up_row(0, v) == [1, 3, 5, 9]
    core.remove_up(0, v, 5)
    assert core.up_row(0, v) == [1, 3, 9]
    with pytest.raises(ValueError, match="does not bound 5"):
        core.remove_up(0, v, 5)


def test_live_ids_cache_invalidates():
    core = MeshCore()
    ids = [core.create(0, VERTEX, (), ()) for _ in range(3)]
    assert core.live_ids(0).tolist() == ids
    core.destroy(0, ids[1])
    assert core.live_ids(0).tolist() == [ids[0], ids[2]]


def test_csr_exports_match_rows():
    mesh = rect_tri(2)
    core = mesh.core
    ids, indptr, indices = core.downward_csr(2)
    for k, idx in enumerate(ids.tolist()):
        row = indices[indptr[k]:indptr[k + 1]].tolist()
        assert tuple(row) == core.down_row(2, idx)
    ids, indptr, indices = core.upward_csr(1)
    for k, idx in enumerate(ids.tolist()):
        row = indices[indptr[k]:indptr[k + 1]].tolist()
        assert row == core.up_row(1, idx)


def test_verts_matrix_matches_rows():
    mesh = rect_tri(2)
    core = mesh.core
    ids = core.live_ids(2)
    vmat = core.verts_matrix(2, ids)
    for k, idx in enumerate(ids.tolist()):
        assert tuple(vmat[k].tolist()) == core.verts_row(2, idx)


def test_alloc_block_hands_out_what_sequential_creates_would():
    core = MeshCore()
    block = core.alloc_block(0, 5)
    core.write_block(0, block, VERTEX, None, None)
    assert block.tolist() == list(range(5))
    assert all(core.is_alive(0, i) for i in range(5))
    # Free-list slots go first, LIFO, then the top is extended.
    core.destroy_block(0, np.array([1, 3]))
    assert core.free[0] == [1, 3]
    block = core.alloc_block(0, 3)
    assert block.tolist() == [3, 1, 5]
    assert core.free[0] == [] and core.top[0] == 6


# -- find-after-destroy regression ------------------------------------------


def test_find_after_destroy_with_recycled_handle():
    """A recycled handle must not resurrect the destroyed entity's lookup."""
    mesh = Mesh()
    v = [mesh.create_vertex([float(i), 0.0, 0.0]) for i in range(4)]
    edge_a = mesh.create(EDGE, [v[0], v[1]])
    assert mesh.find(1, [v[0], v[1]]) == edge_a

    mesh.destroy(edge_a)
    assert mesh.find(1, [v[0], v[1]]) is None

    # The freed handle is recycled for a *different* edge: lookups must
    # resolve the new identity only.
    edge_b = mesh.create(EDGE, [v[2], v[3]])
    assert edge_b.idx == edge_a.idx
    assert mesh.find(1, [v[2], v[3]]) == edge_b
    assert mesh.find(1, [v[0], v[1]]) is None


def test_find_region_is_indexed():
    # Regions ride the same sorted-vertex lookup as edges and faces (the
    # former O(n) scan); destroying must unindex them.
    from repro.mesh import box_tet

    mesh = box_tet(2)
    region = next(iter(mesh.entities(3)))
    verts = mesh.verts_of(region)
    assert mesh.find(3, verts) == region
    mesh.destroy(region, cascade=True)
    assert mesh.find(3, verts) is None


def test_create_existing_returns_same_entity():
    mesh = Mesh()
    v = [mesh.create_vertex([float(i), 0.0, 0.0]) for i in range(2)]
    edge_a = mesh.create(EDGE, [v[0], v[1]])
    assert mesh.create(EDGE, [v[1], v[0]]) == edge_a
