"""Array-native closure transport: the locks on migrate/ghost/unghost.

* slot reuse — ``ghost -> delete_ghosts`` cycles leave every core and part
  column exactly where it started (the ``peak_rss_mb`` guard);
* the scalar path is gone — no ``Mesh.create``/``Mesh.destroy``/``add_up``/
  ``remove_up`` call on the migrate, ghost and unghost paths;
* the ghost registry is the set of *created* entities, so an edge, which
  travels without a gid, is still registered and stripped;
* gids are strict — vertices and elements are given theirs once, edges and
  faces none;
* the link and ghost columns — a recycled handle carries no links and no
  ghost home, and neither the columns nor the dict views can be written.
"""

import numpy as np
import pytest

from repro.mesh import Ent, Mesh, MeshCore, box_tet
from repro.parallel import PerfCounters
from repro.partition import delete_ghosts, distribute, ghost_layer, migrate
from repro.partition.migration import _remove_elements

NPARTS = 8


def strips(mesh, nparts=NPARTS):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def distributed_box():
    mesh = box_tet(4)
    return distribute(mesh, strips(mesh), counters=PerfCounters())


def part_columns(dm):
    """Every handle-indexed column of every part, as plain Python."""
    state = []
    for part in dm:
        core = part.mesh.core
        state.append({
            "top": list(core.top),
            "n_alive": list(core.n_alive),
            "free": [list(free) for free in core.free],
            "alive": [core.alive[d][: core.top[d]].tolist() for d in range(4)],
            "gids": [
                part.gid_array(d)[: core.top[d]].tolist() for d in range(4)
            ],
            "by_gid": [sorted(part._by_gid[d].items()) for d in range(4)],
            "links": [
                [col.tolist() for col in part.links(d)] for d in range(4)
            ],
            "ghosts": [
                [
                    col.tolist()
                    for col in (part.ghost_ids(d), *part.homes(d, part.ghost_ids(d)))
                ]
                for d in range(4)
            ],
            "counts": part.mesh.entity_counts(),
        })
    return state


def test_ghost_unghost_cycles_reuse_every_slot():
    dm = distributed_box()
    before = part_columns(dm)
    ghost_layer(dm, depth=2)
    delete_ghosts(dm)
    warm = part_columns(dm)
    for _ in range(3):
        assert ghost_layer(dm, depth=2).ghosts_created > 0
        delete_ghosts(dm)
        dm.verify()
        # Later cycles land in the slots the first one freed: high-water
        # marks, free-lists and every column repeat exactly.
        assert part_columns(dm) == warm
    for was, now in zip(before, warm):
        for key in ("n_alive", "by_gid", "links", "ghosts", "counts"):
            assert now[key] == was[key], key
        # Against the pre-ghost state: live handles and their gids are
        # untouched, and everything the ghosts added above the old top is
        # dead again and on the free-list.
        for d in range(4):
            top = was["top"][d]
            assert now["alive"][d][:top] == was["alive"][d]
            assert now["gids"][d][:top] == was["gids"][d]
            assert not any(now["alive"][d][top:])
            assert sorted(now["free"][d]) == sorted(
                was["free"][d] + list(range(top, now["top"][d]))
            )


def test_transport_paths_make_no_scalar_core_calls(monkeypatch):
    calls = {"create": 0, "destroy": 0, "add_up": 0, "remove_up": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    dm = distributed_box()
    edim = dm.element_dim()
    monkeypatch.setattr(Mesh, "create", counting("create", Mesh.create))
    monkeypatch.setattr(Mesh, "destroy", counting("destroy", Mesh.destroy))
    monkeypatch.setattr(MeshCore, "add_up", counting("add_up", MeshCore.add_up))
    monkeypatch.setattr(
        MeshCore, "remove_up", counting("remove_up", MeshCore.remove_up)
    )

    assert ghost_layer(dm, depth=2).ghosts_created > 0
    assert delete_ghosts(dm).entities_removed > 0
    plan = {}
    for part in dm:
        chosen = sorted(part.mesh.entities(edim))[:16]
        plan[part.pid] = {e: (part.pid + 1) % NPARTS for e in chosen}
    assert migrate(dm, plan).elements_moved == 16 * NPARTS
    ghost_layer(dm)
    delete_ghosts(dm)
    dm.verify()
    assert calls == {"create": 0, "destroy": 0, "add_up": 0, "remove_up": 0}


def test_gidless_closure_entity_is_registered_and_stripped():
    """An edge, which carries no gid, still arrives, is a ghost, and goes."""
    dm = distributed_box()
    owner = dm.part(3)
    # An interior edge of an element part 2 will ghost.
    shared_vertex = next(
        e for e in owner.shared_entities(0) if 2 in owner.copies(e)[0]
    )
    element = owner.mesh.adjacent(shared_vertex, 3)[0]
    edge = next(
        e for e in owner.mesh.adjacent(element, 1) if not owner.is_shared(e)
    )
    assert not owner.has_gid(edge)
    key = owner.entity_key(edge)

    before = [part.mesh.entity_counts() for part in dm]
    ghost_layer(dm)
    dm.verify()
    requester = dm.part(2)
    local = requester.mesh.find(
        1, [requester.by_gid(0, g) for g in key]
    )
    assert local is not None and not requester.has_gid(local)
    assert requester.is_ghost(local)
    # Home part 3, home handle unknown: closure entities ship no handle.
    assert [c.tolist() for c in requester.homes(1, [local.idx])] == [[3], [-1]]

    delete_ghosts(dm)
    dm.verify()
    assert [part.mesh.entity_counts() for part in dm] == before
    assert not any(part.has_ghosts() for part in dm)


def test_set_gids_is_strict():
    """A vertex or element gid is written once: an entity that has one, a
    gid that is taken or named twice, and any write on an edge or a face
    raise, and a refused call writes nothing."""
    dm = distributed_box()
    part = dm.part(0)
    verts = part.mesh.entity_ids(0)[:3]
    held = int(part.gids_of(0, verts[2:])[0])
    for v in verts[:2]:
        part.drop_gid(Ent(0, int(v)))
    free = dm.alloc_gids(0, 2)
    before = (part.gid_array(0).copy(), dict(part._by_gid[0]))
    refused = [
        ("already has", 0, verts[1:], free),
        ("already has", 0, verts[[0, 0]], free),
        ("taken", 0, verts[:2], [free[0], held]),
        ("taken", 0, verts[:2], free[[1, 1]]),
        ("taken", 0, verts[:2], [free[0], -1]),
        ("no gids", 1, part.mesh.entity_ids(1)[:1], free[:1]),
        ("no gids", 2, part.mesh.entity_ids(2)[:1], free[:1]),
    ]
    for match, dim, ids, gids in refused:
        with pytest.raises(ValueError, match=match):
            part.set_gids(dim, ids, gids)
        assert np.array_equal(part.gid_array(0), before[0])
        assert part._by_gid[0] == before[1]
    with pytest.raises(ValueError, match="no gids"):
        part.set_gid(Ent(1, int(part.mesh.entity_ids(1)[0])), int(free[0]))
    part.set_gids(0, verts[:2], free)
    assert part.gids_of(0, verts).tolist() == [*free.tolist(), held]
    assert part.by_gid(0, int(free[1])) == Ent(0, int(verts[1]))


@pytest.mark.parametrize("seed", range(60))
def test_set_gids_adopts_row_by_row(seed):
    """``set_gids`` over rows that may repeat entities and gids takes all of
    them or none: it raises exactly when some row, taken in order, finds
    its entity numbered or its gid negative or taken, and otherwise equals
    writing the rows one at a time."""
    from repro.partition.part import Part

    rng = np.random.default_rng(seed)
    part = Part(0)
    held, taken = {}, {}
    for idx, gid in zip(*rng.integers(0, 12, (2, 3)).tolist()):
        if idx not in held and gid not in taken:
            part.set_gid(Ent(0, idx), gid)
            held[idx], taken[gid] = gid, idx
    n = int(rng.integers(1, 5))
    ids, gids = rng.integers(0, 12, n), rng.integers(-1, 30, n)
    after, now_taken = dict(held), dict(taken)
    valid = True
    for idx, gid in zip(ids.tolist(), gids.tolist()):
        valid &= gid >= 0 and idx not in after and gid not in now_taken
        after[idx], now_taken[gid] = gid, idx
    if valid:
        part.set_gids(0, ids, gids)
        held, taken = after, now_taken
    else:
        with pytest.raises(ValueError):
            part.set_gids(0, ids, gids)
    assert part._by_gid[0] == taken
    assert {
        idx: int(part.gid_array(0)[idx]) for idx in range(12)
        if part.has_gid(Ent(0, idx))
    } == held


# -- the link and ghost columns: handle reuse and immutability ----------------


def test_recycled_handles_carry_no_links_and_no_ghost_home():
    """A destroyed shared vertex and a destroyed ghost element leave nothing
    behind: the entities that reuse their handles are unlinked non-ghosts."""
    dm = distributed_box()
    part = dm.part(1)
    mesh = part.mesh
    vertex = next(part.shared_entities(0))
    xyz = mesh.coords(vertex)
    _remove_elements(part, 3, np.asarray(
        [e.idx for e in mesh.adjacent(vertex, 3)], dtype=np.int64
    ))
    assert not mesh.has(vertex)
    while (fresh := mesh.create_vertex(xyz)) != vertex:
        pass
    assert not part.is_shared(fresh) and part.residence(fresh) == (1,)
    assert len(part.copies(fresh)[0]) == 0 and part.owns(fresh)

    ghost_layer(dm)
    ghost = Ent(3, int(part.ghost_ids(3)[0]))
    etype, verts = mesh.etype(ghost), mesh.verts_of(ghost)
    mesh.destroy(ghost)
    reborn = mesh.create(etype, verts)
    assert reborn == ghost
    assert not part.is_ghost(reborn) and part.owns(reborn)
    assert [c.tolist() for c in part.homes(3, [reborn.idx])] == [[-1], [-1]]


def test_link_columns_and_views_are_read_only():
    dm = distributed_box()
    part = dm.part(0)
    for d in range(3):
        for col in part.links(d):
            with pytest.raises(ValueError):
                col[:1] = 7
    ids, pids, rids = part.links(0)
    assert len(ids) and (np.diff(ids) >= 0).all() and (pids != part.pid).all()
    with pytest.raises(AttributeError):
        part.remotes = {}
    with pytest.raises(AttributeError):
        part.ghosts = frozenset()
    # The views are snapshots of the columns, not stores.
    with pytest.raises(TypeError):
        part.remotes[Ent(0, 0)] = {}
    with pytest.raises(AttributeError):
        part.ghosts.add(Ent(0, 0))
