"""The owner relink against its oracle.

``migrate`` repairs part-boundary links from what it moved: every copy it
created or destroyed is reported to the entity's owner, which answers
every holder (see ``repro.partition.migration``).  After *every* migrate
here the links must equal, as mappings, what a from-scratch
``rebuild_links`` derives on the same state, and ``verify`` (symmetry +
completeness) must pass.  Named plans pin the adversarial cases of the
protocol; seeded random plans cover the rest on triangles, tets and a
mixed prism/tet mesh at 2, 4 and 8 parts.
"""

import numpy as np
import pytest

from repro.mesh import TET, box_tet, rect_tri
from repro.mesh.generate import extrude_to_prisms
from repro.partition import (
    distribute,
    merge_parts,
    migrate,
    move_elements_to_new_part,
    rebuild_links,
)


def prism_tet():
    """Two layers of prisms with a tet capping every top triangle: quad and
    triangular faces, two element types, one mesh."""
    mesh = extrude_to_prisms(rect_tri(4), layers=2)
    top = [
        f for f in mesh.entities(2)
        if len(mesh.verts_of(f)) == 3
        and all(mesh.coords(v)[2] == 1.0 for v in mesh.verts_of(f))
    ]
    for face in top:
        verts = mesh.verts_of(face)
        apex = np.mean([mesh.coords(v) for v in verts], axis=0) + [0, 0, 0.4]
        mesh.create(TET, list(verts) + [mesh.create_vertex(apex)])
    return mesh


MESHES = {
    "tri": lambda: rect_tri(4),
    "tet": lambda: box_tet(3),
    "mixed": prism_tet,
}


def quadrants(mesh):
    return [
        int(mesh.centroid(e)[0] >= 0.5) + 2 * int(mesh.centroid(e)[1] >= 0.5)
        for e in mesh.entities(mesh.dim())
    ]


def quadrant_dmesh(kind):
    mesh = MESHES[kind]()
    return distribute(mesh, quadrants(mesh), nparts=4)


def scattered_dmesh(kind, nparts, seed):
    mesh = MESHES[kind]()
    rng = np.random.default_rng(seed)
    return distribute(mesh, rng.integers(0, nparts, mesh.count(mesh.dim())),
                      nparts=nparts)


def links(dm):
    return {part.pid: dict(part.remotes) for part in dm}


def check_oracle(dm):
    """Links as the delta left them == links rebuilt from scratch."""
    got = links(dm)
    assert all(copies for part in got.values() for copies in part.values())
    rebuild_links(dm)
    assert links(dm) == got
    dm.verify()


def moved(dm, plan):
    stats = migrate(dm, plan)
    check_oracle(dm)
    return stats.elements_moved


def elements_on(part, vertex):
    return sorted(part.mesh.adjacent(vertex, part.mesh.dim()))


def shared_vertices(dm):
    """``{gid: {pid: local vertex}}`` of every vertex on two or more parts."""
    held = {}
    for part in dm:
        for v in part.shared_entities(0):
            held.setdefault(part.gid(v), {})[part.pid] = v
    return dict(sorted(held.items()))


@pytest.mark.parametrize("kind", MESHES)
def test_one_element(kind):
    dm = quadrant_dmesh(kind)
    element = sorted(dm.part(0).mesh.entities(dm.element_dim()))[0]
    assert moved(dm, {0: {element: 3}}) == 1


@pytest.mark.parametrize("kind", MESHES)
def test_whole_part_into_a_neighbour(kind):
    dm = quadrant_dmesh(kind)
    assert merge_parts(dm, 1, 0) > 0
    check_oracle(dm)
    assert not dm.part(1).remotes and 1 not in dm.part(0).neighbors()


@pytest.mark.parametrize("kind", MESHES)
def test_into_a_fresh_empty_part(kind):
    dm = quadrant_dmesh(kind)
    elements = sorted(dm.part(2).mesh.entities(dm.element_dim()))
    new_pid = move_elements_to_new_part(dm, 2, elements[: len(elements) // 2])
    check_oracle(dm)
    assert new_pid == 4 and 2 in dm.part(4).neighbors()


@pytest.mark.parametrize("kind", MESHES)
def test_source_and_destination_at_once(kind):
    dm = quadrant_dmesh(kind)
    plan = {}
    for part in dm:
        elements = sorted(part.mesh.entities(dm.element_dim()))
        plan[part.pid] = {e: (part.pid + 1) % 4 for e in elements[:3]}
    assert moved(dm, plan) == 12


@pytest.mark.parametrize("kind", MESHES)
def test_there_and_back(kind):
    dm = quadrant_dmesh(kind)
    dim = dm.element_dim()
    before = links(dm)
    elements = sorted(dm.part(0).mesh.entities(dim))[:4]
    gids = [dm.part(0).gid(e) for e in elements]
    moved(dm, {0: {e: 1 for e in elements}})
    assert links(dm) != before
    moved(dm, {1: {dm.part(1).by_gid(dim, g): 0 for g in gids}})
    # Handles may differ after the round trip; the sharing pattern may not.
    assert {
        pid: sorted(sorted(c) for c in part.values())
        for pid, part in links(dm).items()
    } == {
        pid: sorted(sorted(c) for c in part.values())
        for pid, part in before.items()
    }


@pytest.mark.parametrize("kind", MESHES)
def test_two_sources_around_one_vertex_to_two_destinations(kind):
    dm = quadrant_dmesh(kind)
    gid, held = next(
        (g, h) for g, h in shared_vertices(dm).items() if sorted(h) == [0, 1]
    )
    plan = {
        0: {e: 2 for e in elements_on(dm.part(0), held[0])},
        1: {e: 3 for e in elements_on(dm.part(1), held[1])},
    }
    moved(dm, plan)
    holders = shared_vertices(dm)[gid]
    assert sorted(holders) == [2, 3]


@pytest.mark.parametrize("kind", MESHES)
def test_third_party_destroys_its_copy_in_the_same_call(kind):
    """Part Q and part T both hold a vertex; T ships its only element on
    it away in the same call as Q ships one, so the owner's old link row
    for T is stale and T's tombstone must cancel it."""
    mesh = MESHES[kind]()
    rng = np.random.default_rng(5)
    dm = distribute(mesh, rng.integers(0, 4, mesh.count(mesh.dim())), nparts=4)
    for gid, held in shared_vertices(dm).items():
        lone = [
            p for p, v in held.items() if len(elements_on(dm.part(p), v)) == 1
        ]
        if lone:
            t = lone[0]
            q = next(p for p in held if p != t)
            break
    else:
        pytest.fail("no shared vertex with a single-element holder")
    dest = next(p for p in range(4) if p not in (t, q))
    plan = {
        t: {elements_on(dm.part(t), held[t])[0]: dest},
        q: {elements_on(dm.part(q), held[q])[0]: dest},
    }
    moved(dm, plan)
    assert dm.part(t).by_gid(0, gid) is None
    assert dest in shared_vertices(dm).get(gid, {dest: None})


@pytest.mark.parametrize("kind", MESHES)
def test_owner_leaves_an_entity_two_others_keep(kind):
    """The owner ships every element around a vertex to one of the two
    other holders, which posts nothing (it held the vertex): the owner's
    own tombstone is the only change, and it answers both survivors without
    holding the vertex any more."""
    dm = scattered_dmesh(kind, 4, 7)
    gid, held = next(
        (g, h) for g, h in shared_vertices(dm).items() if len(h) == 3
    )
    owner, *others = sorted(held)
    moved(dm, {owner: {
        e: others[-1] for e in elements_on(dm.part(owner), held[owner])
    }})
    assert dm.part(owner).by_gid(0, gid) is None
    assert sorted(shared_vertices(dm)[gid]) == others
    for pid in others:
        part = dm.part(pid)
        assert part.residence(part.by_gid(0, gid)) == tuple(others)


@pytest.mark.parametrize("kind", MESHES)
@pytest.mark.parametrize("leaver", ("owner", "other"))
def test_a_tombstone_leaves_one_holder_unlinked(kind, leaver):
    """Of a vertex's two holders, one ships every element on it to a part
    that does not hold it: the vertex ends on the other holder and the
    destination.  Then the other holder ships its elements there too, and
    the destination, alone, must end with no link rows for it — whether
    the last to leave was the owner (its own tombstone) or not (its
    tombstone goes to the destination, which answers itself)."""
    dm = scattered_dmesh(kind, 4, 11)
    for gid, held in shared_vertices(dm).items():
        outside = [p for p in range(4) if p not in held]
        if len(held) != 2 or not outside:
            continue
        dest = max(outside) if leaver == "owner" else min(outside)
        last = min(held) if leaver == "owner" else max(held)
        if (last < dest) == (leaver == "owner"):
            break
    else:
        pytest.fail("no vertex on two parts to empty that way")
    first = next(p for p in held if p != last)
    for pid in (first, last):
        vertex = dm.part(pid).by_gid(0, gid)
        moved(dm, {pid: {e: dest for e in elements_on(dm.part(pid), vertex)}})
    assert gid not in shared_vertices(dm)
    part = dm.part(dest)
    vertex = part.by_gid(0, gid)
    assert vertex is not None and not part.is_shared(vertex)
    assert part.residence(vertex) == (dest,)


@pytest.mark.parametrize("kind", MESHES)
def test_two_sources_create_one_entity_on_two_parts(kind):
    """Two holders of a vertex each send one element on it to a part that
    does not hold it, so the vertex is created on two new parts in one
    call; a third holder that neither sends nor receives learns about both
    from the owner's answer."""
    dm = scattered_dmesh(kind, 8, 3)
    for gid, held in shared_vertices(dm).items():
        if len(held) >= 3 and len(held) <= 6:
            break
    else:
        pytest.fail("no vertex on three to six parts")
    owner, second, third = sorted(held)[:3]
    fresh = [p for p in range(8) if p not in held][:2]
    plan = {
        pid: {elements_on(dm.part(pid), held[pid])[0]: dest}
        for pid, dest in zip((owner, third), fresh)
    }
    moved(dm, plan)
    holders = shared_vertices(dm)[gid]
    assert set(fresh) <= set(holders)
    part = dm.part(second)
    assert part.residence(part.by_gid(0, gid)) == tuple(sorted(holders))


@pytest.mark.parametrize("kind", MESHES)
def test_shared_entity_becomes_interior_on_the_destination(kind):
    dm = quadrant_dmesh(kind)
    gid, held = next(
        (g, h) for g, h in shared_vertices(dm).items() if sorted(h) == [0, 1]
    )
    moved(dm, {0: {e: 1 for e in elements_on(dm.part(0), held[0])}})
    assert gid not in shared_vertices(dm)
    vertex = dm.part(1).by_gid(0, gid)
    assert vertex is not None and not dm.part(1).is_shared(vertex)
    assert dm.part(0).by_gid(0, gid) is None


@pytest.mark.parametrize("kind", MESHES)
def test_entity_held_by_four_parts(kind):
    dm = quadrant_dmesh(kind)
    gid, held = next(
        (g, h) for g, h in shared_vertices(dm).items() if len(h) == 4
    )
    # One of part 0's elements on it goes to part 1: still four holders.
    first, *others = elements_on(dm.part(0), held[0])
    moved(dm, {0: {first: 1}})
    assert len(shared_vertices(dm)[gid]) == 4 or not others
    # The rest follow, to part 2: part 0 drops out, three holders answer.
    v0 = dm.part(0).by_gid(0, gid)
    if v0 is not None:
        moved(dm, {0: {e: 2 for e in elements_on(dm.part(0), v0)}})
    assert sorted(shared_vertices(dm)[gid]) == [1, 2, 3]
    for pid in (1, 2, 3):
        part = dm.part(pid)
        assert part.residence(part.by_gid(0, gid)) == (1, 2, 3)


@pytest.mark.parametrize("seed", range(63))
def test_random_plans_match_the_oracle(seed):
    kind = list(MESHES)[seed % 3]
    nparts = (2, 4, 8)[(seed // 3) % 3]
    rng = np.random.default_rng(seed)
    mesh = MESHES[kind]()
    dim = mesh.dim()
    if seed % 2:
        assignment = rng.integers(0, nparts, mesh.count(dim))
    else:  # strips: compact parts, long plain boundaries
        assignment = [
            min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
            for e in mesh.entities(dim)
        ]
    dm = distribute(mesh, assignment, nparts=nparts)
    total = mesh.count(dim)
    for _round in range(3):
        share = rng.choice([0.03, 0.3, 1.0])
        plan = {}
        for part in dm:
            for element in part.mesh.entities(dim):
                if rng.random() < share:
                    plan.setdefault(part.pid, {})[element] = int(
                        rng.integers(nparts)
                    )
        moved(dm, plan)
        assert dm.entity_counts()[:, dim].sum() == total
        owned = dm.owned_counts().sum(axis=0)
        assert [owned[d] for d in range(dim + 1)] == [
            mesh.count(d) for d in range(dim + 1)
        ]
