"""Failure injection: the distributed verifier must catch corruptions.

Each test corrupts one invariant through the part's own link and ghost
writers (``Part.replace_links``, ``Part.add_ghosts``), which store whatever
they are given, and asserts ``DistributedMesh.verify`` reports it, naming
the part and the entity — the verifier is what every other test trusts, so
its own detection power needs proof.
"""

import re

import numpy as np
import pytest

from repro.mesh import Ent, rect_tri
from repro.partition import distribute, ghost_layer
from repro.partition.migration import _remove_element


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(2)
    ]


@pytest.fixture
def dm():
    mesh = rect_tri(4)
    return distribute(mesh, strips(mesh, 3))


def shared_vertex(part):
    return next(part.shared_entities(0))


def copies_of(part, ent):
    """``{remote pid: remote handle}`` of one entity, from the columns."""
    pids, rids = part.copies(ent)
    return dict(zip(pids.tolist(), rids.tolist()))


def set_copies(part, ent, copies):
    """Replace ``ent``'s link rows by ``copies`` (``{pid: remote handle}``)."""
    part.replace_links(
        ent.dim, [ent.idx], [ent.idx] * len(copies), list(copies),
        list(copies.values()),
    )


def drop_copy(part, ent, pid):
    """Remove the one link row ``ent -> pid``."""
    copies = copies_of(part, ent)
    del copies[pid]
    set_copies(part, ent, copies)


def says(text):
    return re.escape(text)


def test_clean_distribution_verifies(dm):
    dm.verify()


def test_detects_asymmetric_link(dm):
    part0 = dm.part(0)
    v = shared_vertex(part0)
    other_pid, other_idx = next(iter(copies_of(part0, v).items()))
    drop_copy(dm.part(other_pid), Ent(0, other_idx), 0)
    with pytest.raises(AssertionError, match=says(
        f"asymmetric remote link: part 0 {v} -> part {other_pid} "
        f"{Ent(0, other_idx)} not reciprocated"
    )):
        dm.verify()


def test_detects_dangling_link_to_dead_entity(dm):
    part0 = dm.part(0)
    # Kill an element on part 1 that a link points... links point at
    # boundary entities; kill a linked vertex's closure instead: remove
    # every element of part 1 touching its copy, then the vertex itself.
    v = shared_vertex(part0)
    other_pid, other_idx = next(iter(copies_of(part0, v).items()))
    other_ent = Ent(0, other_idx)
    other = dm.part(other_pid)
    for element in list(other.mesh.adjacent(other_ent, 2)):
        _remove_element(other, element)
    # The vertex died with its cavity; part0's link now dangles.
    assert not other.mesh.has(other_ent)
    with pytest.raises(AssertionError, match=says(
        f"part 0: {v} links to dead {other_ent} on part {other_pid}"
    )):
        dm.verify()


def test_detects_identity_mismatch(dm):
    part0 = dm.part(0)
    v = shared_vertex(part0)
    # Re-gid the local copy: the link now joins different identities.
    part0.drop_gid(v)
    part0.set_gid(v, 999_999)
    with pytest.raises(
        AssertionError, match=says(f"identity mismatch: part 0 {v} (key (999999,))")
    ):
        dm.verify()


def test_detects_self_link(dm):
    part0 = dm.part(0)
    v = shared_vertex(part0)
    set_copies(part0, v, {**copies_of(part0, v), 0: v.idx})
    with pytest.raises(
        AssertionError, match=says(f"part 0: self remote link on {v}")
    ):
        dm.verify()


def test_detects_link_from_dead_entity(dm):
    part0 = dm.part(0)
    # Fabricate a link row keyed by a never-created entity.
    set_copies(part0, Ent(0, 10_000), {1: 0})
    with pytest.raises(AssertionError, match=says(
        "part 0: remote link from dead entity M0_10000"
    )):
        dm.verify()


def test_detects_dead_ghost(dm):
    ghost_layer(dm)
    part0 = dm.part(0)
    ghost = Ent(2, int(part0.ghost_ids(2)[0]))
    home_pid, home_id = part0.homes(2, [ghost.idx])
    # Destroying the ghost scrubs the ghost columns via the destroy
    # listener; mark it back to simulate a stale entry.
    part0.mesh.destroy(ghost)
    assert not part0.is_ghost(ghost)
    part0.add_ghosts(2, [ghost.idx], home_pid, home_id)
    with pytest.raises(
        AssertionError, match=says(f"part 0: dead ghost {ghost}")
    ):
        dm.verify()


def test_detects_broken_part_mesh(dm):
    part0 = dm.part(0)
    # Corrupt the serial mesh itself: verify must propagate mesh checks.
    core = part0.mesh.core
    first_edge = int(core.live_ids(1)[0])
    core.nup[1][first_edge] = 0
    with pytest.raises(AssertionError):
        dm.verify()


# -- completeness: a link missing on *both* sides ----------------------------
#
# The symmetry walk only sees the links that exist, so deleting one link
# on both of its ends used to verify clean (and ``total_owned`` silently
# counted the entity twice).  The completeness invariant — every identity on
# two or more part surfaces is linked among all its holders — catches it.


@pytest.fixture
def dm3d():
    from repro.mesh import box_tet

    mesh = box_tet(3)
    assignment = [
        min(int(mesh.centroid(e)[0] * 4), 3) for e in mesh.entities(3)
    ]
    return mesh, distribute(mesh, assignment)


@pytest.mark.parametrize("dim", [0, 1, 2], ids=["vertex", "edge", "face"])
def test_detects_symmetrically_missing_link(dm3d, dim):
    mesh, dm = dm3d
    dm.verify()
    assert dm.total_owned(dim) == mesh.count(dim)
    part0 = dm.part(0)
    ent = next(part0.shared_entities(dim))
    for other_pid, other_idx in copies_of(part0, ent).items():
        drop_copy(dm.part(other_pid), Ent(dim, other_idx), 0)
    set_copies(part0, ent, {})
    # Symmetric, so the link walk alone has nothing to object to ...
    assert dm.total_owned(dim) == mesh.count(dim) + 1
    with pytest.raises(
        AssertionError, match=says(f"incomplete remote links: part 0 {ent} ")
    ):
        dm.verify()


def test_detects_one_missing_holder_among_three():
    """A vertex held by three parts whose links name only two of them,
    consistently on every side."""
    mesh = rect_tri(4)
    quadrant = [
        int(mesh.centroid(e)[0] >= 0.5) + 2 * int(mesh.centroid(e)[1] >= 0.5)
        for e in mesh.entities(2)
    ]
    dm = distribute(mesh, quadrant)
    part0 = dm.part(0)
    v = next(e for e in part0.shared_entities(0) if len(copies_of(part0, e)) == 3)
    holders = sorted(copies_of(part0, v).items())
    dropped, dropped_idx = holders[-1]
    for pid, idx in [(0, v.idx)] + holders[:-1]:
        drop_copy(dm.part(pid), Ent(0, idx), dropped)
    set_copies(dm.part(dropped), Ent(0, dropped_idx), {})
    with pytest.raises(
        AssertionError, match=says(f"incomplete remote links: part 0 {v} ")
    ):
        dm.verify()


def test_completeness_holds_with_ghosts(dm):
    """Ghost copies are not holders: a ghosted mesh still verifies, and a
    symmetric deletion under the ghost layer is still caught."""
    ghost_layer(dm)
    dm.verify()
    part0 = dm.part(0)
    v = shared_vertex(part0)
    for other_pid, other_idx in copies_of(part0, v).items():
        drop_copy(dm.part(other_pid), Ent(0, other_idx), 0)
    set_copies(part0, v, {})
    with pytest.raises(
        AssertionError, match=says(f"incomplete remote links: part 0 {v} ")
    ):
        dm.verify()


# -- cracks: a shared edge split on one holder only ----------------------------


def test_detects_crack_between_parts(dm3d):
    """Faces that bound one element, are linked nowhere and lie inside the
    model are a crack, even though every link that exists is sound."""
    from repro.adapt import split_edge
    from repro.partition import rebuild_links

    _mesh, dm = dm3d
    part0 = dm.part(0)
    edge = next(
        e for e in part0.shared_entities(1)
        if part0.mesh.classification(e).dim == 3
    )
    mid = split_edge(part0.mesh, edge)
    part0.set_gid(mid, dm.alloc_gid(0))
    rebuild_links(dm)
    with pytest.raises(
        AssertionError,
        match=r"part 0: M2_\d+ bounds one element but is neither linked nor "
        r"on the model boundary \(a crack\)",
    ):
        dm.verify()
