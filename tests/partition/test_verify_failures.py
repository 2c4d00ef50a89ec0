"""Failure injection: the distributed verifier must catch corruptions.

Each test corrupts one invariant behind the API's back and asserts
``DistributedMesh.verify`` reports it — the verifier is what every other
test trusts, so its own detection power needs proof.
"""

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
    return next(e for e in sorted(part.remotes) if e.dim == 0)


def test_clean_distribution_verifies(dm):
    dm.verify()


def test_detects_asymmetric_link(dm):
    part0 = dm.part(0)
    v = shared_vertex(part0)
    other_pid, other_ent = next(iter(part0.remotes[v].items()))
    del dm.part(other_pid).remotes[other_ent][0]
    with pytest.raises(AssertionError, match="not reciprocated|identity"):
        dm.verify()


def test_detects_dangling_link_to_dead_entity(dm):
    part0 = dm.part(0)
    # Kill an element on part 1 that a link points... links point at
    # boundary entities; kill a linked vertex's closure instead: remove
    # every element of part 1 touching its copy, then the vertex itself.
    v = shared_vertex(part0)
    other_pid, other_ent = next(iter(part0.remotes[v].items()))
    other = dm.part(other_pid)
    for element in list(other.mesh.adjacent(other_ent, 2)):
        _remove_element(other, element)
    # The vertex died with its cavity; part0's link now dangles.
    assert not other.mesh.has(other_ent)
    with pytest.raises(AssertionError, match="dead"):
        dm.verify()


def test_detects_identity_mismatch(dm):
    part0 = dm.part(0)
    v = shared_vertex(part0)
    # Re-gid the local copy: the link now joins different identities.
    part0.drop_gid(v)
    part0.set_gid(v, 999_999)
    with pytest.raises(AssertionError, match="identity mismatch"):
        dm.verify()


def test_detects_self_link(dm):
    part0 = dm.part(0)
    v = shared_vertex(part0)
    part0.remotes[v][0] = v
    with pytest.raises(AssertionError, match="self remote link"):
        dm.verify()


def test_detects_link_from_dead_entity(dm):
    part0 = dm.part(0)
    # Fabricate a link entry keyed by a never-created entity.
    part0.remotes[Ent(0, 10_000)] = {1: Ent(0, 0)}
    with pytest.raises(AssertionError, match="dead entity"):
        dm.verify()


def test_detects_dead_ghost(dm):
    ghost_layer(dm)
    part0 = dm.part(0)
    ghost = next(g for g in part0.ghosts if g.dim == 2)
    home = part0.ghost_home[ghost]
    # Destroying the ghost scrubs the registries via the destroy listener;
    # corrupt them back to simulate a stale entry.
    part0.mesh.destroy(ghost)
    part0.ghosts.add(ghost)
    part0.ghost_home[ghost] = home
    with pytest.raises(AssertionError, match="dead ghost"):
        dm.verify()


def test_detects_broken_part_mesh(dm):
    part0 = dm.part(0)
    # Corrupt the serial mesh itself: verify must propagate mesh checks.
    core = part0.mesh.core
    first_edge = int(core.live_ids(1)[0])
    core.nup[1][first_edge] = 0
    with pytest.raises(AssertionError):
        dm.verify()


def test_check_meshes_flag_skips_serial_checks(dm):
    part0 = dm.part(0)
    core = part0.mesh.core
    first_edge = int(core.live_ids(1)[0])
    core.nup[1][first_edge] = 0
    dm.verify(check_meshes=False)  # only link invariants checked


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
    ent = next(e for e in sorted(part0.remotes) if e.dim == dim)
    for other_pid, other_ent in part0.remotes.pop(ent).items():
        back = dm.part(other_pid).remotes[other_ent]
        del back[0]
        if not back:
            del dm.part(other_pid).remotes[other_ent]
    # Symmetric, so the link walk alone has nothing to object to ...
    assert dm.total_owned(dim) == mesh.count(dim) + 1
    with pytest.raises(AssertionError, match="incomplete remote links"):
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
    v = next(e for e in sorted(part0.remotes) if len(part0.remotes[e]) == 3)
    dropped, dropped_ent = sorted(part0.remotes[v].items())[-1]
    for pid, ent in [(0, v)] + sorted(part0.remotes[v].items())[:-1]:
        del dm.part(pid).remotes[ent][dropped]
    for pid in list(dm.part(dropped).remotes[dropped_ent]):
        del dm.part(dropped).remotes[dropped_ent][pid]
    del dm.part(dropped).remotes[dropped_ent]
    with pytest.raises(AssertionError, match="incomplete remote links"):
        dm.verify()


def test_completeness_holds_with_ghosts(dm):
    """Ghost copies are not holders: a ghosted mesh still verifies, and a
    symmetric deletion under the ghost layer is still caught."""
    ghost_layer(dm)
    dm.verify()
    part0 = dm.part(0)
    v = shared_vertex(part0)
    for other_pid, other_ent in part0.remotes.pop(v).items():
        back = dm.part(other_pid).remotes[other_ent]
        del back[0]
        if not back:
            del dm.part(other_pid).remotes[other_ent]
    with pytest.raises(AssertionError, match="incomplete remote links"):
        dm.verify()
