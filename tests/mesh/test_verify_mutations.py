"""Mutation tests: corrupt the SoA arrays and prove ``verify`` catches it.

The verifier is what every other test trusts, so each representation
invariant gets a direct corruption injected behind the API (straight into
the core arrays) and an assertion that ``verify`` reports it *naming the
corrupted entity*.  Covers the four storage-level failure classes of the
CSR core: dangling handles inside adjacency rows, unsorted upward rows,
orphaned entities, and free-list corruption.
"""

import re

import pytest

from repro.mesh import rect_tri
from repro.mesh.verify import MeshInvalidError, verify


@pytest.fixture
def mesh():
    return rect_tri(3)


def test_clean_mesh_verifies(mesh):
    verify(mesh)


def test_detects_dangling_handle_in_csr_row(mesh):
    # Kill an edge behind the facade's back: faces whose downward rows
    # still reference it now hold a dangling handle.
    core = mesh.core
    victim = int(core.live_ids(1)[0])
    face = int(core.up_row(1, victim)[0])
    core.nup[1][victim] = 0  # sidestep the destroy-time guard
    core.destroy(1, victim)
    with pytest.raises(
        MeshInvalidError, match=rf"M2_{face}: dead downward entity {victim}\b"
    ):
        verify(mesh)


def test_detects_unsorted_upward_row(mesh):
    core = mesh.core
    vertex = next(
        int(v) for v in core.live_ids(0) if core.nup[0][v] >= 2
    )
    core.up[0][vertex, [0, 1]] = core.up[0][vertex, [1, 0]]
    with pytest.raises(
        MeshInvalidError,
        match=rf"M0_{vertex}: upward row not sorted ascending",
    ):
        verify(mesh)


def test_detects_orphan_vertex(mesh):
    orphan = mesh.create_vertex([9.0, 9.0, 0.0])
    with pytest.raises(
        MeshInvalidError,
        match=rf"M0_{orphan.idx}: dangles \(bounds nothing\)",
    ):
        verify(mesh)
    # Orphans are legal only when explicitly allowed (classification is
    # skipped too: the fresh vertex has no geometric home yet).
    verify(mesh, allow_dangling=True, check_classification=False)


def test_detects_live_entity_on_free_list(mesh):
    core = mesh.core
    victim = int(core.live_ids(0)[3])
    core.free[0].append(victim)
    with pytest.raises(
        MeshInvalidError, match=rf"M0_{victim}: live entity on the free-list"
    ):
        verify(mesh)


def test_detects_dead_slot_missing_from_free_list(mesh):
    # The inverse staleness: a slot dies but never reaches the free-list,
    # so its handle can never be recycled.
    core = mesh.core
    element = int(core.live_ids(2)[0])
    for edge in core.down_row(2, element):
        core.remove_up(1, edge, element)
    core.destroy(2, element)
    assert core.free[2].pop() == element
    with pytest.raises(
        MeshInvalidError,
        match=rf"M2_{element}: dead slot missing from the free-list",
    ):
        verify(mesh)


def test_detects_duplicate_free_list_entry(mesh):
    core = mesh.core
    element = int(core.live_ids(2)[0])
    for edge in core.down_row(2, element):
        core.remove_up(1, edge, element)
    core.destroy(2, element)
    core.free[2].append(element)
    with pytest.raises(
        MeshInvalidError, match=rf"M2_{element}: duplicated on the free-list"
    ):
        verify(mesh)


def test_detects_out_of_range_free_list_entry(mesh):
    core = mesh.core
    top = core.top[1]
    core.free[1].append(top + 2)
    core.free[1].append(-1)
    with pytest.raises(MeshInvalidError) as excinfo:
        verify(mesh)
    message = str(excinfo.value)
    assert f"M1_{top + 2}: free-list entry out of range (top={top})" in message
    assert f"M1_-1: free-list entry out of range (top={top})" in message


def test_error_message_names_every_entity(mesh):
    # Multiple corruptions: the report lists each by name, capped.
    core = mesh.core
    victims = [int(v) for v in core.live_ids(0)[:3]]
    for v in victims:
        core.free[0].append(v)
    with pytest.raises(MeshInvalidError) as excinfo:
        verify(mesh)
    named = set(re.findall(r"M0_(\d+): live entity", str(excinfo.value)))
    assert named == {str(v) for v in victims}
