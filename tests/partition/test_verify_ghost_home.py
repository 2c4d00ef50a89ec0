"""``DistributedMesh.verify`` rejects a ghost whose home entity is dead,
naming the part and the ghost."""

import re

import pytest

from repro.mesh import rect_tri
from repro.partition import distribute, ghost_layer


def test_detects_ghost_with_dead_home():
    mesh = rect_tri(4)
    dm = distribute(mesh, [
        min(int(mesh.centroid(e)[0] * 3), 2) for e in mesh.entities(2)
    ])
    ghost_layer(dm)
    dm.verify()
    part = dm.part(1)
    ghosts = part.ghost_ids(2)
    home, handle = part.homes(2, ghosts[:1])
    # Point the first ghost at a handle its home part never allocated.
    part.add_ghosts(2, ghosts[:1], home, handle + 100_000)
    with pytest.raises(AssertionError, match=re.escape(
        f"part 1: ghost M2_{ghosts[0]} home entity is dead"
    )):
        dm.verify()
