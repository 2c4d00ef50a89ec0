"""A classification code outside the mesh's code table is a reported
invariant violation, not a crash, in the serial and the distributed
verifier alike."""

import re

import numpy as np
import pytest

from repro.mesh import box_tet, rect_tri
from repro.mesh.verify import MeshInvalidError, verify
from repro.partition import distribute
from repro.partition.links import surface_ids


def test_serial_verify_reports_unknown_code():
    mesh = rect_tri(2)
    mesh.core.gclass[1][0] = 999
    with pytest.raises(
        MeshInvalidError, match=re.escape("M1_0: unknown classification code 999")
    ):
        verify(mesh)


def test_crack_check_reports_unknown_code():
    mesh = box_tet(2)
    halves = [int(mesh.centroid(e)[0] >= 0.5) for e in mesh.entities(3)]
    dm = distribute(mesh, halves)
    dm.verify()
    part = dm.part(1)
    # A face on the part surface with no remote copy: it lies on the model
    # boundary, so only its classification keeps it from being a crack.
    unlinked = np.setdiff1d(surface_ids(part)[2], part.links(2)[0])
    face = int(unlinked[0])
    part.mesh.core.gclass[2][face] = 999
    with pytest.raises(AssertionError, match=re.escape(
        f"part 1: M2_{face}: unknown classification code 999"
    )):
        dm.verify()
