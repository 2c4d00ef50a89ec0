"""``DistributedField.max_copy_disagreement`` against the per-link walk it
replaced, kept here as the oracle: one ``Ent`` per link row, ``has`` and
``get`` on both copies."""

import numpy as np
import pytest

from repro.mesh import Ent, box_tet
from repro.partition import DistributedField, distribute, ghost_layer


def oracle_disagreement(dfield):
    worst = 0.0
    dim = dfield.entity_dim
    for part in dfield.dmesh:
        mine = dfield.fields[part.pid]
        for idx, pid, rid in zip(*(c.tolist() for c in part.links(dim))):
            ent, other, theirs = Ent(dim, idx), Ent(dim, rid), dfield.fields[pid]
            if mine.has(ent) and theirs.has(other):
                diff = np.abs(mine.get(ent) - theirs.get(other)).max()
                worst = max(worst, float(diff))
    return worst


@pytest.fixture(scope="module")
def dm():
    mesh = box_tet(3)
    dm = distribute(mesh, [e.idx % 5 for e in mesh.entities(3)], nparts=5)
    ghost_layer(dm)
    return dm


def random_field(dm, dim, ncomp, rng, missing, nan=0.0):
    """Random values, a ``missing`` share of entities left without one and
    a ``nan`` share of the components NaN."""
    dfield = DistributedField(dm, "f", dim, ncomp)
    for part in dm:
        ids = part.mesh.entity_ids(dim)
        ids = ids[rng.random(len(ids)) >= missing]
        values = rng.normal(size=(len(ids), ncomp))
        values[rng.random(values.shape) < nan] = np.nan
        dfield.on(part.pid).set_many(ids, values)
    return dfield


@pytest.mark.parametrize("ncomp", [1, 3])
@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_columnar_disagreement_is_the_link_walk(dm, dim, ncomp, seed):
    rng = np.random.default_rng(seed)
    for missing in (0.0, 0.3, 1.0):
        dfield = random_field(dm, dim, ncomp, rng, missing)
        assert dfield.max_copy_disagreement() == oracle_disagreement(dfield)


def test_nan_rows_count_as_the_walk_counts_them(dm):
    rng = np.random.default_rng(7)
    for ncomp in (1, 3):
        dfield = random_field(dm, 0, ncomp, rng, 0.2, nan=0.1)
        assert dfield.max_copy_disagreement() == oracle_disagreement(dfield)


def test_synchronized_field_agrees(dm):
    dfield = DistributedField(dm, "x", 0, 3)
    dfield.set_from_coords(lambda xyz: xyz)
    assert dfield.max_copy_disagreement() == oracle_disagreement(dfield) == 0.0
