"""Correctness at the size the benchmarks run (opt-in: ``pytest -m scale``).

The tier-1 differential and property suites stop at a few thousand
elements; the bulk transport paths only show their edge cases — many part
pairs, recycled slots in every dimension, corner-wrapping depth-2 rings —
at 10^4 elements and tens of parts.  One pass of distribute → migrate →
ghost (depth 1, then depth 2) → sync → unghost at 24,000 tets on 32 parts,
checking after every step that the distributed representation verifies,
that the owned element/vertex gid sets are the serial mesh's, and that
every copy of a field value equals its owner's.
"""

import numpy as np
import pytest

from repro.parallel import PerfCounters
from repro.partition import (
    DistributedField,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    synchronize,
)
from repro.partitioners import partition
from repro.workloads import aaa_mesh

pytestmark = pytest.mark.scale

N = 10
NPARTS = 32


def owned_gids(dm, dim):
    return [
        part.gid(e)
        for part in dm
        for e in part.mesh.entities(dim)
        if not part.is_ghost(e) and part.owns(e)
    ]


def check(dm, serial, field=None):
    dm.verify()
    for dim in (0, serial.dim()):
        gids = owned_gids(dm, dim)
        assert len(gids) == len(set(gids)), f"dim-{dim} entity owned twice"
        assert set(gids) == set(serial.entity_ids(dim).tolist())
    if field is not None:
        assert field.max_copy_disagreement() == 0.0


def test_distribute_migrate_ghost_sync_unghost_at_bench_scale():
    serial = aaa_mesh(n=N, seed=0)
    assert serial.count(3) == 24_000
    dm = distribute(
        serial, partition(serial, NPARTS, "rcb"), nparts=NPARTS,
        counters=PerfCounters(),
    )
    check(dm, serial)

    # Ring plan: every part hands 5 % of its elements to the next one.
    plan = {}
    for part in dm:
        elements = sorted(part.mesh.entities(3))
        plan[part.pid] = {
            e: (part.pid + 1) % NPARTS for e in elements[: len(elements) // 20]
        }
    moved = migrate(dm, plan).elements_moved
    assert moved == sum(len(p) for p in plan.values()) > 0
    check(dm, serial)

    field = DistributedField(dm, "u")
    for depth in (1, 2):
        stats = ghost_layer(dm, depth=depth)
        assert stats.ghosts_created > 0
        field.set_from_coords(lambda x: 1.0 + x[0] + 2.0 * x[1] - x[2])
        synchronize(field)
        check(dm, serial, field)
        counts = np.asarray([part.mesh.entity_counts() for part in dm])
        removed = delete_ghosts(dm)
        assert removed.entities_removed > 0
        check(dm, serial, field)
        after = np.asarray([part.mesh.entity_counts() for part in dm])
        assert (after < counts).any() and not any(p.ghosts for p in dm)
