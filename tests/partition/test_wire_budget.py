"""The wire budget: exact comm counts of two recorded scenarios.

Both scenarios run ``box_tet(4)`` on 8 x-strips with a fresh counter
registry.  The numbers are what the retired A/B benchmarks measured for the
surviving arm (``benchmarks/results/BENCH_sf_parity.json`` and
``BENCH_migration_codec.json``): the star-forest services cost exactly the
supersteps and encoded bytes of the hand-rolled exchanges they replaced,
and the binary wire codec ships the ring-migration scenario in under a
third of the pickle bytes.  Budgets are ``<=`` so later work may lower
them, never raise them.
"""

import math

from repro.mesh import box_tet
from repro.obs.stats import CommProbe
from repro.parallel import PerfCounters
from repro.partition import (
    DistributedField,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    synchronize,
)

NPARTS = 8
#: Off-node bytes the pickle wire codec charged for the ring scenario.
PICKLE_RING_BYTES = 1_713_839


def strips(mesh):
    return [
        min(int(mesh.centroid(e)[0] * NPARTS), NPARTS - 1)
        for e in mesh.entities(mesh.dim())
    ]


def distributed_box():
    mesh = box_tet(4)
    return distribute(mesh, strips(mesh), counters=PerfCounters())


def owned_vertex_fsum(dm, dfield):
    values = []
    for part in dm:
        field = dfield.on(part.pid)
        for v in part.mesh.entities(0):
            if part.owns(v) and not part.is_ghost(v) and field.has(v):
                values.append(field.get_scalar(v))
    return math.fsum(values)


def test_ghost_sync_accumulate_budget():
    dm = distributed_box()
    probe = CommProbe(dm.counters)

    gstats = ghost_layer(dm)
    dm.verify()
    field = DistributedField(dm, "u")
    field.set_from_coords(lambda x: 1.0 + x[0] + 2.0 * x[1])
    sstats = synchronize(field)
    astats = accumulate(field)

    assert field.max_copy_disagreement() == 0
    assert gstats.ghosts_created == 1464
    assert owned_vertex_fsum(dm, field) == 908.0
    assert gstats.sf_ops + sstats.sf_ops + astats.sf_ops == 4
    assert probe.supersteps() <= 5
    assert probe.encoded_bytes() <= 214_987


def test_ring_migration_budget():
    dm = distributed_box()
    edim = dm.element_dim()
    probe = CommProbe(dm.counters)

    elements_moved = 0
    for _ in range(3):
        plan = {}
        for part in dm:
            chosen = sorted(part.mesh.entities(edim))[:64]
            plan[part.pid] = {e: (part.pid + 1) % NPARTS for e in chosen}
        elements_moved += migrate(dm, plan).elements_moved
    ghost_layer(dm)
    field = DistributedField(dm, "u")
    field.set_from_coords(lambda x: x[0] + 2.0 * x[1])
    synchronize(field)
    accumulate(field)
    delete_ghosts(dm)
    dm.verify()

    assert elements_moved == 1152
    assert probe.wire_bytes() <= 516_313
    assert probe.wire_bytes() <= 0.5 * PICKLE_RING_BYTES
