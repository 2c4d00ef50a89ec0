"""The wire budget: exact comm counts of recorded scenarios.

The first two scenarios run ``box_tet(4)`` on 8 x-strips with a fresh
counter registry.  The numbers are what the retired A/B benchmarks measured
for the surviving arm (``benchmarks/results/BENCH_sf_parity.json`` and
``BENCH_migration_codec.json``): the star-forest services cost exactly the
supersteps and encoded bytes of the hand-rolled exchanges they replaced,
and the binary wire codec ships the ring-migration scenario in under a
third of the pickle bytes.  Budgets are ``<=`` so later work may lower
them, never raise them; pushing ghost ring 0 from the owners' links took
one superstep off the ghost scenario.

The relink budgets below them pin link maintenance on its own: a
from-scratch ``rebuild_links`` ships byte for byte what it shipped before
its rendezvous went array-native, and ``migrate``'s owner relink ships a
typical step (5 % of every part, ring-wise) in a tenth of a rebuild's
bytes and a quarter of its messages.
"""

import math

import pytest

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
    migration,
    rebuild_links,
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


def distributed_box(n=4):
    mesh = box_tet(n)
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
    # Ring 0 is pushed: one superstep each for the ghost bcast, the sync
    # and the accumulate's reduce and bcast.
    assert gstats.supersteps == 1
    assert probe.supersteps() <= 4
    assert probe.encoded_bytes() <= 210_659


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


# -- link maintenance on its own ----------------------------------------------


@pytest.fixture
def relinks(monkeypatch):
    """Comm cost of every link exchange run during the test, in order: the
    owner relink of a ``migrate`` and the rendezvous of a rebuild."""
    costs = []

    def measure(exchange):
        def measured(dm, *args):
            probe = CommProbe(dm.counters)
            exchange(dm, *args)
            costs.append({
                "rows": probe.messages_coalesced(),
                "encoded_bytes": probe.encoded_bytes(),
                "wire_bytes": probe.wire_bytes(),
                "messages": probe.messages(),
                "supersteps": probe.supersteps(),
            })
        return measured

    for name in ("_owner_relink", "_rendezvous"):
        monkeypatch.setattr(migration, name, measure(getattr(migration, name)))
    return costs


def test_rebuild_links_ships_exactly_what_it_shipped(relinks):
    """Recorded on the freshly distributed box at the last commit whose
    rendezvous posted Python tuples: same rows, same frames, same bytes.

    Re-pinned once when ``distribute`` became a migration out of the serial
    mesh: a part's edges and faces are numbered by vertex-gid tuple now,
    and the rows carry those local ids, so the same 4,334 rows encode in
    39,560 bytes instead of 40,746 (wire 37,923 -> 36,820); rows, messages
    and supersteps did not move.  Re-pinned once more when the rendezvous
    kept each part's rows to itself off the network: rows 4,334 -> 3,768,
    encoded 39,560 -> 34,249, messages 128 -> 112; the wire bytes,
    supersteps and links repeat."""
    dm = distributed_box()
    before = {part.pid: dict(part.remotes) for part in dm}
    rebuild_links(dm)
    assert relinks == [{
        "rows": 3768,
        "encoded_bytes": 34_249,
        "wire_bytes": 36_820,
        "messages": 112,
        "supersteps": 2,
    }]
    assert {part.pid: dict(part.remotes) for part in dm} == before


def test_ring_step_delta_budget(relinks):
    """The typical shape the file never had: one 5 % ring step.

    Tightened when the delta went through the owners instead of hash
    homes: rows 1,938 -> 1,682, encoded bytes 22,202 -> 13,054, wire bytes
    21,989 -> 13,744, messages 128 -> 30 (posts and answers go to
    neighbours only)."""
    dm = distributed_box(8)
    edim = dm.element_dim()
    plan = {}
    for part in dm:
        elements = sorted(part.mesh.entities(edim))
        plan[part.pid] = {
            e: (part.pid + 1) % NPARTS
            for e in elements[: round(0.05 * len(elements))]
        }
    stats = migrate(dm, plan)
    assert stats.elements_moved == 152
    assert stats.supersteps == 3
    (delta,) = relinks
    assert delta["supersteps"] == 2
    assert delta["rows"] <= 1_682
    assert delta["encoded_bytes"] <= 13_054
    assert delta["wire_bytes"] <= 13_744
    assert delta["messages"] <= 30

    # The same state relinked from scratch: same links, nine times the
    # bytes.  Pinned exactly when the rendezvous began to keep each part's
    # rows to itself off the network (rows 14,270 -> 12,452); that made the
    # rebuild cheaper, so the delta's shares of it rose from <= 10 % of the
    # encoded bytes and <= 25 % of the messages to the bounds below, while
    # the delta's own ceilings above did not move.
    links = {part.pid: dict(part.remotes) for part in dm}
    rebuild_links(dm)
    rebuild = relinks[1]
    assert {part.pid: dict(part.remotes) for part in dm} == links
    assert rebuild == {
        "rows": 12_452,
        "encoded_bytes": 117_005,
        "wire_bytes": 119_581,
        "messages": 112,
        "supersteps": 2,
    }
    assert delta["encoded_bytes"] < rebuild["encoded_bytes"]
    assert delta["encoded_bytes"] <= 0.12 * rebuild["encoded_bytes"]
    assert delta["wire_bytes"] <= 0.12 * rebuild["wire_bytes"]
    assert delta["messages"] <= 0.27 * rebuild["messages"]
    dm.verify()
