"""Correctness at the size the benchmarks run (opt-in: ``pytest -m scale``).

The tier-1 differential and property suites stop at a few thousand
elements; the bulk transport paths only show their edge cases — many part
pairs, recycled slots in every dimension, corner-wrapping depth-2 rings —
at 10^4 elements and tens of parts.  One pass of distribute → migrate →
ghost (depth 1, then depth 2) → sync → unghost at 24,000 tets on 32 parts,
checking after every step that the distributed representation verifies
(link symmetry *and* completeness), that the owned element/vertex gid sets
are the serial mesh's, and that every copy of a field value equals its
owner's; the distributed parts are also checked once against the former
part builder (``tests/partition/test_distribute_oracle.py``).  Ring 0 costs one superstep and every later ring two, and
ghosting an already ghosted mesh one ring deeper gives exactly the ghosts
of one clean depth-2 call.  A second pass takes a spiked partition of the
same mesh through heavy-part splitting and ParMA diffusion — dozens of small migrations, each
relinked by delta — compares the links it ends with against a from-scratch
``rebuild_links``, then checkpoints: ``save`` → ``load_at()`` must come back
on the partition ParMA just paid for (same elements per part, same
imbalances), and ``load_at(nparts=12)`` as the same mesh and field on 12.
A third pass refines a 20,736-tet flow box on 32 parts around an oblique
shock (one ``refine_distributed`` pass): the parts must close up with no
crack and every new element must be owned exactly once.  Last, the
hypergraph partition of the 24,000-tet mesh on 32 parts is pinned by digest,
as ``tests/partitioners/test_golden_partition.py`` pins the small ones: FM's
early exit keeps the assignment bit for bit by measurement, not by
construction, so the largest partition the suite runs is checked too.
And on the ghosted 32-part mesh, ``MeshCore.find_rows`` walks every live
entity's own vertex row back to that entity.
"""

import numpy as np
import pytest

from repro.core import ParMA, heavy_part_splitting, imbalances
from repro.mesh.core import VERT_WIDTH
from repro.mesh.quality import measure
from repro.parallel import PerfCounters
from repro.partition import (
    DistributedField,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    rebuild_links,
    refine_distributed,
    synchronize,
)
from repro.partitioners import element_centroids, partition
from repro.store import SnapshotStore, element_partition, field_checksum
from repro.workloads import aaa_mesh, shock_size, wing_mesh
from tests.partition.test_distribute_oracle import (
    assert_same_distribution,
    reference_distribute,
)
from tests.partitioners.test_golden_partition import _digest

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


def ghost_gids(dm):
    """Per part and dimension, the sorted identities of its ghosts: the gids
    of vertices and elements, the keys (sorted vertex gids) of edges and
    faces."""
    top = dm.element_dim()
    out = {}
    for part in dm:
        out[part.pid] = []
        for d in range(top + 1):
            ids = part.ghost_ids(d)
            if d in (0, top):
                out[part.pid].append(sorted(part.gids_of(d, ids).tolist()))
            else:
                out[part.pid].append(
                    sorted(map(tuple, part.entity_keys(d, ids).tolist()))
                )
    return out


def check_link_oracle(dm):
    """Links as the migrations left them == links rebuilt from scratch."""
    links = {part.pid: dict(part.remotes) for part in dm}
    rebuild_links(dm)
    for part in dm:
        assert part.remotes == links[part.pid], f"part {part.pid} links drifted"


def test_distribute_migrate_ghost_sync_unghost_at_bench_scale():
    serial = aaa_mesh(n=N, seed=0)
    assert serial.count(3) == 24_000
    assignment = partition(serial, NPARTS, "rcb")
    dm = distribute(serial, assignment, nparts=NPARTS, counters=PerfCounters())
    check(dm, serial)
    # The migration-built parts are the former part builder's, by gid
    # and key.
    assert_same_distribution(
        dm, reference_distribute(serial, assignment, NPARTS)
    )

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
    check_link_oracle(dm)

    field = DistributedField(dm, "u")
    for depth in (1, 2):
        stats = ghost_layer(dm, depth=depth)
        assert stats.ghosts_created > 0
        # Ring 0 is pushed (one superstep); each later ring costs two.
        assert stats.supersteps == 1 + 2 * (depth - 1)
        field.set_from_coords(lambda x: 1.0 + x[0] + 2.0 * x[1] - x[2])
        synchronize(field)
        check(dm, serial, field)
        counts = np.asarray([part.mesh.entity_counts() for part in dm])
        removed = delete_ghosts(dm)
        assert removed.entities_removed > 0
        check(dm, serial, field)
        after = np.asarray([part.mesh.entity_counts() for part in dm])
        assert (after < counts).any() and not any(p.ghosts for p in dm)

    # Deepening a ghosted mesh ends where one clean depth-2 call does.
    ghost_layer(dm, depth=1)
    ghost_layer(dm, depth=2)
    check(dm, serial)
    deepened = ghost_gids(dm)
    delete_ghosts(dm)
    ghost_layer(dm, depth=2)
    assert ghost_gids(dm) == deepened
    delete_ghosts(dm)
    check(dm, serial)


def test_split_and_improve_at_bench_scale_match_the_link_oracle(tmp_path):
    serial = aaa_mesh(n=N, seed=0)
    # A spiked partition (the ``rebalance`` benchmark's recipe): weighted
    # RCB with light weights in an oblique band, heavy ones at both ends.
    _elements, centroids = element_centroids(serial)
    length = float(centroids[:, 0].max())
    along = centroids[:, 0] / length
    band = np.abs((centroids[:, 0] + 0.8 * centroids[:, 1]) / length - 0.5)
    weights = np.ones(len(centroids))
    weights[band < 0.12] = 0.25
    weights[(along < 0.15) | (along > 0.85)] = 3.0
    dm = distribute(
        serial, partition(serial, NPARTS, "rcb", weights=weights),
        nparts=NPARTS, counters=PerfCounters(),
    )
    check(dm, serial)
    assert imbalances(dm.entity_counts())[3] > 1.5

    migrations = dm.counters.get("migration.relinks")
    split = heavy_part_splitting(dm, 0.05)
    assert split.final_peak <= split.initial_peak
    check(dm, serial)
    check_link_oracle(dm)

    ParMA(dm).improve("Rgn", 0.05)
    assert imbalances(dm.entity_counts())[3] <= 1.08
    check(dm, serial)
    assert dm.counters.get("migration.relinks") - migrations >= 10
    check_link_oracle(dm)
    check(dm, serial)

    # Checkpoint/restart: the balance ParMA bought survives the restart...
    field = DistributedField(dm, "x", 0, 1)
    field.set_from_coords(lambda x: x[0] + 0.5 * x[2])
    store = SnapshotStore(tmp_path / "st")
    store.save(dm, [field])
    restarted, fields, _ = store.load_at(model=serial.model)
    check(restarted, serial, fields["x"])
    assert element_partition(restarted) == element_partition(dm)
    assert np.array_equal(restarted.entity_counts(), dm.entity_counts())
    assert np.array_equal(
        imbalances(restarted.entity_counts()), imbalances(dm.entity_counts())
    )
    # ...and M -> N: the same mesh and field on 12 parts.
    narrower, fields, _ = store.load_at(nparts=12, model=serial.model)
    check(narrower, serial, fields["x"])
    assert narrower.nparts == 12
    assert field_checksum(narrower, fields["x"]) == pytest.approx(
        field_checksum(dm, field), abs=1e-9
    )


def test_refine_distributed_at_bench_scale():
    serial = wing_mesh(24)
    assert serial.count(3) == 20_736
    dm = distribute(
        serial, partition(serial, NPARTS, "rcb"), nparts=NPARTS,
        counters=PerfCounters(),
    )
    stats = refine_distributed(dm, shock_size(1.0 / 24, refinement=2.0),
                               max_passes=1)
    assert stats.interior_splits > 0 and stats.boundary_splits > 0
    dm.verify()
    held = sum(part.mesh.count(3) for part in dm)
    gids = owned_gids(dm, 3)
    assert held == len(gids) == len(set(gids)) > serial.count(3)
    volume = sum(
        measure(part.mesh, e) for part in dm for e in part.mesh.entities(3)
    )
    assert volume == pytest.approx(0.25)


def test_find_rows_walks_back_to_every_entity_at_bench_scale():
    """The adjacency walk is the one find: on every part of the ghosted
    24,000-tet mesh, each live entity's own vertex row (reversed, so any
    padding comes first) walks back to that entity."""
    serial = aaa_mesh(n=N, seed=0)
    dm = distribute(
        serial, partition(serial, NPARTS, "rcb"), nparts=NPARTS,
        counters=PerfCounters(),
    )
    assert ghost_layer(dm, depth=1).ghosts_created > 0
    for part in dm:
        core = part.mesh.core
        for dim in (1, 2, 3):
            ids = core.live_ids(dim)
            used = np.arange(VERT_WIDTH[dim]) < core.nverts[dim][ids][:, None]
            rows = np.where(used, core.verts[dim][ids], -1)[:, ::-1]
            assert np.array_equal(core.find_rows(dim, rows), ids), (part.pid, dim)


def test_hypergraph_partition_at_bench_scale_is_golden():
    """Pinned before FM passes stopped early; they must not move it."""
    assignment = partition(aaa_mesh(n=N, seed=0), NPARTS, "hypergraph")
    assert _digest(assignment) == "c69671f85a70c067"
