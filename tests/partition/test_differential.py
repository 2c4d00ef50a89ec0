"""Differential tests: serial vs 2/4/8 parts.

The same workload — distribute, a ring-migration round, a ghost layer,
ghost deletion, then field synchronize + accumulate — runs serially
(one part) and at 2/4/8 parts.  Every configuration must report
*identical* global invariants:

* per-dimension owned entity counts,
* the owned identity set for every dimension (vertex and element gids,
  edge and face keys),
* the field checksum after :func:`synchronize` (coordinate-derived values,
  summed with :func:`math.fsum` so the result is order-independent),
* the field checksum after :func:`accumulate` (integer-valued element
  contributions, hence exact in floating point),

and ``dmesh.verify()`` must pass on every part after each migrate/ghost
round.  Any comm bug that corrupts an entity, drops a tag, or perturbs a
field value shows up as a cross-configuration mismatch here.
"""

import math

import pytest

from repro.mesh import rect_tri
from repro.partition import (
    DistributedField,
    Overlap,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    synchronize,
)

PART_COUNTS = (2, 4, 8)


def strip(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def _coord_value(xyz):
    return 1.0 + xyz[0] + 2.0 * xyz[1]


def owned_gids(dm):
    """Owned identity set per dimension — the partition-independent
    identity: gids of vertices and elements, keys (sorted vertex gids) of
    the edges and faces between them."""
    top = dm.element_dim()
    sets = {dim: set() for dim in range(top + 1)}
    for part in dm:
        for dim in sets:
            identity = part.gid if dim in (0, top) else part.entity_key
            for ent in part.mesh.entities(dim):
                if part.owns(ent) and not part.is_ghost(ent):
                    sets[dim].add(identity(ent))
    return {dim: frozenset(gids) for dim, gids in sets.items()}


def owned_field_checksum(dm, dfield):
    """fsum of (owned vertices only) field values, order-independent."""
    values = []
    for part in dm:
        field = dfield.on(part.pid)
        for v in part.mesh.entities(0):
            if part.owns(v) and not part.is_ghost(v) and field.has(v):
                values.append(field.get_scalar(v))
    return math.fsum(values)


def run_workload(nparts):
    """Distribute → migrate ring → ghost → unghost → sync/accumulate."""
    mesh = rect_tri(8)
    if nparts == 1:
        assignment = [0] * mesh.count(2)
    else:
        assignment = strip(mesh, nparts)
    dm = distribute(mesh, assignment)

    # Ring migration: each part ships its two lowest elements onward.
    plan = {}
    for part in dm:
        chosen = sorted(part.mesh.entities(2))[:2]
        plan[part.pid] = {e: (part.pid + 1) % nparts for e in chosen}
    migrate(dm, plan)
    dm.verify()

    ghost_layer(dm)
    dm.verify()
    delete_ghosts(dm)
    dm.verify()

    sync_field = DistributedField(dm, "u")
    sync_field.set_from_coords(_coord_value)
    synchronize(sync_field)
    assert sync_field.max_copy_disagreement() == 0

    # Finite-element-style assembly: each element (which lives on exactly
    # one part) adds 1 to each of its vertices; integer-valued, so exact.
    accum_field = DistributedField(dm, "a")
    for part in dm:
        field = accum_field.on(part.pid)
        for v in part.mesh.entities(0):
            field.set(v, 0.0)
        for e in part.mesh.entities(2):
            for v in part.mesh.verts_of(e):
                field.set(v, field.get(v) + 1.0)
    accumulate(accum_field)
    assert accum_field.max_copy_disagreement() == 0

    counts = dm.owned_counts().sum(axis=0)
    return {
        "owned_counts": tuple(int(c) for c in counts),
        "owned_gids": owned_gids(dm),
        "sync_checksum": owned_field_checksum(dm, sync_field),
        "accum_checksum": owned_field_checksum(dm, accum_field),
    }


@pytest.fixture(scope="module")
def serial_baseline():
    return run_workload(1)


@pytest.mark.parametrize("nparts", PART_COUNTS)
def test_parallel_matches_serial(nparts, serial_baseline):
    result = run_workload(nparts)
    assert result["owned_counts"] == serial_baseline["owned_counts"]
    assert result["owned_gids"] == serial_baseline["owned_gids"]
    assert result["sync_checksum"] == serial_baseline["sync_checksum"]
    assert result["accum_checksum"] == serial_baseline["accum_checksum"]


def test_serial_counts_match_source_mesh(serial_baseline):
    mesh = rect_tri(8)
    assert serial_baseline["owned_counts"] == tuple(
        mesh.count(d) for d in range(3)
    ) + (0,)


def run_overlap_workload(nparts, depth):
    """Distribute → depth-k ghost overlap → sync/accumulate *with* ghosts.

    Unlike :func:`run_workload`, the overlap stays in place while the field
    services run, so a wrong or truncated depth-k region that corrupts
    bookkeeping (remote links, ownership, gids) breaks the invariants.
    """
    mesh = rect_tri(8)
    if nparts == 1:
        assignment = [0] * mesh.count(2)
    else:
        assignment = strip(mesh, nparts)
    dm = distribute(mesh, assignment)

    gstats = ghost_layer(dm, overlap=Overlap(depth=depth))
    dm.verify()
    assert gstats.layers == depth and gstats.sf_ops == depth
    if nparts > 1:
        assert gstats.ghosts_created > 0

    sync_field = DistributedField(dm, "u")
    sync_field.set_from_coords(_coord_value)
    synchronize(sync_field)
    assert sync_field.max_copy_disagreement() == 0

    # Assembly over *real* elements only: ghosts are read-only copies of
    # elements assembled on their home part, counting them would double up.
    accum_field = DistributedField(dm, "a")
    for part in dm:
        field = accum_field.on(part.pid)
        for v in part.mesh.entities(0):
            field.set(v, 0.0)
        for e in part.mesh.entities(2):
            if part.is_ghost(e):
                continue
            for v in part.mesh.verts_of(e):
                field.set(v, field.get(v) + 1.0)
    accumulate(accum_field)
    assert accum_field.max_copy_disagreement() == 0

    counts = dm.owned_counts().sum(axis=0)
    return {
        "owned_counts": tuple(int(c) for c in counts),
        "owned_gids": owned_gids(dm),
        "sync_checksum": owned_field_checksum(dm, sync_field),
        "accum_checksum": owned_field_checksum(dm, accum_field),
    }


@pytest.fixture(scope="module")
def serial_overlap_baseline():
    return run_overlap_workload(1, depth=1)


@pytest.mark.parametrize("depth", (1, 2, 3))
@pytest.mark.parametrize("nparts", PART_COUNTS)
def test_overlap_matches_serial(nparts, depth, serial_overlap_baseline):
    result = run_overlap_workload(nparts, depth)
    assert result["owned_counts"] == serial_overlap_baseline["owned_counts"]
    assert result["owned_gids"] == serial_overlap_baseline["owned_gids"]
    assert result["sync_checksum"] == serial_overlap_baseline["sync_checksum"]
    assert (
        result["accum_checksum"] == serial_overlap_baseline["accum_checksum"]
    )


def test_binary_codec_actually_engaged():
    """The services must report coalesced batches and encoded bytes through
    the stats plumbing."""
    mesh = rect_tri(8)
    dm = distribute(mesh, strip(mesh, 4))
    part0 = dm.part(0)
    plan = {0: {e: 1 for e in sorted(part0.mesh.entities(2))[:2]}}
    stats = migrate(dm, plan)
    assert stats.encoded_bytes > 0
    assert stats.messages_coalesced >= 2
    gstats = ghost_layer(dm)
    assert gstats.encoded_bytes > 0
    assert gstats.messages_coalesced > 0
    delete_ghosts(dm)
    df = DistributedField(dm, "u")
    df.set_from_coords(_coord_value)
    sstats = synchronize(df)
    assert sstats.encoded_bytes > 0
    assert sstats.messages_coalesced == sstats.values_sent
