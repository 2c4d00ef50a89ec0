"""Property-based tests: migration and distribution invariants under
randomized inputs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mesh import box_tet, rect_tri
from repro.mesh.quality import measure
from repro.partition import distribute, migrate, surface_ids

NPARTS = 4

_BASE_MESH = rect_tri(4)
_NELEMS = _BASE_MESH.count(2)


def fresh_dmesh(assignment):
    # Meshes are immutable inputs here; distribution builds fresh parts.
    return distribute(_BASE_MESH, assignment, nparts=NPARTS)


assignments = st.lists(
    st.integers(0, NPARTS - 1), min_size=_NELEMS, max_size=_NELEMS
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(assignment=assignments)
def test_any_assignment_distributes_validly(assignment):
    """Every element→part map yields a consistent distributed mesh."""
    dm = fresh_dmesh(assignment)
    dm.verify()
    counts = dm.entity_counts()
    assert counts[:, 2].sum() == _NELEMS
    expected = np.bincount(np.asarray(assignment), minlength=NPARTS)
    assert np.array_equal(counts[:, 2], expected)
    owned = dm.owned_counts()
    for dim in range(3):
        assert owned[:, dim].sum() == _BASE_MESH.count(dim)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    assignment=assignments,
    moves=st.lists(
        st.tuples(st.integers(0, NPARTS - 1), st.integers(0, 200),
                  st.integers(0, NPARTS - 1)),
        max_size=12,
    ),
)
def test_random_migrations_preserve_invariants(assignment, moves):
    """Arbitrary (valid) migration plans keep all invariants intact."""
    dm = fresh_dmesh(assignment)
    area_before = sum(
        measure(p.mesh, f) for p in dm for f in p.mesh.entities(2)
    )
    plan = {}
    for src, nth, dest in moves:
        part = dm.part(src)
        elements = sorted(part.mesh.entities(2))
        if not elements:
            continue
        element = elements[nth % len(elements)]
        already = plan.setdefault(src, {})
        already.setdefault(element, dest)
    migrate(dm, plan)
    dm.verify()
    assert dm.entity_counts()[:, 2].sum() == _NELEMS
    area_after = sum(
        measure(p.mesh, f) for p in dm for f in p.mesh.entities(2)
    )
    assert area_after == pytest.approx(area_before)
    owned = dm.owned_counts()
    for dim in range(3):
        assert owned[:, dim].sum() == _BASE_MESH.count(dim)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(assignment=assignments)
def test_shared_entities_subset_of_surface(assignment):
    """Every shared entity lies on its part's topological surface."""
    dm = fresh_dmesh(assignment)
    for part in dm:
        surface = surface_ids(part)
        for ent in part.remotes:
            assert ent.idx in surface[ent.dim]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(assignment=assignments, seed=st.integers(0, 100))
def test_round_trip_migration_is_identity_on_counts(assignment, seed):
    """Moving elements out and straight back restores all counts."""
    dm = fresh_dmesh(assignment)
    before = dm.entity_counts().copy()
    rng = np.random.default_rng(seed)
    src = int(rng.integers(NPARTS))
    part = dm.part(src)
    elements = sorted(part.mesh.entities(2))
    if not elements:
        return
    element = elements[int(rng.integers(len(elements)))]
    gid = part.gid(element)
    dest = (src + 1) % NPARTS
    migrate(dm, {src: {element: dest}})
    landed = dm.part(dest).by_gid(2, gid)
    assert landed is not None
    migrate(dm, {dest: {landed: src}})
    dm.verify()
    assert np.array_equal(dm.entity_counts(), before)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50))
def test_3d_random_migration(seed):
    mesh = box_tet(2)
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 3, mesh.count(3))
    dm = distribute(mesh, assignment, nparts=3)
    dm.verify()
    # Move a random batch from the fullest part.
    counts = dm.entity_counts()[:, 3]
    src = int(np.argmax(counts))
    part = dm.part(src)
    elements = sorted(part.mesh.entities(3))[:5]
    migrate(dm, {src: {e: (src + 1) % 3 for e in elements}})
    dm.verify()
    volume = sum(
        measure(p.mesh, r) for p in dm for r in p.mesh.entities(3)
    )
    assert volume == pytest.approx(1.0)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=st.lists(
        st.tuples(st.integers(0, NPARTS - 1), st.integers(0, 200),
                  st.integers(0, NPARTS - 1), st.integers(1, 6)),
        min_size=2,
        max_size=6,
    )
)
def test_sequential_migrations_keep_links_consistent(steps):
    """Chained migrations (each relinked by delta) never desync.

    Regression guard for the pre-removal capture: a source's old copies
    must be read before removal evicts the dying links, or third parties
    keep stale links to entities that moved away.
    """
    dm = fresh_dmesh([i % NPARTS for i in range(_NELEMS)])
    for src, nth, dest, batch in steps:
        part = dm.part(src)
        elements = sorted(part.mesh.entities(2))
        if not elements:
            continue
        start = nth % len(elements)
        moves = {e: dest for e in elements[start:start + batch]}
        migrate(dm, {src: moves})
        dm.verify()
    assert dm.entity_counts()[:, 2].sum() == _NELEMS


def test_emptying_and_refilling_part_through_chain():
    """Merge a part away, then split back into it, verifying each step."""
    from repro.partition import merge_parts, migrate as do_migrate

    dm = fresh_dmesh([i % NPARTS for i in range(_NELEMS)])
    merge_parts(dm, 1, 0)
    dm.verify()
    assert dm.part(1).mesh.count(2) == 0
    # Refill part 1 from part 0 in two waves.
    for _wave in range(2):
        part0 = dm.part(0)
        elements = sorted(part0.mesh.entities(2))[:4]
        do_migrate(dm, {0: {e: 1 for e in elements}})
        dm.verify()
    assert dm.part(1).mesh.count(2) == 8


# -- randomized op-sequence differential vs serial replay -------------------
#
# Each seed draws one sequence of mesh-service operations — element destroy
# (with cascade of its unused closure), re-create of a destroyed element,
# migration, ghost layering, field synchronization — and replays it at 1, 2
# and 4 parts.  Operations are phrased in global ids, so the same sequence
# is meaningful at every part count; after the run the distributed states
# must agree with the 1-part replay on the owned gid sets (vertices and
# elements) and on a field checksum over owned vertices, and must pass
# ``verify`` after every step.  This is the behavioral lock on the SoA core:
# handle recycling, destroy listeners, lookup maintenance and batch sync all
# sit under these ops.

from repro.partition import (
    DistributedField,
    HaloPlan,
    delete_ghosts,
    ghost_layer,
)
from repro.partition import synchronize as sync_field
from repro.partition.migration import _remove_element, rebuild_links

OPS_MESH_N = 3
OPS_PER_SEQ = 6
N_SEEDS = 34  # x3 part counts = 102 sequences


def _field_fn(xyz):
    return float(xyz[0] + 2.0 * xyz[1] + 0.5)


def _ops_dmesh(nparts):
    mesh = rect_tri(OPS_MESH_N)
    nelems = mesh.count(2)
    assignment = [i % nparts for i in range(nelems)]
    dm = distribute(mesh, assignment, nparts=nparts)
    dfield = DistributedField(dm, "u", entity_dim=0)
    dfield.set_from_coords(_field_fn)
    return dm, dfield


def _fill_missing_values(dm, dfield):
    # Migration and re-creation make vertex copies with no field value yet;
    # values are coordinate-determined, so refilling keeps replicas aligned.
    for part in dm:
        field = dfield.on(part.pid)
        mesh = part.mesh
        for v in mesh.entities(0):
            if not field.has(v):
                field.set(v, _field_fn(mesh.coords(v)))


def _global_element_gids(dm):
    dim = dm.element_dim()
    gids = set()
    for part in dm:
        for e in part.mesh.entities(dim):
            if not part.is_ghost(e):
                gids.add(part.gid(e))
    return sorted(gids)


def _holder_of(dm, gid):
    dim = dm.element_dim()
    for part in dm:
        ent = part.by_gid(dim, gid)
        if ent is not None and not part.is_ghost(ent):
            return part, ent
    raise AssertionError(f"element gid {gid} held nowhere")


def _apply_ops(nparts, seed):
    """Replay seed's op sequence at ``nparts``; return the final signature."""
    rng = np.random.default_rng(seed)
    dm, dfield = _ops_dmesh(nparts)
    graveyard = []  # records of destroyed elements, most recent last

    for _step in range(OPS_PER_SEQ):
        # All draws happen unconditionally and identically at every part
        # count, so the sequences stay comparable.
        op = ["destroy", "create", "migrate", "ghost", "sync"][
            int(rng.integers(5))
        ]
        pick = int(rng.integers(1_000_000))
        dest_draw = int(rng.integers(4))

        if op == "destroy":
            delete_ghosts(dm)
            gids = _global_element_gids(dm)
            if len(gids) <= 2:  # keep the mesh alive
                continue
            part, element = _holder_of(dm, gids[pick % len(gids)])
            verts = part.mesh.verts_of(element)
            graveyard.append({
                "etype": part.mesh.etype(element),
                "gid": part.gid(element),
                "vgids": [part.gid(v) for v in verts],
                "coords": [part.mesh.coords(v).tolist() for v in verts],
            })
            _remove_element(part, element)
            rebuild_links(dm)
        elif op == "create":
            if not graveyard:
                continue
            delete_ghosts(dm)
            record = graveyard.pop()
            target = None
            for part in dm:
                if any(
                    part.by_gid(0, g) is not None for g in record["vgids"]
                ):
                    target = part
                    break
            if target is None:
                target = dm.part(sum(record["vgids"]) % dm.nparts)
            field = dfield.on(target.pid)
            local = []
            for g, xyz in zip(record["vgids"], record["coords"]):
                v = target.by_gid(0, g)
                if v is None:
                    v = target.mesh.create_vertex(xyz)
                    target.set_gid(v, g)
                    field.set(v, _field_fn(np.asarray(xyz)))
                local.append(v)
            element = target.mesh.create(record["etype"], local)
            target.set_gid(element, record["gid"])
            rebuild_links(dm)
        elif op == "migrate":
            delete_ghosts(dm)
            gids = _global_element_gids(dm)
            part, element = _holder_of(dm, gids[pick % len(gids)])
            dest = dest_draw % dm.nparts
            if dest != part.pid:
                migrate(dm, {part.pid: {element: dest}})
                # The delta relink against its oracle, on meshes the
                # destroy/create ops have punched holes into.
                links = {p.pid: dict(p.remotes) for p in dm}
                rebuild_links(dm)
                assert {p.pid: dict(p.remotes) for p in dm} == links
                _fill_missing_values(dm, dfield)
        elif op == "ghost":
            if not any(part.ghosts for part in dm):
                ghost_layer(dm)
                _fill_missing_values(dm, dfield)
        elif op == "sync":
            sync_field(dfield)
            assert dfield.max_copy_disagreement() == 0.0
        dm.verify()
        # A links writer that forgets to bump ``links_version`` leaves the
        # cached halo plan stale: it must equal one built from scratch.
        for dim in range(dm.element_dim()):
            assert dm.halo_plan(dim) == HaloPlan(dm, dim)

    owned = {}
    for dim in (0, dm.element_dim()):
        owned[dim] = set()
        for part in dm:
            for ent in part.mesh.entities(dim):
                if part.owns(ent):
                    gid = part.gid(ent)
                    assert gid not in owned[dim], (
                        f"gid {gid} owned twice (dim {dim})"
                    )
                    owned[dim].add(gid)
    checksum = 0.0
    for part in dm:
        field = dfield.on(part.pid)
        for v in part.mesh.entities(0):
            if part.owns(v) and field.has(v):
                checksum += float(field.get_scalar(v)) * (
                    1 + part.gid(v) % 5
                )
    return owned, checksum


_SERIAL_REPLAYS = {}


def _serial_replay(seed):
    if seed not in _SERIAL_REPLAYS:
        _SERIAL_REPLAYS[seed] = _apply_ops(1, seed)
    return _SERIAL_REPLAYS[seed]


@pytest.mark.parametrize("nparts", [1, 2, 4])
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_op_sequence_matches_serial_replay(nparts, seed):
    owned, checksum = _apply_ops(nparts, seed)
    serial_owned, serial_checksum = _serial_replay(seed)
    assert owned == serial_owned
    assert checksum == pytest.approx(serial_checksum, rel=1e-12)
