"""Direct tests for public API members not covered elsewhere."""

import inspect

import numpy as np
import pytest

from repro.mesh import Ent, rect_tri, box_tet
from repro.partition import distribute
from repro.partitioners import partition


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


# -- adapt passes ---------------------------------------------------------------


def test_refine_pass_respects_max_splits():
    from repro.adapt import refine_pass
    from repro.field import UniformSize

    mesh = rect_tri(4)
    splits = refine_pass(mesh, UniformSize(0.05), max_splits=3)
    assert splits == 3


def test_coarsen_pass_respects_max_collapses():
    from repro.adapt import coarsen_pass
    from repro.field import UniformSize

    mesh = rect_tri(8)
    collapses = coarsen_pass(mesh, UniformSize(0.6), max_collapses=2)
    assert collapses <= 2


# -- dmesh helpers -----------------------------------------------------------------


def test_dmesh_helpers():
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 3))
    assert dm.total_owned(0) == mesh.count(0)
    neighbor_map = dm.neighbor_map()
    assert neighbor_map[0] == {1}
    assert neighbor_map[1] == {0, 2}
    assert dm.shared_entity_count(dim=0) > 0
    assert dm.shared_entity_count() >= dm.shared_entity_count(dim=0)
    # gid allocation: monotone, note_gid raises the floor.
    a = dm.alloc_gid(0)
    dm.note_gid(0, a + 100)
    assert dm.alloc_gid(0) == a + 101
    # add_part extends the auto topology.
    before = dm.nparts
    new = dm.add_part()
    assert new.pid == before
    assert dm.topology.total_cores >= dm.nparts
    with pytest.raises(ValueError):
        dm.part(dm.nparts)


def test_part_counters():
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 3))
    part = dm.part(1)
    assert part.entity_count(2) == part.mesh.count(2)
    assert part.entity_counts()[2] == part.entity_count(2)
    owned = part.owned_count(0)
    assert 0 < owned <= part.entity_count(0)
    v = next(part.shared_entities(0))
    assert part.has_gid(v)
    assert "Part(1" in repr(part)
    assert "DistributedMesh" in repr(dm)


def test_entity_key_shapes():
    mesh = rect_tri(2)
    dm = distribute(mesh, strips(mesh, 2))
    part = dm.part(0)
    v = next(part.mesh.entities(0))
    assert part.entity_key(v) == (part.gid(v),)
    e = next(part.mesh.entities(1))
    key = part.entity_key(e)
    assert len(key) == 2 and key == tuple(sorted(key))
    # The scalar name wraps the row-batched helper: one ascending gid row
    # per entity, left-padded with -1 to the dimension's vertex width.
    faces = part.mesh.entity_ids(2)
    rows = part.entity_keys(2, faces)
    assert rows.shape == (len(faces), 4) and (rows[:, 0] == -1).all()
    assert tuple(rows[0, 1:].tolist()) == part.entity_key(Ent(2, int(faces[0])))
    # ``by_key`` is its inverse: a key names one live entity, or none.
    for ent in (v, e, Ent(2, int(faces[0]))):
        assert part.by_key(ent.dim, part.entity_key(ent)) == ent
    assert part.by_key(1, (key[0], -5)) is None
    assert part.by_key(0, key) is None


def test_link_maintenance_surface():
    """One relink implementation: the columnar surface scan replaced
    ``surface_closure`` and ``rebuild_links`` lost its partial-rebuild
    argument when ``migrate`` started relinking by delta."""
    import inspect

    import repro.partition as partition_pkg
    from repro.partition import migration, rebuild_links, surface_ids

    assert "surface_ids" in partition_pkg.__all__
    assert not hasattr(partition_pkg, "surface_closure")
    assert not hasattr(migration, "_surface_entity_ids")
    assert list(inspect.signature(rebuild_links).parameters) == ["dmesh"]
    # Links and ghosts are columns on ``Part``: the per-row dict reader and
    # the ghost-home dict are gone, and only ``Part`` writes the columns.
    from repro.partition import links
    from repro.partition.part import Part

    assert not hasattr(links, "link_rows")
    assert not hasattr(Part, "ghost_home")
    assert not hasattr(Part, "gid_index_set")
    for name in ("links", "copies", "replace_links", "add_ghosts",
                 "clear_ghosts", "ghost_ids", "homes"):
        assert callable(getattr(Part, name)), name
    assert list(inspect.signature(Part.replace_links).parameters) == [
        "self", "dim", "drop_ids", "ids", "pids", "rids",
    ]
    mesh = rect_tri(2)
    dm = distribute(mesh, strips(mesh, 2))
    ids = surface_ids(dm.part(0))
    assert len(ids) == 2 and all(a.dtype.kind == "i" for a in ids)


def test_spawn_empty_part():
    from repro.partition import spawn_empty_part

    mesh = rect_tri(2)
    dm = distribute(mesh, strips(mesh, 2))
    pid = spawn_empty_part(dm)
    assert dm.part(pid).mesh.count(2) == 0


def test_default_owner_rule():
    from repro.partition import default_owner_rule

    assert default_owner_rule((3, 1, 7)) == 1


# -- ParMA facade -------------------------------------------------------------------


def test_parma_facade_split_and_predictive():
    from repro.core import ParMA
    from repro.field import UniformSize

    mesh = box_tet(4)
    assignment = np.where(np.asarray(strips(mesh, 4)) <= 1, 0, 2)
    dm = distribute(mesh, assignment, nparts=4)
    balancer = ParMA(dm)
    split_stats = balancer.split_heavy_parts(tol=0.10)
    assert split_stats.rounds >= 1
    moved = balancer.predictive_balance(UniformSize(0.25))
    assert moved >= 0
    dm.verify()


def test_is_lightly_loaded_modes():
    from repro.core import is_lightly_loaded

    counts = np.array([[0, 0, 0, 100], [0, 0, 0, 40], [0, 0, 0, 70]])
    # Part 1 below mean (70): absolutely light; part 2 at mean: not.
    assert is_lightly_loaded(counts, 1, 3, 0, mean=70.0, mode="absolute")
    assert not is_lightly_loaded(counts, 2, 3, 0, mean=70.0, mode="absolute")
    assert is_lightly_loaded(counts, 2, 3, 0, mean=70.0, mode="relative")
    assert is_lightly_loaded(counts, 2, 3, 0, mean=70.0, mode="both")
    with pytest.raises(ValueError):
        is_lightly_loaded(counts, 1, 3, 0, mean=70.0, mode="sideways")


def test_boundary_facet_count():
    from repro.core.selection import boundary_facet_count

    mesh = rect_tri(2)
    dm = distribute(mesh, strips(mesh, 2))
    part = dm.part(0)
    counts = [
        boundary_facet_count(part, e) for e in part.mesh.entities(2)
    ]
    assert max(counts) >= 1
    assert min(counts) >= 0


def test_element_size_helper():
    from repro.core.predictive import element_size

    mesh = rect_tri(2)
    element = next(mesh.entities(2))
    size = element_size(mesh, element)
    assert 0.25 < size < 0.71  # between axis and diagonal edge lengths


# -- multilevel internals -----------------------------------------------------------


def test_heavy_edge_matching_pairs_heavy_edges():
    from repro.partitioners import heavy_edge_matching

    # Path 0-1-2-3 with a heavy middle edge: 1 and 2 must match together.
    xadj = np.array([0, 1, 3, 5, 6])
    adjncy = np.array([1, 0, 2, 1, 3, 2])
    eweights = np.array([1.0, 1.0, 9.0, 9.0, 1.0, 1.0])
    rng = np.random.default_rng(0)
    mate = heavy_edge_matching(xadj, adjncy, eweights, rng)
    assert mate[1] == 2 and mate[2] == 1
    # Matching is an involution.
    for i, m in enumerate(mate):
        assert mate[m] == i


def test_greedy_grow_reaches_target_weight():
    from repro.partitioners import dual_graph, greedy_grow

    mesh = rect_tri(6)
    graph = dual_graph(mesh)
    rng = np.random.default_rng(1)
    side = greedy_grow(
        graph.xadj, graph.adjncy, graph.weights.astype(float), 0.5, rng
    )
    sizes = np.bincount(side, minlength=2)
    assert abs(sizes[0] - sizes[1]) <= 2
    # Side 0 is connected (grown by BFS): every side-0 node reaches the
    # seed through side-0 nodes.
    zero = set(np.flatnonzero(side == 0).tolist())
    frontier = {next(iter(zero))}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for i in frontier:
            for j in graph.neighbors(i):
                if int(j) in zero and int(j) not in seen:
                    seen.add(int(j))
                    nxt.add(int(j))
        frontier = nxt
    assert seen == zero


def test_contract_merges_weights():
    from repro.partitioners import contract

    xadj = np.array([0, 1, 3, 4])
    adjncy = np.array([1, 0, 2, 1])
    weights = np.array([1, 2, 3])
    eweights = np.array([1.0, 1.0, 1.0, 1.0])
    mate = np.array([1, 0, 2])  # merge 0+1, keep 2
    cxadj, cadjncy, cweights, ceweights, cmap = contract(
        xadj, adjncy, weights, eweights, mate
    )
    assert len(cweights) == 2
    assert sorted(cweights.tolist()) == [3, 3]
    assert cmap[0] == cmap[1] != cmap[2]


def test_refine_connectivity_direct():
    from repro.partitioners import refine_connectivity, element_hypergraph

    mesh = rect_tri(6)
    assignment = partition(mesh, 3, method="rcb")
    refined, moves = refine_connectivity(mesh, assignment, passes=2)
    hg = element_hypergraph(mesh)
    assert hg.connectivity_cost(refined) <= hg.connectivity_cost(assignment)
    assert moves >= 0


# -- misc field/mesh -----------------------------------------------------------------


def test_field_ncomp():
    from repro.field import Field

    mesh = rect_tri(1)
    assert Field(mesh, "s").ncomp == 1
    assert Field(mesh, "m", shape=(2, 3)).ncomp == 6


def test_sizefield_vertex_and_edge_target():
    from repro.field import UniformSize

    mesh = rect_tri(2)
    size = UniformSize(0.3)
    v = next(mesh.entities(0))
    assert size.at_vertex(mesh, v) == 0.3
    e = next(mesh.entities(1))
    assert size.edge_target(mesh, e) == 0.3


def test_segment_param():
    from repro.gmodel import SegmentShape

    seg = SegmentShape([0, 0], [2, 0])
    assert seg.param([1.0, 5.0]) == pytest.approx(0.5)
    assert seg.param([-9.0, 0.0]) == 0.0
    assert seg.param([9.0, 0.0]) == 1.0


# -- consolidated top-level API ---------------------------------------------------


def test_top_level_entry_points():
    """The one-true entry points are importable from ``repro`` directly."""
    import repro

    for name in (
        "spmd",
        "DistributedMesh",
        "DistributedField",
        "distribute",
        "migrate",
        "ghost_layer",
        "delete_ghosts",
        "synchronize",
        "accumulate",
        "ParMA",
        "Tracer",
        "StarForest",
        "Overlap",
    ):
        assert hasattr(repro, name), name
        assert name in repro.__all__, name
    # And they are the same objects the subpackages expose.
    from repro.partition import migrate as p_migrate

    assert repro.migrate is p_migrate


def test_top_level_stats_types():
    """Each distributed service's stats type is part of the pinned surface."""
    import repro
    from repro import obs

    for name in (
        "MigrateStats",
        "GhostStats",
        "GhostDeleteStats",
        "SyncStats",
        "AccumulateStats",
        "SFStats",
    ):
        assert getattr(repro, name) is getattr(obs, name)
        assert name in repro.__all__


def test_top_level_resilience_surface():
    """The resilience subsystem is part of the pinned public API."""
    import repro
    from repro import resilience

    for name in (
        "CheckpointManager",
        "CorruptCheckpointError",
        "FaultInjector",
        "FaultPlan",
        "InjectedRankFailure",
        "resilient_spmd",
    ):
        assert getattr(repro, name) is getattr(resilience, name)
        assert name in repro.__all__, name
    assert "resilience" in repro.__all__
    # CorruptCheckpointError is one class, wherever it is imported from,
    # and the store's error is in its family: one ``except`` catches both.
    from repro import partition, store

    assert repro.CorruptCheckpointError is store.CorruptCheckpointError
    assert issubclass(store.CorruptSnapshotError, repro.CorruptCheckpointError)
    # The checkpoint format lives in ``repro.store`` alone: the partition
    # package (which cannot import it) no longer fronts a second one.
    for gone in (
        "CorruptCheckpointError",
        "save_dmesh",
        "load_dmesh",
        "load_checkpoint",
        "read_manifest",
    ):
        assert not hasattr(partition, gone), gone
    assert list(
        inspect.signature(resilience.CheckpointManager.__init__).parameters
    ) == ["self", "root", "keep", "ghost_config"]
    # RankFailure (structured SpmdError records) is pinned too.
    from repro.parallel import RankFailure

    assert repro.RankFailure is RankFailure
    assert "RankFailure" in repro.__all__


def test_resilience_subpackage_all():
    """Everything resilience.__all__ names resolves, and the core names are in."""
    from repro import resilience

    for name in resilience.__all__:
        assert hasattr(resilience, name), name
    for name in (
        "FaultSpec",
        "FaultPlanError",
        "FaultRecord",
        "InjectedFault",
        "CorruptedPayload",
        "NoCheckpointError",
        "CheckpointInfo",
        "RecoveryEvent",
        "RecoveryExhaustedError",
        "RecoveryReport",
        "classify_failure",
    ):
        assert name in resilience.__all__, name


def test_top_level_svc_surface():
    """The serving tier is part of the pinned public API."""
    import repro
    from repro import svc

    for name in (
        "AdmissionError",
        "JobFailure",
        "JobResult",
        "JobSpec",
        "MeshJobService",
        "RetryPolicy",
        "ServiceReport",
    ):
        assert getattr(repro, name) is getattr(svc, name)
        assert name in repro.__all__, name
    assert "svc" in repro.__all__
    # The typed machine-validation error rides along at the top level.
    from repro.parallel import TopologyError

    assert repro.TopologyError is TopologyError
    assert "TopologyError" in repro.__all__


def test_store_surface():
    """Snapshot-store entry points re-export from the top level."""
    import repro
    from repro import store

    for name in ("SnapshotStore", "SnapshotCache", "StoreStats"):
        assert getattr(repro, name) is getattr(store, name)
        assert name in repro.__all__, name
    assert "store" in repro.__all__


def test_store_subpackage_all():
    """Everything store.__all__ names resolves, and the core names are in."""
    from repro import store

    for name in store.__all__:
        assert hasattr(store, name), name
    for name in (
        "FORMAT",
        "CorruptCheckpointError",
        "CorruptSnapshotError",
        "SnapshotCache",
        "SnapshotState",
        "SnapshotStore",
        "StoreStats",
        "cache_key",
        "current_cache",
        "diff_states",
        "element_partition",
        "field_checksum",
        "install_cache",
        "owned_gid_set",
        "state_from_dmesh",
        "uninstall_cache",
    ):
        assert name in store.__all__, name
    # The store reads only the format it writes: no converter.
    assert not hasattr(store, "convert_dmesh2")
    assert store.FORMAT == "repro.store/2"


def test_svc_subpackage_all():
    """Everything svc.__all__ names resolves, and the core names are in."""
    from repro import svc

    for name in svc.__all__:
        assert hasattr(svc, name), name
    for name in (
        "SCHEMA",
        "AdmissionQueue",
        "GangScheduler",
        "JobSpecError",
        "JobStats",
        "Placement",
        "PlacementError",
        "PlacementRecord",
        "QueuedJob",
        "RoundRecord",
        "default_machine",
        "load_report",
        "load_specs",
    ):
        assert name in svc.__all__, name
    assert svc.SCHEMA == "repro.svc/1"


def test_top_level_couple_surface():
    """The coupling hub is part of the pinned public API."""
    import repro
    from repro import couple

    for name in (
        "ChannelSpec",
        "CoupleError",
        "JobGraph",
        "run_adapt_loop",
        "transfer_between",
    ):
        assert getattr(repro, name) is getattr(couple, name)
        assert name in repro.__all__, name
    assert "couple" in repro.__all__


def test_couple_subpackage_all():
    """Everything couple.__all__ names resolves, and the core names are in."""
    from repro import couple

    for name in couple.__all__:
        assert hasattr(couple, name), name
    for name in (
        "FRAME_SCHEMA",
        "Channel",
        "ChannelClosedError",
        "ChannelHub",
        "ChannelSpec",
        "CoupleError",
        "Endpoint",
        "FieldFrame",
        "GraphError",
        "JobGraph",
        "TransformSpec",
        "XferStats",
        "run_adapt_loop",
        "transfer_between",
    ):
        assert name in couple.__all__, name
    assert couple.FRAME_SCHEMA == "repro.couple/1"


def test_parallel_placement_surface():
    """The core-reservation API is exported from repro.parallel."""
    from repro import parallel

    for name in (
        "CoreLedger",
        "CoreSlot",
        "MachineTopology",
        "PlacedTopology",
        "TopologyError",
    ):
        assert hasattr(parallel, name), name
        assert name in parallel.__all__, name


def test_wire_codec_surface():
    """One wire codec, no knob: the removed names stay removed."""
    import repro
    import repro.mesh
    import repro.parallel
    from repro.parallel import CodecError, codec

    # CodecError is one class, importable from the top level too.
    assert repro.CodecError is CodecError
    assert "CodecError" in repro.__all__
    assert issubclass(CodecError, ValueError)
    # No codec registry, no per-mesh selector, no frozen object store.
    assert not hasattr(repro.parallel, "CODECS")
    assert "CODECS" not in repro.parallel.__all__
    assert not hasattr(repro.mesh, "EntityStore")
    mesh = rect_tri(2)
    with pytest.raises(TypeError):
        distribute(mesh, strips(mesh, 2), codec="pickle")
    assert not hasattr(distribute(mesh, strips(mesh, 2)), "codec")
    # The wire-format module surface used by the services.
    for name in (
        "MAGIC",
        "VERSION",
        "dumps",
        "loads",
        "encode_element_batch",
        "decode_element_batch",
        "encode_value_batch",
        "decode_value_batch",
        "value_head",
        "encode_value_columns",
        "decode_value_columns",
        "encode_int_rows",
        "decode_int_rows",
    ):
        assert hasattr(codec, name), name
    # Kind-3 frames are written from and read back into CSR columns.
    lengths, flat = codec.decode_int_rows(
        codec.encode_int_rows(np.array([2, 0, 1]), np.array([7, -8, 9]))
    )
    assert lengths.tolist() == [2, 0, 1] and flat.tolist() == [7, -8, 9]


def test_stats_carry_codec_counters():
    """Every comm-bearing stats record reports the codec counters, and they
    serialize through to_dict like the rest of the surface."""
    from repro import DistributedField, migrate, synchronize

    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 2))
    element = next(dm.part(0).mesh.entities(2))
    mstats = migrate(dm, {0: {element: 1}})
    assert mstats.encoded_bytes > 0
    assert mstats.messages_coalesced >= 1
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0])
    sstats = synchronize(df)
    d = sstats.to_dict()
    assert d["encoded_bytes"] == sstats.encoded_bytes > 0
    assert d["messages_coalesced"] == sstats.messages_coalesced > 0


def test_services_return_typed_stats():
    """No caller can depend on the old bare-int returns anymore."""
    from repro import (
        AccumulateStats,
        DistributedField,
        GhostDeleteStats,
        GhostStats,
        MigrateStats,
        SyncStats,
        accumulate,
        delete_ghosts,
        distribute,
        ghost_layer,
        migrate,
        synchronize,
    )

    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 2))
    element = next(dm.part(0).mesh.entities(2))
    mstats = migrate(dm, {0: {element: 1}})
    assert isinstance(mstats, MigrateStats) and not isinstance(mstats, int)
    assert mstats.elements_moved == 1
    assert sum(mstats.per_dimension) >= 1
    assert mstats.seconds >= 0.0
    assert "migrate" in mstats.summary()

    gstats = ghost_layer(dm)
    assert isinstance(gstats, GhostStats)
    assert gstats.ghosts_created > 0 and gstats.layers == 1
    dstats = delete_ghosts(dm)
    assert isinstance(dstats, GhostDeleteStats)
    assert dstats.entities_removed > 0

    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0])
    sstats = synchronize(df)
    assert isinstance(sstats, SyncStats)
    assert sstats.values_sent > 0 and sstats.messages > 0
    astats = accumulate(df)
    assert isinstance(astats, AccumulateStats)
    assert astats.values_sent == astats.contributions + astats.synced
    # Stats serialize to plain JSON-safe dicts.
    for stats in (mstats, gstats, dstats, sstats, astats):
        d = stats.to_dict()
        assert isinstance(d, dict) and "messages" in d


def test_star_forest_surface():
    """StarForest, Overlap and SFStats are pinned, and every distributed
    service routes through the forest (sf_ops > 0 on its stats)."""
    import dataclasses

    import repro
    from repro import DistributedField, Overlap, SFStats, StarForest
    from repro.parallel import StarForest as p_StarForest
    from repro.parallel.sf import OPS, SFComm
    from repro.partition import Overlap as pt_Overlap

    assert StarForest is p_StarForest
    assert Overlap is pt_Overlap
    assert "StarForest" in repro.__all__ and "Overlap" in repro.__all__
    assert OPS == ("replace", "sum", "min", "max")
    # One engine: bcast and reduce over part-pair batches, nothing beside.
    import repro.parallel as parallel_pkg
    from repro.parallel import sf as sf_module

    assert "INT_ROWS" not in parallel_pkg.__all__
    assert not hasattr(parallel_pkg, "INT_ROWS")
    assert not hasattr(sf_module, "INT_ROWS")
    assert not hasattr(StarForest, "fetch_and_op")
    assert not hasattr(StarForest, "compose")

    # Overlap is frozen and validated.
    ov = Overlap(depth=2, bridge_dim=1)
    assert [f.name for f in dataclasses.fields(Overlap)] == [
        "depth", "bridge_dim"
    ]
    with pytest.raises(Exception):
        ov.depth = 3
    with pytest.raises(ValueError):
        Overlap(depth=-1)
    assert Overlap.from_dict(ov.to_dict()) == ov

    # A depth-2 overlap builds and verifies, and every service reports the
    # star-forest operations it executed.
    from repro import (
        accumulate,
        delete_ghosts,
        distribute,
        ghost_layer,
        migrate,
        synchronize,
    )

    mesh = rect_tri(6)
    dm = distribute(mesh, strips(mesh, 3))
    gstats = ghost_layer(dm, overlap=Overlap(depth=2))
    dm.verify()
    assert gstats.layers == 2 and gstats.sf_ops == 2
    assert gstats.to_dict()["sf_ops"] == 2
    delete_ghosts(dm)
    element = next(dm.part(0).mesh.entities(2))
    assert migrate(dm, {0: {element: 1}}).sf_ops == 1
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0])
    assert synchronize(df).sf_ops == 1
    assert accumulate(df).sf_ops == 2

    # The raw primitive works standalone over SFComm, and returns SFStats.
    comm = SFComm(2)
    forest = StarForest(comm, name="t")
    forest.add_leaf(1, "a", 0, "r")
    got = {}
    stats = forest.bcast(lambda pid, h: 7, lambda pid, h, v: got.update({h: v}))
    assert isinstance(stats, SFStats)
    assert got == {"a": 7} and stats.nleaves == 1 and stats.supersteps == 1


def test_halo_plan_surface():
    """The halo graph is set once per link state: ``Part.links_version``
    counters, ``DistributedMesh.halo_plan`` keyed on them, a forest set
    from integer columns, a field's batch value mask and the datatype's
    integer-handle form."""
    import repro.partition as partition_pkg
    from repro.field import Field
    from repro.parallel.sf import VALUES, SFComm, StarForest
    from repro.partition import HaloPlan

    assert "HaloPlan" in partition_pkg.__all__
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 2))
    assert dm.links_version == tuple(part.links_version for part in dm)
    plan = dm.halo_plan(0)
    assert isinstance(plan, HaloPlan) and dm.halo_plan(0) is plan
    assert list(plan.owner_to_copy) == list(plan.copy_to_owner) == [(0, 1)]
    dm.add_part()
    assert len(dm.links_version) == 3 and dm.halo_plan(0) is not plan
    field = Field(mesh, "s")
    field.set(Ent(0, 2), 1.0)
    assert field.has_many(np.array([2, 3, 10**6])).tolist() == [
        True, False, False,
    ]
    forest = StarForest.from_columns(
        SFComm(2), {(0, 1): (np.array([3]), np.array([4]))}, name="c"
    )
    assert (forest.nleaves, forest.nroots) == (1, 1)
    assert forest.leaves() == [((1, 4), (0, 3))]
    assert VALUES.of_dim(0) is VALUES.of_dim(0)
    assert VALUES.of_dim(0).name == VALUES.name == "values"


def test_classification_surface():
    """Classification is an int16 column per dimension in ``MeshCore`` and
    one closure classifier derives it: the per-entity dicts, the fast-path
    classifier, the per-element closure filler and the unused field
    registry are gone."""
    import repro.field as field_pkg
    import repro.mesh as mesh_pkg
    from repro.mesh import Mesh, build

    assert not hasattr(mesh_pkg, "classify_cheap")
    assert not hasattr(build, "classify_cheap")
    assert not hasattr(build, "_classify_block")
    assert not hasattr(Mesh, "classify_closure_missing")
    # No per-entity dict: the instance state is the core, the code table
    # and the components (entities are found by the core's adjacency walk).
    assert sorted(vars(Mesh())) == [
        "_coords", "_destroy_listeners", "_gcode", "_gents",
        "core", "model", "sets", "tags",
    ]
    # Nor on a part: gids are columns, gid -> handle a join over them.
    from repro.partition.part import Part

    assert sorted(vars(Part(0))) == [
        "_ghosts", "_gid_arr", "_links", "_mesh", "links_version", "pid",
    ]
    assert not hasattr(field_pkg, "FieldManager")
    assert "FieldManager" not in field_pkg.__all__
    mesh = rect_tri(2)
    assert [col.dtype for col in mesh.core.gclass] == [np.int16] * 4
    for name in ("classify_closure", "classify_against", "class_codes",
                 "class_pairs", "copy_classification"):
        assert callable(getattr(Mesh, name)), name


def test_import_repro_leaves_scipy_unloaded():
    """``import repro`` stays light: scipy loads only where it is used."""
    import os
    import subprocess
    import sys

    import repro

    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout
