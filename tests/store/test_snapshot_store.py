"""Tests for `SnapshotStore`: epochs, parallel load, compaction, cache."""

import numpy as np
import pytest

from repro.field import AnalyticSize
from repro.mesh import box_tet, rect_tri
from repro.obs import Tracer
from repro.parallel.perf import PerfCounters
from repro.partition import (
    DistributedField,
    distribute,
    migrate,
    refine_distributed,
)
from repro.partitioners import partition
from repro.store import (
    CorruptSnapshotError,
    SnapshotCache,
    SnapshotStore,
    current_cache,
    field_checksum,
    install_cache,
    owned_gid_set,
    uninstall_cache,
)


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def make_dmesh(nparts=4, n=4):
    mesh = rect_tri(n)
    return distribute(mesh, strips(mesh, nparts)), mesh


def coord_field(dm, name="temp"):
    f = DistributedField(dm, name, 0, 1)
    for part in dm:
        local = f.on(part.pid)
        for v in part.mesh.entities(0):
            local.set(v, np.array([float(part.gid(v))]))
    return f


def parity(dm, fields):
    return (
        owned_gid_set(dm, dm.element_dim()),
        {
            name: round(field_checksum(dm, f), 9)
            for name, f in sorted(fields.items())
        },
    )


@pytest.mark.parametrize("target", [1, 2, 8])
def test_parallel_load_any_part_count(tmp_path, target):
    dm, mesh = make_dmesh(nparts=4, n=4)
    f = coord_field(dm)
    store = SnapshotStore(tmp_path / "st", chunk_records=16)
    store.save(dm, [f])
    expect = (owned_gid_set(dm, 2), round(field_checksum(dm, f), 9))
    dm2, fields, stats = store.load_at(nparts=target, model=mesh.model)
    dm2.verify()
    assert dm2.nparts == target
    assert owned_gid_set(dm2, 2) == expect[0]
    assert round(field_checksum(dm2, fields["temp"]), 9) == expect[1]
    assert stats.op == "load" and stats.nparts == target
    assert stats.chunks > 0 and stats.records > 0


def test_load_defaults_to_saved_nparts(tmp_path):
    dm, mesh = make_dmesh(nparts=3)
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    dm2, _, _ = store.load_at(model=mesh.model)
    assert dm2.nparts == 3


def test_delta_chain_save_and_load(tmp_path):
    dm, mesh = make_dmesh(nparts=4, n=6)
    f = coord_field(dm)
    store = SnapshotStore(tmp_path / "st", chunk_records=16)
    e0 = store.save(dm, [f])
    assert e0.kind == "full"

    part0 = dm.part(0)
    elems = list(part0.mesh.entities(2))[:2]
    migrate(dm, {0: {e: 1 for e in elems}})
    e1 = store.save(dm, [f])
    assert e1.kind == "delta"
    # A pure migration changes nothing canonical: the delta is empty.
    assert e1.records == 0

    local = f.on(1)
    part1 = dm.part(1)
    dirtied = 0
    for v in part1.mesh.entities(0):
        if part1.owns(v) and not part1.is_ghost(v):
            local.set(v, np.array([999.0]))
            dirtied += 1
            if dirtied == 4:
                break
    e2 = store.save(dm, [f])
    assert e2.kind == "delta" and 0 < e2.records <= dirtied
    assert e2.payload_bytes < 0.25 * e0.payload_bytes

    want = parity(dm, {"temp": f})
    for target in (1, 3, 8):
        dm2, fields, stats = store.load_at(nparts=target, model=mesh.model)
        dm2.verify()
        assert parity(dm2, fields) == want
        assert stats.chain_length == 3


def test_full_every_caps_chain_length(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=3)
    store = SnapshotStore(tmp_path / "st", full_every=2)
    kinds = [store.save(dm).kind for _ in range(5)]
    assert kinds == ["full", "delta", "full", "delta", "full"]


def test_compact_is_deterministic_and_equivalent(tmp_path):
    dm, mesh = make_dmesh(nparts=3, n=4)
    f = coord_field(dm)
    for root in ("a", "b"):
        store = SnapshotStore(tmp_path / root, chunk_records=16)
        store.save(dm, [f])
        local = f.on(0)
        part0 = dm.part(0)
        v = next(
            v for v in part0.mesh.entities(0)
            if part0.owns(v) and not part0.is_ghost(v)
        )
        local.set(v, np.array([5.5])) if root == "a" else None
        # both stores get the same final state: re-set deterministically
        local.set(v, np.array([5.5]))
        store.save(dm, [f])
        store.compact()
    tip_a = SnapshotStore(tmp_path / "a").tip()
    tip_b = SnapshotStore(tmp_path / "b").tip()
    assert tip_a.kind == tip_b.kind == "full"
    for chunk in sorted(p.name for p in tip_a.path.iterdir()):
        assert (tip_a.path / chunk).read_bytes() == (
            tip_b.path / chunk
        ).read_bytes()
    want = parity(dm, {"temp": f})
    dm2, fields, _ = SnapshotStore(tmp_path / "a").load_at(
        nparts=2, model=mesh.model
    )
    assert parity(dm2, fields) == want


def test_prune_compacts_surviving_delta(tmp_path):
    dm, mesh = make_dmesh(nparts=2, n=3)
    store = SnapshotStore(tmp_path / "st")
    for _ in range(4):
        store.save(dm)
    assert [e.kind for e in store.epochs()] == [
        "full", "delta", "delta", "delta"
    ]
    pruned = store.prune(2)
    assert pruned == [0, 1]
    kinds = {e.index: e.kind for e in store.epochs()}
    assert kinds == {2: "full", 3: "delta"}
    dm2, _, _ = store.load_at(model=mesh.model)
    assert owned_gid_set(dm2, 2) == owned_gid_set(dm, 2)
    assert store.prune(0) == []  # unlimited sentinel


def test_broken_chain_raises(tmp_path):
    import shutil

    dm, _ = make_dmesh(nparts=2, n=3)
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    store.save(dm)
    shutil.rmtree(store.epochs()[0].path)
    with pytest.raises(CorruptSnapshotError):
        store.load_at(nparts=2)
    # ...but a fresh save recovers with a full epoch (corrupt parent).
    info = store.save(dm)
    assert info.kind == "full"


def test_counters_and_spans(tmp_path):
    dm, mesh = make_dmesh(nparts=2, n=3)
    counters = PerfCounters()
    tracer = Tracer(counters=counters)
    tracer.bind(pid=0, tid=0)
    store = SnapshotStore(tmp_path / "st", counters=counters, tracer=tracer)
    store.save(dm)
    assert counters.get("store.epochs.full") == 1
    assert counters.get("store.chunks.written") > 0
    assert counters.get("store.bytes.written") > 0
    dm2, _, stats = store.load_at(nparts=2, model=mesh.model, counters=counters)
    assert counters.get("store.chunks.read") >= stats.chunks > 0
    assert counters.get("store.records.loaded") > 0
    names = [s.name for root in tracer.roots for s in root.walk()]
    assert "store.save" in names and "store.load" in names
    assert "sf.bcast" in names  # the redistribution rides the star forest


def test_cache_hit_miss_and_warm_start(tmp_path):
    dm, _ = make_dmesh(nparts=4, n=4)
    counters = PerfCounters()
    cache = SnapshotCache(tmp_path / "cache", counters=counters)
    params = {"n": 4}
    assert cache.fetch("w", params, nparts=2) is None
    assert counters.get("store.cache.misses") == 1
    cache.put("w", params, dm)
    got = cache.fetch("w", params, nparts=2)
    assert got is not None
    assert counters.get("store.cache.hits") == 1
    dm2, _, _ = got
    assert owned_gid_set(dm2, 2) == owned_gid_set(dm, 2)

    calls = []

    def build():
        calls.append(1)
        return make_dmesh(nparts=2, n=5)[0], ()

    m1, _, warm1 = cache.warm_start("x", {"n": 5}, 2, build)
    m2, _, warm2 = cache.warm_start("x", {"n": 5}, 2, build)
    assert (warm1, warm2) == (False, True)
    assert len(calls) == 1  # geometry generation skipped on the hit
    assert owned_gid_set(m1, 2) == owned_gid_set(m2, 2)


def test_install_current_uninstall():
    assert current_cache() is None
    cache = SnapshotCache("/tmp/unused-cache-root")
    try:
        assert install_cache(cache) is cache
        assert current_cache() is cache
    finally:
        uninstall_cache()
    assert current_cache() is None


def _values_by_key(dm, dfield):
    """``({key: value}, values held)`` of a field over every part's copies."""
    d = dfield.entity_dim
    by_key, held = {}, 0
    for part in dm:
        local = dfield.on(part.pid)
        ids = part.mesh.entity_ids(d)
        ids = ids[local.has_many(ids)]
        held += len(ids)
        by_key.update(zip(
            map(tuple, part.entity_keys(d, ids).tolist()),
            local.get_many(ids).ravel().tolist(),
        ))
    return by_key, held


def test_refined_edge_and_face_fields_checkpoint_whole(tmp_path):
    """Refinement creates edges and faces nobody numbers; fields on them
    come back from a checkpoint complete, matched by key."""
    mesh = box_tet(3)
    dm = distribute(mesh, partition(mesh, 2, method="rcb"))
    refine_distributed(
        dm, AnalyticSize(lambda x: 0.15 if x[0] < 0.3 else 1.0), max_passes=1
    )
    fields = []
    for d in (1, 2):
        dfield = DistributedField(dm, f"on{d}", d, 1)
        for part in dm:
            ids = part.mesh.entity_ids(d)
            keys = part.entity_keys(d, ids)
            dfield.on(part.pid).set_many(ids, (keys + 1).prod(axis=1) + 0.5)
        fields.append(dfield)
    store = SnapshotStore(tmp_path / "st")
    store.save(dm, fields)
    restored, loaded, _stats = store.load_at(model=mesh.model)
    restored.verify()
    for dfield in fields:
        want = _values_by_key(dm, dfield)
        assert want[1] == sum(part.mesh.count(dfield.entity_dim) for part in dm)
        assert _values_by_key(restored, loaded[dfield.name]) == want
