"""The owner column: a load at the saved part count restores the partition.

It is the one part-dependent file of an epoch — hashed like every chunk,
written whole beside full *and* delta records, carried by ``materialize``,
``compact``, ``prune`` and the warm-start cache, ignored at any other part
count, and required: a manifest that names no owner column is refused.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from repro.mesh import box_tet, rect_tri
from repro.parallel import codec
from repro.partition import DistributedField, distribute, migrate
from repro.resilience import CheckpointManager
from repro.store import (
    CorruptSnapshotError,
    SnapshotCache,
    SnapshotStore,
    element_partition,
    field_checksum,
    owned_gid_set,
)
from repro.store.format import _manifest_digest

def reversed_strips(mesh, nparts):
    """Strips along x, numbered right to left: never the loader's own
    contiguous sorted-gid deal, so a regrouped restore cannot pass."""
    return [
        nparts - 1 - min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def gid_field(dm):
    f = DistributedField(dm, "temp", 0, 1)
    for part in dm:
        local = f.on(part.pid)
        for v in part.mesh.entities(0):
            local.set(v, np.array([float(part.gid(v))]))
    return f


def assert_same_partition(restored, saved):
    restored.verify()
    assert element_partition(restored) == element_partition(saved)
    assert np.array_equal(restored.entity_counts(), saved.entity_counts())


def regrouped(dm, nparts):
    """The contiguous sorted-gid deal a load without the column makes."""
    ordered = sorted(owned_gid_set(dm, dm.element_dim()))
    total = len(ordered)
    return [
        [g for j, g in enumerate(ordered) if j * nparts // total == pid]
        for pid in range(nparts)
    ]


@pytest.mark.parametrize(
    "make", [lambda: rect_tri(4), lambda: box_tet(2)], ids=["tri", "tet"]
)
def test_same_count_load_keeps_the_partition_through_an_epochs_life(
    tmp_path, make
):
    mesh = make()
    dim = mesh.dim()
    # Three strips on four parts: part 3 starts empty and must stay so.
    dm = distribute(mesh, reversed_strips(mesh, 3), nparts=4)
    f = gid_field(dm)
    store = SnapshotStore(tmp_path / "st", chunk_records=16)

    assert store.save(dm, [f]).kind == "full"
    first = element_partition(dm)
    assert first[3] == [] and first != regrouped(dm, 4)
    restored, _, _ = store.load_at(model=mesh.model)
    assert_same_partition(restored, dm)

    # A pure migration diffs to zero records, yet the delta epoch carries
    # the partition it was saved on — onto the part that was empty, too.
    moving = list(dm.part(0).mesh.entities(dim))[:2]
    migrate(dm, {0: {e: 3 for e in moving}})
    delta = store.save(dm, [f])
    assert (delta.kind, delta.records) == ("delta", 0)
    second = element_partition(dm)
    assert second != first and len(second[3]) == 2
    restored, _, _ = store.load_at(model=mesh.model)
    assert_same_partition(restored, dm)
    older, _, _ = store.load_at(epoch=0, model=mesh.model)
    assert element_partition(older) == first

    # Compaction rewrites the delta as a full epoch: same partition.
    assert store.compact(1).kind == "full"
    restored, _, _ = store.load_at(epoch=1, model=mesh.model)
    assert_same_partition(restored, dm)

    # Rotation past the base epoch: only a compacted tip survives.
    moving = list(dm.part(1).mesh.entities(dim))[:1]
    migrate(dm, {1: {e: 2 for e in moving}})
    assert store.save(dm, [f]).kind == "delta"
    assert store.prune(1) == [0, 1]
    assert [(e.index, e.kind) for e in store.epochs()] == [(2, "full")]
    restored, fields, _ = store.load_at(model=mesh.model)
    assert_same_partition(restored, dm)
    assert set(fields) == {"temp"}

    # Any other count ignores the column: same mesh, regrouped.
    for target in (2, 8):
        other, fields, _ = store.load_at(nparts=target, model=mesh.model)
        other.verify()
        assert element_partition(other) == regrouped(dm, target)
        assert owned_gid_set(other, dim) == owned_gid_set(dm, dim)
        assert round(field_checksum(other, fields["temp"]), 9) == round(
            field_checksum(dm, f), 9
        )


def test_warm_start_cache_returns_the_published_partition(tmp_path):
    mesh = rect_tri(4)
    cache = SnapshotCache(tmp_path / "cache")
    built = []

    def build():
        dm = distribute(mesh, reversed_strips(mesh, 3))
        built.append(dm)
        return dm, [gid_field(dm)]

    _, _, warm = cache.warm_start("w", {"n": 4}, 3, build)
    assert not warm
    hit, fields, warm = cache.warm_start(
        "w", {"n": 4}, 3, build, model=mesh.model
    )
    assert warm and len(built) == 1 and set(fields) == {"temp"}
    assert_same_partition(hit, built[0])


# -- integrity -----------------------------------------------------------------


def rewrite_owner(epoch, column):
    """Replace the column by a well-formed one, manifest hashes redone —
    only the count and range checks stand between it and the loader."""
    manifest = json.loads((epoch / "manifest.json").read_text())
    entry = manifest["owner"]
    blob = codec.dumps(np.asarray(column, dtype=np.uint8))
    (epoch / entry["file"]).write_bytes(blob)
    entry.update(
        sha256=hashlib.sha256(blob).hexdigest(),
        count=len(column),
        bytes=len(blob),
    )
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    (epoch / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True)
    )


def tamper(epoch, column):
    data = bytearray((epoch / "owner.bin").read_bytes())
    data[-1] ^= 0x01
    (epoch / "owner.bin").write_bytes(bytes(data))


def truncate(epoch, column):
    (epoch / "owner.bin").write_bytes((epoch / "owner.bin").read_bytes()[:9])


def wrong_count(epoch, column):
    rewrite_owner(epoch, column[:-1])


def out_of_range(epoch, column):
    rewrite_owner(epoch, column[:-1] + [3])  # parts are 0..2


@pytest.mark.parametrize(
    "damage", [tamper, truncate, wrong_count, out_of_range]
)
def test_damaged_owner_column_is_typed_and_costs_one_epoch(tmp_path, damage):
    mesh = rect_tri(4)
    dm = distribute(mesh, reversed_strips(mesh, 3))
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0)
    newest = manager.save(dm, step=1)
    store = manager._store()
    column = store.materialize(newest.index).owner.tolist()
    assert len(column) == mesh.count(2) and set(column) == {0, 1, 2}

    damage(newest.path, column)
    for read in (store.load_at, store.materialize):
        with pytest.raises(CorruptSnapshotError, match=r"owner\.bin"):
            read()
    assert not manager.validate(newest)
    restored, _, info = manager.restore(model=mesh.model)
    assert info.step == 0  # fell back one epoch — never onto a regrouping
    assert_same_partition(restored, dm)
    # A load at another count never opens the column.
    other, _, _ = store.load_at(nparts=2, epoch=newest.index)
    assert element_partition(other) == regrouped(dm, 2)


def test_a_save_that_dies_midway_leaves_no_epoch(tmp_path, monkeypatch):
    """An epoch exists only once its directory is renamed into place."""
    from repro.store import format as store_format

    mesh = rect_tri(4)
    dm = distribute(mesh, reversed_strips(mesh, 3))
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    write = store_format._atomic_write_bytes

    def dying(path, data):
        if path.name == "manifest.json":  # the last file of an epoch
            raise OSError("disk full")
        write(path, data)

    monkeypatch.setattr(store_format, "_atomic_write_bytes", dying)
    with pytest.raises(OSError, match="disk full"):
        store.save(dm)
    monkeypatch.undo()
    assert [index for index, _ in store.indexed_dirs()] == [0]
    assert (store.root / "epoch-000001.tmp" / "owner.bin").is_file()
    restored, _, _ = store.load_at(model=mesh.model)
    assert_same_partition(restored, dm)
    # The next save clears the stale staging directory and takes its index.
    assert store.save(dm).index == 1
    assert not list(store.root.rglob("*.tmp"))


# -- manifests the one reader refuses -----------------------------------------


def as_store1(manifest):
    manifest["format"] = "repro.store/1"
    manifest["manifest_sha256"] = _manifest_digest(manifest)


def without_digest(manifest):
    del manifest["manifest_sha256"]


def without_owner(manifest):
    del manifest["owner"]
    manifest["manifest_sha256"] = _manifest_digest(manifest)


@pytest.mark.parametrize("edit, why", [
    (as_store1, "unsupported snapshot format 'repro.store/1'"),
    (without_digest, "misses 'manifest_sha256'"),
    (without_owner, "misses 'owner'"),
], ids=["store1", "no-digest", "no-owner"])
def test_an_old_or_incomplete_manifest_is_refused_naming_it(
    tmp_path, edit, why
):
    """Only ``repro.store/2`` with its owner column and digest loads: an
    earlier layout is an error naming the manifest, never a regrouping."""
    mesh = rect_tri(4)
    dm = distribute(mesh, reversed_strips(mesh, 3))
    store = SnapshotStore(tmp_path / "st")
    path = store.save(dm, [gid_field(dm)]).path / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    message = f"{re.escape(str(path))}: .*{re.escape(why)}"
    for read in (store.load_at, store.materialize, store.compact,
                 lambda: store.load_at(nparts=2, epoch=0)):
        with pytest.raises(CorruptSnapshotError, match=message):
            read()
    assert store.epochs() == []
    (other,) = store.inspect()["other_dirs"]
    assert why in other["error"]
