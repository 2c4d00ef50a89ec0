"""Tests for the ``repro.store/2`` format layer: state, diff, chunks."""

import json

import numpy as np
import pytest

from repro.mesh import rect_tri
from repro.partition import DistributedField, distribute, migrate
from repro.store import (
    CorruptSnapshotError,
    apply_delta,
    diff_states,
    state_from_dmesh,
)
from repro.store.format import (
    load_chunk,
    read_epoch_manifest,
    write_epoch,
)


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def make_dmesh(nparts=3, n=4):
    mesh = rect_tri(n)
    return distribute(mesh, strips(mesh, nparts)), mesh


def coord_field(dm, name="temp"):
    f = DistributedField(dm, name, 0, 1)
    for part in dm:
        local = f.on(part.pid)
        for v in part.mesh.entities(0):
            local.set(v, np.array([float(part.gid(v))]))
    return f


def test_state_is_part_count_agnostic():
    mesh = rect_tri(4)
    states = []
    for nparts in (1, 2, 4):
        dm = distribute(mesh, strips(mesh, nparts))
        f = coord_field(dm)
        states.append(state_from_dmesh(dm, [f]))
    base = states[0]
    for other in states[1:]:
        assert np.array_equal(other.verts, base.verts)
        assert np.array_equal(other.elems, base.elems)
        assert other.tags == base.tags
        upserts, removed = diff_states(base, other)
        assert upserts.record_count() == 0
        assert not any(removed.values())


def test_pure_migration_diffs_to_zero():
    """Moving entities between parts changes nothing canonical.

    The mesh/tag columns are keyed by global identity, so a migration is
    invisible to the diff.  (Field values are runtime state: a value whose
    only holding part handed the entity away is dropped from the canonical
    state, which the diff records as a removal — also exercised here.)
    """
    dm, _ = make_dmesh(nparts=3, n=4)
    f = coord_field(dm)
    before = state_from_dmesh(dm, [f])
    part0 = dm.part(0)
    elems = list(part0.mesh.entities(2))[:2]
    migrate(dm, {0: {e: 1 for e in elems}})
    after = state_from_dmesh(dm, [f])
    upserts, removed = diff_states(before, after)
    assert upserts.record_count() == 0
    assert removed["verts"] == []
    assert removed["elems"] == []
    assert removed["tags"] == []
    # Only field values may drop, and only ones the migration orphaned.
    orphaned = removed.get("fields", {}).get("temp", [])
    assert all(
        tuple(key) not in {
            tuple(g for g in k if g >= 0)
            for k in after.fields["temp"]["key"].tolist()
        }
        for key in orphaned
    )


def test_diff_then_apply_roundtrips():
    dm, _ = make_dmesh(nparts=2, n=4)
    f = coord_field(dm)
    before = state_from_dmesh(dm, [f])
    # Dirty a few owned field values and re-extract.
    part = dm.part(1)
    local = f.on(1)
    dirtied = 0
    for v in part.mesh.entities(0):
        if part.owns(v) and not part.is_ghost(v):
            local.set(v, np.array([123.5]))
            dirtied += 1
            if dirtied == 3:
                break
    after = state_from_dmesh(dm, [f])
    upserts, removed = diff_states(before, after)
    assert 0 < upserts.record_count() <= dirtied
    rebuilt = state_from_dmesh(dm, [f])  # independent copy of `after`
    apply_delta(before, upserts, removed)
    assert np.array_equal(before.verts, rebuilt.verts)
    assert np.array_equal(before.elems, rebuilt.elems)
    # Same keys, in the same order, with the same values.
    assert np.array_equal(before.fields["temp"]["key"],
                          rebuilt.fields["temp"]["key"])
    assert np.array_equal(before.fields["temp"]["value"],
                          rebuilt.fields["temp"]["value"])


def test_write_epoch_is_byte_deterministic(tmp_path):
    dm, _ = make_dmesh()
    f = coord_field(dm)
    state = state_from_dmesh(dm, [f])
    write_epoch(tmp_path / "a", state, chunk_records=16)
    write_epoch(tmp_path / "b", state, chunk_records=16)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_chunking_respects_chunk_records(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=4)
    state = state_from_dmesh(dm)
    manifest = write_epoch(tmp_path / "ep", state, chunk_records=8)
    for section, chunks in manifest["sections"].items():
        for entry in chunks:
            assert entry["count"] <= 8
    total = sum(
        e["count"] for chunks in manifest["sections"].values()
        for e in chunks
    )
    assert total == state.record_count() == manifest["records"]


def test_corrupt_chunk_names_file_and_full_hashes(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=3)
    state = state_from_dmesh(dm)
    manifest = write_epoch(tmp_path / "ep", state, chunk_records=64)
    entry = manifest["sections"]["elems"][0]
    chunk = tmp_path / "ep" / entry["file"]
    data = bytearray(chunk.read_bytes())
    data[0] ^= 0xFF
    chunk.write_bytes(bytes(data))
    with pytest.raises(CorruptSnapshotError) as err:
        load_chunk(tmp_path / "ep", manifest, "elems", entry)
    message = str(err.value)
    assert entry["file"] in message
    assert entry["sha256"] in message  # the full expected hash
    # ... and a full-length actual hash alongside it.
    assert message.count("sha256") >= 1
    hashes = [t for t in message.replace(":", " ").split() if len(t) == 64]
    assert len(hashes) >= 2


def test_manifest_validation(tmp_path):
    with pytest.raises(CorruptSnapshotError):
        read_epoch_manifest(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptSnapshotError):
        read_epoch_manifest(bad)
    (bad / "manifest.json").write_text(json.dumps({"format": "other/1"}))
    with pytest.raises(CorruptSnapshotError):
        read_epoch_manifest(bad)
