"""What a save -> load of a distributed mesh keeps, and what is refused.

These ran against ``partition/io.py`` (``repro.dmesh/2``) until that format
was retired; the same behaviours are now asked of the one checkpoint
format, ``repro.store/1`` through :class:`SnapshotStore` — and, for the two
never-unpickle tests, of the ``repro.dmesh/2`` converter.  A chunk file is
to a store epoch what a part file was to the old directory, so the
format-poking tests damage those.  The test ids did not move.
"""

import hashlib
import io
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.mesh import box_tet, rect_tri
from repro.partition import (
    DistributedField,
    distribute,
    ghost_layer,
    migrate,
)
from repro.store import (
    CorruptCheckpointError,
    SnapshotStore,
    convert_dmesh2,
    element_partition,
)

DMESH2_FIXTURE = (
    Path(__file__).resolve().parents[1] / "data" / "dmesh2-rect3-2parts"
)


def roundtrip(dm, tmp_path, fields=(), **load_kwargs):
    """Save ``dm`` as the store's first epoch and load it back."""
    store = SnapshotStore(tmp_path / "c")
    store.save(dm, fields)
    restored, loaded, _stats = store.load_at(**load_kwargs)
    return restored, loaded


def strips(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def test_roundtrip_counts_and_links(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())
    # Remote-link structure identical (same residence sets per shared gid).
    for part in dm:
        other = restored.part(part.pid)
        mine = {
            part.gid(ent): part.residence(ent) for ent in part.remotes
            if ent.dim == 0
        }
        theirs = {
            other.gid(ent): other.residence(ent) for ent in other.remotes
            if ent.dim == 0
        }
        assert mine == theirs


def test_roundtrip_3d(tmp_path):
    mesh = box_tet(2)
    dm = distribute(mesh, strips(mesh, 2, axis=2))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())


def test_roundtrip_classification(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 2))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    for part in restored:
        for v in part.mesh.entities(0):
            assert part.mesh.classification(v) is not None
        for e in part.mesh.entities(1):
            assert part.mesh.classification(e) is not None


def test_roundtrip_without_model(tmp_path):
    mesh = rect_tri(2)
    dm = distribute(mesh, strips(mesh, 2))
    restored, _ = roundtrip(dm, tmp_path)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())


def test_roundtrip_with_empty_part(tmp_path):
    mesh = rect_tri(2)
    dm = distribute(mesh, [0] * mesh.count(2), nparts=3)
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    restored.verify()
    # Parts that were empty stay empty; nothing is dealt onto them.
    assert element_partition(restored) == element_partition(dm)
    assert restored.part(1).mesh.count(2) == 0


def test_restored_mesh_is_operational(tmp_path):
    """Migration and ghosting work on a reloaded checkpoint (gid allocator
    and links restored)."""
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    element = next(restored.part(0).mesh.entities(2))
    migrate(restored, {0: {element: 1}})
    restored.verify()
    assert restored.entity_counts()[:, 2].sum() == mesh.count(2)
    ghost_layer(restored)
    restored.verify()
    assert any(part.ghosts for part in restored)


def test_checkpoint_after_adaptation(tmp_path):
    from repro.field import UniformSize
    from repro.partition import refine_distributed

    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 3))
    refine_distributed(dm, UniformSize(0.15))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())


# -- tags, fields, ghosts ------------------------------------------------------


def test_roundtrip_tags(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 2))
    for part in dm:
        vtag = part.mesh.tag("vlabel")
        for v in part.mesh.entities(0):
            vtag.set(v, int(part.gid(v)) * 10)
        etag = part.mesh.tag("region")
        for e in part.mesh.entities(2):
            etag.set(e, f"r{part.gid(e) % 3}")
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    for part in restored:
        vtag = part.mesh.tags.find("vlabel")
        assert vtag is not None
        for v in part.mesh.entities(0):
            assert vtag.get(v) == int(part.gid(v)) * 10
        etag = part.mesh.tags.find("region")
        assert etag is not None
        for e in part.mesh.entities(2):
            assert etag.get(e) == f"r{part.gid(e) % 3}"


def test_roundtrip_fields(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 3))
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0] + 2.0 * x[1])
    restored, fields = roundtrip(dm, tmp_path, [df], model=mesh.model)
    assert set(fields) == {"u"}
    ref = fields["u"]
    for part in restored:
        f = ref.fields[part.pid]
        for v in part.mesh.entities(0):
            x = part.mesh.coords(v)
            assert f.get(v) == pytest.approx(x[0] + 2.0 * x[1])


@pytest.mark.parametrize("make", [lambda: box_tet(2), lambda: rect_tri(5)])
@pytest.mark.parametrize("nparts", [None, 3])
def test_restore_gives_vertices_and_elements_gids_and_keys_identify(
    tmp_path, make, nparts
):
    """After a load every vertex and element carries a gid, no edge or face
    does, no two live entities of a part share a key, and a shared entity
    has one key on every holder."""
    mesh = make()
    dm = distribute(mesh, strips(mesh, 2, axis=1))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model, nparts=nparts)
    restored.verify()
    top = restored.element_dim()
    for part in restored:
        for dim in range(top + 1):
            ids = part.mesh.entity_ids(dim)
            gids = part.gids_of(dim, ids)
            if dim in (0, top):
                assert (gids >= 0).all(), (part.pid, dim)
            else:
                assert (gids < 0).all(), (part.pid, dim)
            keys = part.entity_keys(dim, ids)
            assert len(np.unique(keys, axis=0)) == len(ids), (part.pid, dim)
    for part in restored:
        for ent, copies in part.remotes.items():
            for other_pid, other_ent in copies.items():
                other = restored.part(other_pid)
                assert other.entity_key(other_ent) == part.entity_key(ent)


def test_ghosted_mesh_roundtrip_excludes_ghosts(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 3))
    pre_ghost = dm.entity_counts().copy()
    ghost_layer(dm)
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model)
    restored.verify()
    # Ghosts are runtime state: the snapshot holds only real entities.
    assert not any(part.ghosts for part in restored)
    assert np.array_equal(restored.entity_counts(), pre_ghost)
    # ...and ghosting is re-appliable on the restored mesh.
    ghost_layer(restored)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), pre_ghost)


# -- restore at a different part count ----------------------------------------


@pytest.mark.parametrize("target", [4, 16])
def test_restore_8_parts_at_other_counts(tmp_path, target):
    """Checkpoint at 8 parts, restart at 4 and 16 (the DMPlex property)."""
    mesh = rect_tri(6)
    dm = distribute(mesh, strips(mesh, 8))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model, nparts=target)
    restored.verify()
    assert restored.nparts == target
    for dim in range(3):
        assert restored.total_owned(dim) == dm.total_owned(dim)
    assert all(part.mesh.count(2) > 0 for part in restored)


def test_restore_other_count_keeps_tags_and_fields(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    for part in dm:
        tag = part.mesh.tag("mark")
        for e in part.mesh.entities(2):
            tag.set(e, int(part.gid(e)))
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: 5.0 * x[0])
    restored, fields = roundtrip(
        dm, tmp_path, [df], model=mesh.model, nparts=2
    )
    restored.verify()
    for part in restored:
        tag = part.mesh.tags.find("mark")
        for e in part.mesh.entities(2):
            assert tag.get(e) == int(part.gid(e))
        f = fields["u"].fields[part.pid]
        for v in part.mesh.entities(0):
            assert f.get(v) == pytest.approx(5.0 * part.mesh.coords(v)[0])


def test_restored_regrouped_mesh_is_operational(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    restored, _ = roundtrip(dm, tmp_path, model=mesh.model, nparts=2)
    element = next(restored.part(0).mesh.entities(2))
    migrate(restored, {0: {element: 1}})
    restored.verify()
    assert restored.entity_counts()[:, 2].sum() == mesh.count(2)


# -- integrity: typed corruption errors ---------------------------------------


def make_checkpoint(tmp_path):
    """A one-epoch store; returns ``(store, epoch directory)``."""
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 2))
    store = SnapshotStore(tmp_path / "c")
    return store, store.save(dm).path


def test_missing_manifest_is_typed(tmp_path):
    store, path = make_checkpoint(tmp_path)
    (path / "manifest.json").unlink()
    with pytest.raises(CorruptCheckpointError, match="manifest"):
        store.load_at(epoch=0)


def test_unparseable_manifest_is_typed(tmp_path):
    store, path = make_checkpoint(tmp_path)
    (path / "manifest.json").write_text("{nope")
    with pytest.raises(CorruptCheckpointError, match="manifest"):
        store.load_at(epoch=0)


def test_unsupported_format_is_typed(tmp_path):
    store, path = make_checkpoint(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format"] = "repro.store/99"
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptCheckpointError, match="format"):
        store.load_at(epoch=0)


def test_tampered_part_file_fails_hash_validation(tmp_path):
    store, path = make_checkpoint(tmp_path)
    chunk = path / "elems-000000.bin"
    data = bytearray(chunk.read_bytes())
    data[len(data) // 2] ^= 0xFF
    chunk.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpointError, match=r"elems-000000.*sha256"):
        store.load_at()


def test_truncated_part_file_is_typed_not_badzipfile(tmp_path):
    store, path = make_checkpoint(tmp_path)
    chunk = path / "verts-000000.bin"
    chunk.write_bytes(chunk.read_bytes()[:20])
    with pytest.raises(CorruptCheckpointError, match="verts-000000"):
        store.load_at()


def test_missing_part_file_is_typed(tmp_path):
    store, path = make_checkpoint(tmp_path)
    (path / "elems-000000.bin").unlink()
    with pytest.raises(CorruptCheckpointError, match="missing"):
        store.load_at()


# -- the old directories: decoded, never unpickled -----------------------------


def tampered_dmesh2(tmp_path, **arrays):
    """A copy of the ``repro.dmesh/2`` fixture whose ``part1.npz`` has the
    given members replaced — and the manifest hash redone, so only the
    parser stands between the member and the program."""
    path = tmp_path / "old"
    shutil.copytree(DMESH2_FIXTURE, path)
    part_file = path / "part1.npz"
    members = dict(np.load(part_file))
    members.update(arrays)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **members)
    part_file.write_bytes(buffer.getvalue())
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["files"]["part1.npz"] = hashlib.sha256(
        buffer.getvalue()
    ).hexdigest()
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def test_pickled_blob_is_rejected_not_unpickled(tmp_path):
    path = tampered_dmesh2(
        tmp_path,
        tag_blob=np.frombuffer(pickle.dumps({}), dtype=np.uint8),
    )
    store = SnapshotStore(tmp_path / "st")
    with pytest.raises(CorruptCheckpointError, match=r"part1\.npz.*CodecError"):
        convert_dmesh2(path, store)
    assert store.epochs() == []


class _Tripwire:
    """Unpickling this flips a flag — proof a loader ran ``pickle``."""

    fired = False

    def __reduce__(self):
        return (_trip, ())


def _trip():
    _Tripwire.fired = True
    return 0


def test_object_array_in_part_file_is_rejected_never_unpickled(tmp_path):
    path = tampered_dmesh2(
        tmp_path, vgids=np.asarray([_Tripwire()], dtype=object)
    )
    _Tripwire.fired = False
    store = SnapshotStore(tmp_path / "st")
    with pytest.raises(CorruptCheckpointError, match=r"part1\.npz"):
        convert_dmesh2(path, store)
    assert not _Tripwire.fired
    assert store.epochs() == []
