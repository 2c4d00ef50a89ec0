"""Tests for the rotated, hash-validated checkpoint manager."""

import numpy as np
import pytest

from repro.mesh import rect_tri
from repro.partition import DistributedField, distribute
from repro.resilience import (
    CheckpointManager,
    CorruptCheckpointError,
    NoCheckpointError,
)


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def make_dmesh(nparts=3, n=4):
    mesh = rect_tri(n)
    return distribute(mesh, strips(mesh, nparts)), mesh


def test_save_restore_roundtrip(tmp_path):
    dm, mesh = make_dmesh()
    manager = CheckpointManager(tmp_path / "ck")
    info = manager.save(dm, step=5)
    assert info.index == 0 and info.step == 5
    restored, fields, rinfo = manager.restore(model=mesh.model)
    restored.verify()
    assert rinfo.index == 0 and rinfo.step == 5
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())
    assert fields == {}


def test_restore_prefers_newest(tmp_path):
    dm, mesh = make_dmesh()
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0)
    manager.save(dm, step=1)
    _, _, info = manager.restore(model=mesh.model)
    assert info.step == 1 and info.index == 1


def test_rotation_keeps_last_k(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=2)
    manager = CheckpointManager(tmp_path / "ck", keep=2)
    for step in range(5):
        manager.save(dm, step=step)
    infos = manager.checkpoints()
    assert [info.index for info in infos] == [3, 4]
    assert [info.step for info in infos] == [3, 4]


def test_rotation_disabled_with_keep_zero(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=2)
    manager = CheckpointManager(tmp_path / "ck", keep=0)
    for step in range(4):
        manager.save(dm, step=step)
    assert len(manager.checkpoints()) == 4


def test_restore_falls_back_past_corrupt_checkpoint(tmp_path):
    dm, mesh = make_dmesh()
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0)
    newest = manager.save(dm, step=1)
    # Overwrite the head of a chunk file of the newest checkpoint.
    chunk = newest.path / "elems-000000.bin"
    chunk.write_bytes(b"garbage" + chunk.read_bytes()[7:])
    assert not manager.validate(newest)
    restored, _, info = manager.restore(model=mesh.model)
    restored.verify()
    assert info.step == 0  # fell back one epoch, not the whole run


def test_restore_raises_when_nothing_valid(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=2)
    manager = CheckpointManager(tmp_path / "ck")
    info = manager.save(dm, step=0)
    (info.path / "manifest.json").write_text("{broken")
    with pytest.raises(NoCheckpointError) as err:
        manager.restore()
    assert "skipped corrupt" in str(err.value)


def test_empty_directory_raises(tmp_path):
    manager = CheckpointManager(tmp_path / "ck")
    assert manager.latest() is None
    with pytest.raises(NoCheckpointError):
        manager.restore()


def test_stale_tmp_staging_is_ignored(tmp_path):
    """A crash mid-save leaves only a .tmp directory — never restorable."""
    dm, mesh = make_dmesh()
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0)
    # Simulate a crash mid-save: a half-written staging directory.
    staging = manager.root / "ckpt-000001.tmp"
    staging.mkdir()
    (staging / "manifest.json").write_text("{}")
    infos = manager.checkpoints()
    assert [info.index for info in infos] == [0]
    _, _, info = manager.restore(model=mesh.model)
    assert info.index == 0
    # The next save claims index 1 regardless of the stale staging dir.
    info = manager.save(dm, step=1)
    assert info.index == 1


def test_fields_roundtrip_through_manager(tmp_path):
    dm, mesh = make_dmesh()
    field = DistributedField(dm, "u")
    field.set_from_coords(lambda x: 3.0 * x[0] - x[1])
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0, fields=[field])
    restored, fields, _ = manager.restore(model=mesh.model)
    assert set(fields) == {"u"}
    ref = fields["u"]
    for part in restored:
        f = ref.fields[part.pid]
        for v in part.mesh.entities(0):
            x = part.mesh.coords(v)
            assert f.get(v) == pytest.approx(3.0 * x[0] - x[1])


def test_ghost_config_reapplied_on_restore(tmp_path):
    from repro.partition import Overlap, ghost_layer

    dm, mesh = make_dmesh()
    ghost_layer(dm, overlap=Overlap(depth=1, bridge_dim=0))
    ghosted_counts = dm.entity_counts().copy()
    manager = CheckpointManager(
        tmp_path / "ck", ghost_config=Overlap(depth=1, bridge_dim=0)
    )
    assert manager.ghost_config == {
        "overlap": {"depth": 1, "bridge_dim": 0},
        "tags": [],
    }
    with pytest.raises(ValueError, match="unexpected ghost_config keys"):
        CheckpointManager(
            tmp_path / "ck", ghost_config={"bridge_dim": 0, "layers": 1}
        )
    manager.save(dm, step=0)
    restored, _, _ = manager.restore(model=mesh.model)
    restored.verify()
    # entity_counts excludes ghosts; compare total live entities instead.
    total = lambda d: sum(
        part.mesh.count(dim) for part in d for dim in range(3)
    )
    assert total(restored) == total(dm)
    assert any(part.ghosts for part in restored)
    assert np.array_equal(restored.entity_counts(), ghosted_counts)


def test_restore_at_different_part_count(tmp_path):
    dm, mesh = make_dmesh(nparts=3, n=4)
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0)
    wider, _, _ = manager.restore(model=mesh.model, nparts=5)
    wider.verify()
    assert wider.nparts == 5
    for dim in range(3):
        assert wider.total_owned(dim) == dm.total_owned(dim)


def test_keep_must_be_nonnegative(tmp_path):
    with pytest.raises(ValueError):
        CheckpointManager(tmp_path / "ck", keep=-1)
