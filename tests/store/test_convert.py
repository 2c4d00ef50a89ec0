"""`convert_dmesh2` / ``snapshot migrate``: an old directory, one full epoch.

The input is a real ``repro.dmesh/2`` directory written by the last commit
that could write one (``tests/data/README.md``).  The never-unpickle
tripwires for the converter live in ``tests/partition/test_io.py``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.store import (
    CorruptCheckpointError,
    SnapshotStore,
    convert_dmesh2,
    element_partition,
)

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "dmesh2-rect3-2parts"
SAVED_PARTITION = [
    [0, 1, 2, 3, 4, 5, 7, 9, 11],
    [6, 8, 10, 12, 13, 14, 15, 16, 17],
]


def assert_is_the_saved_mesh(store):
    dm, fields, stats = store.load_at()
    dm.verify()
    assert dm.nparts == 2 and stats.extra["step"] == 3
    assert element_partition(dm) == SAVED_PARTITION
    assert set(fields) == {"u"}
    for part in dm:
        mark = part.mesh.tags.find("mark")
        for e in part.mesh.entities(2):
            assert mark.get(e) == 10 * part.gid(e)
        u = fields["u"].on(part.pid)
        for v in part.mesh.entities(0):
            x = part.mesh.coords(v)
            assert u.get(v) == pytest.approx(x[0] + 2.0 * x[1])
    return dm


def test_snapshot_migrate_then_load(tmp_path, capsys):
    store_dir = tmp_path / "migrated"
    assert main(
        ["snapshot", "migrate", "--from", str(FIXTURE), "--store", str(store_dir)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["migrated"]["kind"] == "full" and doc["migrated"]["step"] == 3
    store = SnapshotStore(store_dir)
    dm = assert_is_the_saved_mesh(store)
    # One loader: it is an ordinary epoch — other counts, deltas on top.
    wider, _, _ = store.load_at(nparts=3)
    wider.verify()
    assert wider.total_owned(2) == dm.total_owned(2) == 18
    assert store.save(dm).kind == "delta"

    assert main(["snapshot", "load", "--store", str(store_dir)]) == 0
    assert json.loads(capsys.readouterr().out)["nparts"] == 2
    assert main(["snapshot", "migrate", "--store", str(store_dir)]) == 2


def test_converter_appends_to_a_store_that_has_epochs(tmp_path):
    store = SnapshotStore(tmp_path / "st")
    first = convert_dmesh2(FIXTURE, store)
    second = convert_dmesh2(FIXTURE, store)
    assert (first.index, second.index) == (0, 1)
    assert second.kind == "full" and second.parent is None
    assert_is_the_saved_mesh(store)


@pytest.mark.parametrize(
    "damage, named",
    [
        (lambda d: (d / "manifest.json").unlink(), "manifest.json"),
        (lambda d: (d / "manifest.json").write_text("{nope"), "manifest.json"),
        (
            lambda d: (d / "manifest.json").write_text(
                (d / "manifest.json").read_text().replace("dmesh/2", "dmesh/9")
            ),
            "manifest.json",
        ),
        (lambda d: (d / "part1.npz").unlink(), "part1.npz"),
        (
            lambda d: (d / "part0.npz").write_bytes(
                (d / "part0.npz").read_bytes()[:40]
            ),
            "part0.npz",
        ),
    ],
    ids=["no-manifest", "bad-json", "other-format", "no-part", "truncated"],
)
def test_damaged_old_directory_is_typed_and_writes_nothing(
    tmp_path, capsys, damage, named
):
    old = tmp_path / "old"
    shutil.copytree(FIXTURE, old)
    damage(old)
    store = SnapshotStore(tmp_path / "st")
    with pytest.raises(CorruptCheckpointError, match=named):
        convert_dmesh2(old, store)
    assert store.epochs() == [] and store.indexed_dirs() == []
    assert main(
        ["snapshot", "migrate", "--from", str(old), "--store", str(store.root)]
    ) == 1
    assert named in capsys.readouterr().err
