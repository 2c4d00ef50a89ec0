"""Seeded truncate / bit-flip fuzz over every file of a ``repro.store/2`` chain.

In the style of ``tests/parallel/test_fuzz_codec.py``, one level up: the
unit of damage is a file of an epoch directory — a chunk, the owner column
or the manifest — anywhere in a full → delta → delta chain.  The property:
reading the tip either raises :class:`CorruptSnapshotError` naming the
damaged file, or returns exactly what the undamaged chain returns (damage
to a file the read never opens, e.g. an ancestor's owner column).  A typed
error, never a wrong answer.
"""

import random

import numpy as np

from repro.field import UniformSize
from repro.mesh import rect_tri
from repro.partition import (
    DistributedField,
    distribute,
    migrate,
    refine_distributed,
)
from repro.store import (
    CorruptSnapshotError,
    SnapshotStore,
    element_partition,
    field_checksum,
    owned_gid_set,
)

TRUNCATIONS = 5
BIT_FLIPS = 40
TIP = 2


def build_chain(root):
    mesh = rect_tri(3)
    assignment = [
        2 - min(int(mesh.centroid(e)[0] * 3), 2) for e in mesh.entities(2)
    ]
    dm = distribute(mesh, assignment)
    temp = DistributedField(dm, "temp", 0, 1)
    load = DistributedField(dm, "load", 2, 2)
    for part in dm:
        label = part.mesh.tag("label")
        for v in part.mesh.entities(0):
            temp.on(part.pid).set(v, np.array([float(part.gid(v))]))
            label.set(v, f"v{part.gid(v)}")
        region = part.mesh.tag("region")
        for e in part.mesh.entities(2):
            load.on(part.pid).set(e, np.array([1.0, 0.5 * part.gid(e)]))
            region.set(e, int(part.gid(e)) % 4)
    store = SnapshotStore(root, chunk_records=16)
    assert store.save(dm, [temp, load]).kind == "full"

    moving = list(dm.part(0).mesh.entities(2))[:2]
    migrate(dm, {0: {e: 1 for e in moving}})
    for v in list(dm.part(2).mesh.entities(0))[:3]:
        temp.on(2).set(v, np.array([-1.0]))
    assert store.save(dm, [temp, load]).kind == "delta"

    refine_distributed(dm, UniformSize(0.25))
    tip = store.save(dm, [temp, load])
    assert (tip.kind, tip.index) == ("delta", TIP) and tip.records > 0
    return store


def read_load_at(store):
    dm, fields, _stats = store.load_at(epoch=TIP)
    return (
        [owned_gid_set(dm, d) for d in range(3)],
        element_partition(dm),
        {n: round(field_checksum(dm, f), 9) for n, f in sorted(fields.items())},
    )


def columns(rows):
    return {name: rows[name].tolist() for name in rows.dtype.names}


def read_materialize(store):
    state = store.materialize(TIP)
    return (
        columns(state.verts),
        columns(state.elems),
        sorted(state.tags.items()),
        {name: columns(rows) for name, rows in sorted(state.fields.items())},
        state.gid_next,
        state.owner.tolist(),
    )


READS = (read_load_at, read_materialize)


def damaged_copies(data, rng):
    """``(label, bytes)``: 5 truncations, then 40 seeded single-bit flips."""
    size = len(data)
    for cut in sorted({0, 1, size // 3, size // 2, size - 1})[:TRUNCATIONS]:
        yield f"cut@{cut}", data[:cut]
    for _ in range(BIT_FLIPS):
        bit = rng.randrange(size * 8)
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"flip@{bit}", bytes(flipped)


def test_every_file_of_every_epoch_typed_error_or_the_clean_answer(tmp_path):
    store = build_chain(tmp_path / "st")
    clean = [read(store) for read in READS]
    files = sorted(
        path for _index, epoch in store.indexed_dirs()
        for path in epoch.iterdir()
    )
    kinds = {path.name.split("-")[0] for path in files}
    assert {"manifest.json", "owner.bin", "verts", "elems", "tags",
            "field0", "field1"} <= kinds
    assert len(files) >= 3 * 7

    rng = random.Random(20)
    wrong, raised, survivors = [], 0, set()
    for path in files:
        name = f"{path.parent.name}/{path.name}"
        original = path.read_bytes()
        for label, data in damaged_copies(original, rng):
            path.write_bytes(data)
            for read, expected in zip(READS, clean):
                try:
                    got = read(store)
                except CorruptSnapshotError as exc:
                    raised += 1
                    if name not in str(exc):
                        wrong.append(f"{name} {label}: error names no file: {exc}")
                    continue
                survivors.add(name)
                if got != expected:
                    wrong.append(f"{name} {label}: {read.__name__} differs")
        path.write_bytes(original)
    assert not wrong, "\n".join(wrong[:20])
    # Every chunk and the tip's owner column are caught every time.  What
    # may read clean: an ancestor's owner column (a read of the tip never
    # opens it) and a manifest flipped inside the name of its own digest
    # key (an epoch from before the digest carries none, so it is optional).
    assert raised > 2000
    assert {"epoch-000000/owner.bin", "epoch-000001/owner.bin"} <= survivors
    assert all(
        name.endswith("manifest.json") or name in (
            "epoch-000000/owner.bin", "epoch-000001/owner.bin"
        )
        for name in survivors
    ), sorted(survivors)
    assert [read(store) for read in READS] == clean
