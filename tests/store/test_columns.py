"""``repro.store/2``: chunks are checked columns.

A chunk of ``verts``/``elems``/``field<i>`` is one codec frame of
row-aligned arrays.  It comes from outside the program, so every column is
checked on decode.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.mesh import Ent, box_tet, rect_tri
from repro.parallel import codec
from repro.partition import DistributedField, distribute
from repro.store import (
    FORMAT,
    CorruptSnapshotError,
    SnapshotStore,
    field_checksum,
)
from repro.store.format import _manifest_digest


# -- checked columns -----------------------------------------------------------


def rewrite_chunk(epoch, section, mutate):
    """Replace the first chunk of ``section`` by ``mutate(columns)``, the
    manifest's hashes redone: only the column checks stand in the way."""
    manifest = json.loads((epoch / "manifest.json").read_text())
    entry = manifest["sections"][section][0]
    frame = codec.loads((epoch / entry["file"]).read_bytes())
    blob = codec.dumps(mutate(frame))
    (epoch / entry["file"]).write_bytes(blob)
    entry.update(sha256=hashlib.sha256(blob).hexdigest(), bytes=len(blob))
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    (epoch / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True)
    )
    return entry["file"]


def short_column(frame):
    return {**frame, "gid": frame["gid"][:-1]}


def wrong_dtype(frame):
    return {**frame, "xyz": frame["xyz"].astype(np.int64)}


def signed_gids(frame):
    return {**frame, "gid": frame["gid"].astype(np.int64)}


def not_an_array(frame):
    return {**frame, "class": frame["class"].tolist()}


def missing_column(frame):
    return {"gid": frame["gid"], "xyz": frame["xyz"]}


def records(frame):
    return [[1, [0.0, 0.0, 0.0], 0, 0]] * len(frame["gid"])


@pytest.mark.parametrize(
    "mutate",
    [short_column, wrong_dtype, signed_gids, not_an_array, missing_column,
     records],
)
def test_a_bad_column_is_a_typed_error_naming_the_chunk(tmp_path, mutate):
    mesh = rect_tri(3)
    dm = distribute(mesh, [e.idx % 2 for e in mesh.entities(2)])
    store = SnapshotStore(tmp_path / "st", chunk_records=8)
    epoch = store.save(dm).path
    name = rewrite_chunk(epoch, "verts", mutate)
    for read in (store.load_at, store.materialize):
        with pytest.raises(CorruptSnapshotError, match=name):
            read()


def test_field_and_element_chunks_are_columns(tmp_path):
    mesh = box_tet(2)
    dm = distribute(mesh, [e.idx % 3 for e in mesh.entities(3)])
    f = DistributedField(dm, "load", 3, (2, 2))
    for part in dm:
        for e in part.mesh.entities(3):
            f.on(part.pid).set(e, np.full((2, 2), 0.5 * part.gid(e)))
    store = SnapshotStore(tmp_path / "st")
    epoch = store.save(dm, [f]).path
    manifest = json.loads((epoch / "manifest.json").read_text())
    assert manifest["format"] == FORMAT
    frame = codec.loads((epoch / "field0-000000.bin").read_bytes())
    assert sorted(frame) == ["key", "value"]
    assert frame["key"].shape == (mesh.count(3), 8)  # left-padded with -1
    assert (frame["key"][:, :4] == -1).all() and frame["key"].dtype == np.int8
    assert frame["value"].shape == (mesh.count(3), 2, 2)
    frame = codec.loads((epoch / "elems-000000.bin").read_bytes())
    assert frame["gid"].dtype == frame["verts"].dtype == np.uint8
    assert frame["verts"].shape == (mesh.count(3), 4)


# -- field_checksum --------------------------------------------------------------


def checksum_by_entity(dmesh, dfield):
    """The per-entity walk ``field_checksum`` replaced, kept as its oracle."""
    values = []
    for part in dmesh:
        local = dfield.on(part.pid)
        for idx in part.owned_ids(dfield.entity_dim).tolist():
            ent = Ent(dfield.entity_dim, idx)
            if local.has(ent):
                values.append(float(np.sum(local.get(ent))))
    return math.fsum(sorted(values))


@pytest.mark.parametrize("dim, shape", [
    (0, 1), (0, 3), (1, (2, 2)), (2, 9), (3, 17),
])
def test_field_checksum_is_bit_identical_to_the_entity_walk(dim, shape):
    mesh = box_tet(2)
    dm = distribute(mesh, [e.idx % 3 for e in mesh.entities(3)])
    f = DistributedField(dm, "f", dim, shape)
    rng = np.random.default_rng(10 * dim + f.on(0).ncomp)
    for part in dm:
        local = f.on(part.pid)
        ids = part.mesh.entity_ids(dim)
        ids = ids[rng.random(len(ids)) < 0.8]  # some entities hold none
        values = rng.normal(0.0, 1e3, (len(ids), local.ncomp))
        local.set_many(ids, values * rng.random(values.shape) ** 7)
    got, want = field_checksum(dm, f), checksum_by_entity(dm, f)
    assert got == want and got != round(got)
