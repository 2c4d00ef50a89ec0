"""Decode-only converter for the retired ``repro.dmesh/2`` checkpoint format.

Nothing writes that format any more (a hashed manifest plus one ``.npz`` per
part); a directory an earlier version left on disk converts to one full
``repro.store/2`` epoch and restores through the one loader.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Union

import numpy as np

from ..parallel import codec
from .format import (
    _VERT_ROWS,
    MANIFEST,
    CorruptCheckpointError,
    SnapshotState,
    _elem_rows,
    _field_rows,
    _fill,
    _fold_chain,
    _padded,
    _records,
    _sha256,
)
from .snapshot import EpochInfo, SnapshotStore, _field_meta


def convert_dmesh2(source: Union[str, Path], store: SnapshotStore) -> EpochInfo:
    """Append the ``repro.dmesh/2`` directory ``source`` to ``store``.

    Each part file is SHA-256-checked against the manifest before it is
    parsed, parsed with ``allow_pickle=False`` (every member read eagerly,
    so an object array fails here, unread) and its tag/field blobs decoded
    by the wire codec; any failure is a :class:`CorruptCheckpointError`
    naming the file.  Where several parts hold an entity the first saved
    part wins.  The epoch keeps the saved partition and ``extra``.
    """
    source = Path(source)
    state = SnapshotState()
    parts, epochs = [], []
    name = MANIFEST  # the file being read, for the error message
    try:
        manifest = json.loads((source / name).read_text())
        if manifest["format"] != "repro.dmesh/2":
            raise ValueError(f"format is {manifest['format']!r}")
        state.element_dim = int(manifest["element_dim"])
        state.gid_next = [int(g) for g in manifest["gid_next"]]
        state.field_meta = _field_meta(manifest)
        for pid in range(int(manifest["nparts"])):
            name = f"part{pid}.npz"
            data = (source / name).read_bytes()
            if _sha256(data) != manifest["files"][name]:
                raise ValueError(f"sha256 {_sha256(data)} is not the manifest's")
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                parts.append({key: npz[key] for key in npz.files})
        state.etype = next(
            (int(part["etype"][0]) for part in parts if len(part["egids"])), -1
        )
        for pid, part in enumerate(parts):
            name = f"part{pid}.npz"
            verts = np.empty(len(part["vgids"]), _VERT_ROWS)
            verts["gid"], verts["xyz"], verts["class"] = (
                part["vgids"], part["coords"], part["vclass"])
            elems = np.empty(len(part["egids"]), _elem_rows(state.etype))
            elems["gid"] = part["egids"]
            elems["verts"] = part["vgids"][part["conn"]].reshape(
                elems["verts"].shape
            )
            tags = codec.loads(part["tag_blob"].tobytes())
            fields = codec.loads(part["field_blob"].tobytes())
            sections = {
                "verts": (verts,),
                "elems": (elems, np.full(len(elems), pid)),
                "tags": (_records(
                    (tag_name, dim, tuple(key), value)
                    for tag_name, entries in tags for dim, key, value in entries
                ),),
            }
            for field_name, meta in state.field_meta.items():
                dtype = _field_rows(*meta)
                sections[("field", field_name)] = (np.array([
                    (_padded(key, dtype["key"].shape[0]), value)
                    for key, value in fields.get(field_name, ())
                ], dtype=dtype).reshape(-1),)
            epochs.append(({}, sections))
        # Folded newest-first from part 0: the first saved part wins.
        live = _fold_chain(epochs[::-1])
    except Exception as exc:  # bad zip, object array, bad frame, bad schema
        raise CorruptCheckpointError(
            f"{source / name}: not a valid repro.dmesh/2 file: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    _fill(state, live)
    state.owner = live["elems"][1]
    return store._write_epoch(
        store.next_index(), state, int(manifest["nparts"]), manifest.get("extra")
    )
