"""Decode-only converter for the retired ``repro.dmesh/2`` checkpoint format.

Nothing writes that format any more (a hashed manifest plus one ``.npz`` per
part); a directory an earlier version left on disk converts to one full
``repro.store/1`` epoch and restores through the one loader.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..parallel import codec
from .format import MANIFEST, CorruptCheckpointError, SnapshotState, _sha256
from .snapshot import EpochInfo, SnapshotStore


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
    owner_of: Dict[int, int] = {}
    name = MANIFEST  # the file being read, for the error message
    try:
        manifest = json.loads((source / name).read_text())
        if manifest["format"] != "repro.dmesh/2":
            raise ValueError(f"format is {manifest['format']!r}")
        state.element_dim = int(manifest["element_dim"])
        state.gid_next = [int(g) for g in manifest["gid_next"]]
        state.field_meta = {
            meta["name"]: (int(meta["entity_dim"]), tuple(meta["shape"]))
            for meta in manifest.get("fields", [])
        }
        for pid in range(int(manifest["nparts"])):
            name = f"part{pid}.npz"
            data = (source / name).read_bytes()
            if _sha256(data) != manifest["files"][name]:
                raise ValueError(f"sha256 {_sha256(data)} is not the manifest's")
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                part = {key: npz[key] for key in npz.files}
            tags = codec.loads(part["tag_blob"].tobytes())
            fields = codec.loads(part["field_blob"].tobytes())
            if len(part["egids"]):
                state.etype = int(part["etype"][0])
            vgids = part["vgids"].tolist()
            for vgid, xyz, vclass in zip(
                vgids, part["coords"].tolist(), part["vclass"].tolist()
            ):
                state.verts.setdefault(vgid, (tuple(xyz), tuple(vclass)))
            for egid, row in zip(part["egids"].tolist(), part["conn"].tolist()):
                if egid not in state.elems:
                    state.elems[egid] = tuple(vgids[v] for v in row)
                    owner_of[egid] = pid
            for tag_name, entries in tags:
                for dim, key, value in entries:
                    state.tags.setdefault((tag_name, dim, tuple(key)), value)
            for field_name, entries in fields.items():
                bucket = state.fields.setdefault(field_name, {})
                for key, value in entries:
                    bucket.setdefault(tuple(key), np.asarray(value))
    except Exception as exc:  # bad zip, object array, bad frame, bad schema
        raise CorruptCheckpointError(
            f"{source / name}: not a valid repro.dmesh/2 file: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    state.owner = np.asarray(
        [owner_of[egid] for egid in sorted(owner_of)], dtype=np.int64
    )
    return store._write_epoch(
        store.next_index(), state, int(manifest["nparts"]), manifest.get("extra")
    )
