"""The ``repro.store/2`` on-disk snapshot format: canonical, columnar, hashed.

Hapla et al. (arXiv 2004.08729) make parallel mesh I/O scale by writing one
*canonical* on-disk layout — independent of the number of writing ranks —
that any number of reading ranks can consume in disjoint chunks.  This
module is that layout for a :class:`~repro.partition.dmesh.DistributedMesh`:

* **canonical rows** — owned entities only, keyed by global id (``verts``
  ``(gid, xyz, class)``, ``elems`` ``(gid, verts)``) or by sorted
  vertex-gid key (a field's ``(key, value)``, padded as
  :meth:`Part.entity_keys` pads it; tags, which stay records because
  their values are arbitrary objects), sorted by that identity, so a mesh
  at *any* part count extracts to the same rows;
* **fixed-size chunks** — each section sharded into ``chunk_records``-row
  chunks, one CRC-validated :mod:`repro.parallel.codec` frame per file: the
  row-aligned columns, integers at the narrowest dtype that holds them;
* **SHA-256 chunk manifest** — ``manifest.json`` names every chunk with
  its hash, record count and byte size; any integrity violation surfaces
  as a typed :class:`CorruptSnapshotError` naming the offending file and
  the full expected-vs-actual digests;
* **the owner column** — the one part-dependent file of an epoch: the part
  id of every live element in ascending gid order, so a load at the saved
  part count restores the saved partition; hashed, written whole, outside
  the canonical rows and their diff, like the removal lists.

A manifest also carries ``kind`` (``"full"`` or ``"delta"``), the parent
epoch, the removal lists a delta applies, the gid allocation floor and a
digest of itself.  This is the only format the store reads or writes; a
manifest naming any other is a :class:`CorruptSnapshotError`.  One fold,
``_fold_chain``, serves both of :mod:`repro.store.snapshot`'s readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mesh.core import VERT_WIDTH
from ..mesh.topology import type_info
from ..parallel import codec
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField

__all__ = [
    "FORMAT",
    "MANIFEST",
    "DEFAULT_CHUNK_RECORDS",
    "CorruptCheckpointError",
    "CorruptSnapshotError",
    "SnapshotState",
    "state_from_dmesh",
    "diff_states",
    "apply_delta",
    "write_epoch",
    "read_epoch_manifest",
    "load_chunk",
    "load_owner",
    "owned_gid_set",
    "element_partition",
    "field_checksum",
]

#: The snapshot format id, stored in every epoch manifest.
FORMAT = "repro.store/2"
MANIFEST = "manifest.json"
#: The owner column's file name inside an epoch directory.
OWNER_FILE = "owner.bin"
#: Default records per chunk; small enough that modest meshes shard into
#: several chunks (parallel readers need more chunks than ranks).
DEFAULT_CHUNK_RECORDS = 256

_VERT_ROWS = np.dtype(
    [("gid", np.int64), ("xyz", np.float64, (3,)), ("class", np.int64, (2,))]
)
#: The numpy kinds a stored column may have.
_KINDS = {"gid": "u", "xyz": "f", "class": "iu", "verts": "u", "key": "iu",
          "value": "f"}


def _elem_rows(etype: int) -> np.dtype:
    width = type_info(etype).nverts if etype >= 0 else 0
    return np.dtype([("gid", np.int64), ("verts", np.int64, (width,))])


def _field_rows(entity_dim: int, shape: Sequence[int]) -> np.dtype:
    return np.dtype([("key", np.int64, (VERT_WIDTH[entity_dim],)),
                     ("value", np.float64, tuple(int(s) for s in shape))])


class CorruptCheckpointError(RuntimeError):
    """A checkpoint failed integrity validation (hash, schema, or parse)."""


class CorruptSnapshotError(CorruptCheckpointError):
    """A ``repro.store`` epoch failed integrity validation."""


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp file, fsync, rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records(items: Any) -> np.ndarray:
    """Tag records (or their identities) as a 1-D object array."""
    return np.fromiter(items, dtype=object)


def _ident(rows: np.ndarray) -> np.ndarray:
    """Rows' identities as one sortable column: gids; key rows as
    structured scalars that order like their gid tuples (the padding moved
    to the right); tag records' ``(name, dim, key)``."""
    if rows.dtype == object:
        return _records(record[:3] for record in rows)
    ids = rows[rows.dtype.names[0]] if rows.dtype.names else rows
    if ids.ndim == 1 or ids.shape[1] == 1:
        return ids.reshape(-1)
    top = np.iinfo(ids.dtype).max
    ids = np.sort(np.where(ids < 0, top, ids), axis=1)
    ids[ids == top] = -1
    return ids.view([(f"g{i}", ids.dtype) for i in range(ids.shape[1])])[:, 0]


def _padded(key: Sequence[int], width: int) -> Tuple[int, ...]:
    """A sorted vertex-gid key left-padded with -1 to ``width``."""
    return (-1,) * (width - len(key)) + tuple(int(g) for g in key)


# ---------------------------------------------------------------------------
# canonical state
# ---------------------------------------------------------------------------


@dataclass
class SnapshotState:
    """The part-count-agnostic content of one snapshot epoch, plus ``owner``.

    ``verts``, ``elems`` and each ``fields[name]`` are row arrays sorted by
    identity (see the module doc); ``tags`` maps ``(name, dim, entity
    key)`` -> value.  Ghost copies never appear (they are reconstructible
    runtime state), and shared entities appear exactly once.

    ``owner`` is the one part-dependent member: the part id of every live
    element of the *materialized* mesh in ascending gid order (so on a
    sparse delta state it is longer than ``elems``); every saved or loaded
    state has one, and only a sparse :func:`diff_states` result leaves it
    ``None``.  It is not a record section: no diff sees it and
    :meth:`record_count` does not count it.
    """

    element_dim: int = 2
    etype: int = -1
    gid_next: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    verts: np.ndarray = field(default_factory=lambda: np.empty(0, _VERT_ROWS))
    elems: np.ndarray = field(default_factory=lambda: np.empty(0, _elem_rows(-1)))
    tags: Dict[Tuple[str, int, Tuple[int, ...]], Any] = field(
        default_factory=dict
    )
    fields: Dict[str, np.ndarray] = field(default_factory=dict)
    #: field name -> (entity_dim, shape tuple)
    field_meta: Dict[str, Tuple[int, Tuple[int, ...]]] = field(
        default_factory=dict
    )
    owner: Optional[np.ndarray] = None

    def record_count(self) -> int:
        return (
            len(self.verts)
            + len(self.elems)
            + len(self.tags)
            + sum(len(bucket) for bucket in self.fields.values())
        )


def state_from_dmesh(
    dmesh: DistributedMesh, fields: Sequence[DistributedField] = ()
) -> SnapshotState:
    """Extract the canonical snapshot state of a distribution.

    Each part's rows are gathered in one pass and the parts folded as a
    chain whose newest epoch is part 0, so the first holder of each
    identity wins and the result is deterministic; because every row is
    keyed by global identity and carries no part-local data, the same mesh
    distributed at 2 or 8 parts extracts to the *same* state — which is
    what makes differential epochs insensitive to migration.
    """
    dim = dmesh.element_dim()
    etypes = np.unique(np.concatenate([
        part.mesh.core.etype[dim][part.mesh.entity_ids(dim)] for part in dmesh
    ])).tolist()
    if len(etypes) > 1:
        raise ValueError(
            "repro.store snapshots support single-element-type meshes, "
            f"found both {etypes[0]} and {etypes[1]}"
        )
    state = SnapshotState(
        element_dim=dim,
        etype=etypes[0] if etypes else -1,
        gid_next=list(dmesh._gid_next),
        field_meta={dfield.name: (dfield.entity_dim, dfield.on(0).shape)
                    for dfield in fields},
    )
    parts = []
    for part in dmesh:
        mesh, core = part.mesh, part.mesh.core
        real = {d: np.setdiff1d(mesh.entity_ids(d), part.ghost_ids(d))
                for d in {0, dim, *(f.entity_dim for f in fields)}}
        elems = np.empty(len(real[dim]), _elem_rows(state.etype))
        elems["gid"] = part.gids_of(dim, real[dim])
        elems["verts"] = part.gid_array(0)[
            core.verts[dim][real[dim], : elems["verts"].shape[1]]
        ]
        verts = np.empty(len(real[0]), _VERT_ROWS)
        verts["gid"] = part.gids_of(0, real[0])
        verts["xyz"] = mesh._coords[real[0]]
        # Code -1 (unset) picks the appended (-1, -1) row.
        verts["class"] = np.vstack((mesh.class_pairs(), (-1, -1)))[
            core.gclass[0][real[0]]
        ]
        # A real element's vertices are real, so they are checked too.
        for d, gids in ((dim, elems["gid"]), (0, verts["gid"])):
            if (gids < 0).any():
                raise KeyError(
                    f"part {part.pid}: M{d}_{int(real[d][gids < 0][0])} "
                    "has no global id"
                )
        sections = {
            "verts": (verts,),
            "elems": (elems, np.full(len(elems), part.pid)),
            "tags": (_records(
                (name, ent.dim, part.entity_key(ent), value)
                for name in mesh.tags.names()
                for ent, value in mesh.tags.find(name).items()
                if not part.is_ghost(ent) and mesh.has(ent)
            ),),
        }
        for dfield in fields:
            d, local = dfield.entity_dim, dfield.on(part.pid)
            held = np.intersect1d(local.set_ids(), real[d])
            rows = np.empty(len(held), _field_rows(d, local.shape))
            rows["key"] = part.entity_keys(d, held)
            rows["value"] = local.get_many(held).reshape(rows["value"].shape)
            sections[("field", dfield.name)] = (rows,)
        parts.append(({}, sections))
    live = _fold_chain(parts[::-1])
    _fill(state, live)
    state.owner = live["elems"][1]
    return state


def _same_value(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if type(a) is type(b):
        try:
            return bool(a == b)
        except Exception:  # unorderable/ambiguous values: fall through
            pass
    return codec.dumps(a) == codec.dumps(b)


def _changes(old: np.ndarray, new: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows of new that old lacks or holds otherwise, rows of old whose
    identity new lacks)``; rows compare like ``np.array_equal``."""
    if old.dtype != new.dtype or not len(old):
        return new, old
    a, b = _ident(old), _ident(new)
    at = np.minimum(np.searchsorted(a, b), len(a) - 1)
    return new[old[at] != new], old[~np.isin(a, b)]


def diff_states(
    parent: SnapshotState, current: SnapshotState
) -> Tuple[SnapshotState, Dict[str, Any]]:
    """``(upserts, removed)`` turning ``parent`` into ``current``.

    ``upserts`` is a sparse :class:`SnapshotState` holding only new or
    changed rows; ``removed`` is the manifest-shaped removal dict
    (vertex gids, element gids, tag triples, field keys per name).  The
    diff is content-based, so it captures exactly the entities adaptation
    created/destroyed and the fields dirtied since the parent — a pure
    migration, which moves entities without changing them, leaves the
    vertex/element/tag rows untouched (field values are runtime state:
    one whose only holding part handed the entity away drops out of the
    canonical state, and the diff records that as a removal).
    """
    upserts = SnapshotState(
        element_dim=current.element_dim,
        etype=current.etype,
        gid_next=list(current.gid_next),
        field_meta=dict(current.field_meta),
    )
    upserts.verts, gone_verts = _changes(parent.verts, current.verts)
    upserts.elems, gone_elems = _changes(parent.elems, current.elems)
    upserts.tags = {
        key: value for key, value in current.tags.items()
        if key not in parent.tags or not _same_value(parent.tags[key], value)
    }
    removed: Dict[str, Any] = {
        "verts": gone_verts["gid"].tolist(),
        "elems": gone_elems["gid"].tolist(),
        "tags": sorted(
            [name, dim, list(key)]
            for (name, dim, key) in set(parent.tags) - set(current.tags)
        ),
        "fields": {},
    }
    for name in sorted(set(parent.fields) | set(current.fields)):
        gone = parent.fields.get(name)
        if name in current.fields:
            new = current.fields[name]
            upserts.fields[name], gone = _changes(
                new[:0] if gone is None else gone, new
            )
        if len(gone):
            removed["fields"][name] = [
                [g for g in key if g >= 0] for key in gone["key"].tolist()
            ]
    return upserts, removed


# ---------------------------------------------------------------------------
# the chain fold
# ---------------------------------------------------------------------------


def _fold_chain(
    epochs: Sequence[Tuple[Dict[str, Any], Dict[Any, Tuple[np.ndarray, ...]]]],
) -> Dict[Any, Tuple[np.ndarray, ...]]:
    """The rows live after a chain of epochs, ascending by identity.

    ``epochs``: oldest first, each epoch's removal dict and sections
    (``"verts"``, ``"elems"``, ``"tags"``, ``("field", name)``), each its
    rows plus any row-aligned columns to carry (the load: each row's
    reader).  Removals drop older rows, then upserts follow; one
    ``np.unique`` over the reversed events finds each identity's newest.
    A section restarts after the last epoch lacking it or holding other
    rows (a dropped field, another element type or field shape).
    """
    out: Dict[Any, Tuple[np.ndarray, ...]] = {}
    for key, (rows, *_carried) in epochs[-1][1].items():
        since = 1 + max([-1] + [
            e for e, (_removed, sections) in enumerate(epochs)
            if key not in sections or sections[key][0].dtype != rows.dtype
        ])
        events = []
        for removed, sections in epochs[since:]:
            if key == "tags":
                gone = _records(
                    (name, int(dim), tuple(int(g) for g in gids))
                    for name, dim, gids in removed.get("tags", ())
                )
            elif isinstance(key, tuple):
                width = rows.dtype["key"].shape[0]
                gone = np.asarray([
                    _padded(gids, width)
                    for gids in removed.get("fields", {}).get(key[1], ())
                ], dtype=np.int64).reshape(-1, width)
            else:
                gone = np.asarray(removed.get(key, ()), dtype=np.int64)
            events += [_ident(gone), _ident(sections[key][0])]
        flat = np.concatenate(events)
        is_row = np.repeat(np.arange(len(events)) % 2 == 1,
                           [len(ids) for ids in events])
        newest = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
        live = (np.cumsum(is_row) - 1)[newest[is_row[newest]]]
        out[key] = tuple(
            np.concatenate(column)[live] for column in
            zip(*(sections[key] for _removed, sections in epochs[since:]))
        )
    return out


def _sections(state: SnapshotState) -> Dict[Any, Tuple[np.ndarray]]:
    """``state`` as one epoch's sections for :func:`_fold_chain`."""
    return {
        "verts": (state.verts,),
        "elems": (state.elems,),
        "tags": (_records((*key, value) for key, value in state.tags.items()),),
        **{("field", name): (state.fields[name],) for name in state.field_meta},
    }


def _fill(state: SnapshotState, live: Dict[Any, Tuple[np.ndarray, ...]]) -> None:
    """Set ``state``'s rows to a :func:`_fold_chain` result's."""
    state.verts, state.elems = live["verts"][0], live["elems"][0]
    state.tags = {record[:3]: record[3] for record in live["tags"][0]}
    state.fields = {key[1]: rows for key, (rows, *_) in live.items()
                    if isinstance(key, tuple)}


def apply_delta(
    state: SnapshotState, upserts: SnapshotState, removed: Dict[str, Any]
) -> None:
    """Apply one delta epoch (removals, then upserts) to ``state`` in place:
    the chain fold over the two.  The field set follows the delta's meta:
    dropped fields disappear."""
    _fill(state, _fold_chain(
        [({}, _sections(state)), (removed, _sections(upserts))]
    ))
    state.element_dim = upserts.element_dim
    state.etype = upserts.etype if upserts.etype >= 0 else state.etype
    state.gid_next = list(upserts.gid_next)
    state.field_meta = dict(upserts.field_meta)


# ---------------------------------------------------------------------------
# chunked columns on disk
# ---------------------------------------------------------------------------


def _columns(rows: np.ndarray) -> Dict[str, np.ndarray]:
    """A row array as named columns, integers at the narrowest dtype that
    holds them: a chunk's, or a load batch's, codec payload."""
    out = {}
    for name in rows.dtype.names:
        column = out[name] = rows[name]
        if column.dtype.kind == "i":
            lo, hi = int(column.min(initial=0)), int(column.max(initial=0))
            # Signed when any value is: the width that holds ``-hi - 1``.
            out[name] = column.astype(np.promote_types(
                np.min_scalar_type(lo),
                np.min_scalar_type(hi if lo >= 0 else -hi - 1),
            ))
    return out


def write_epoch(
    path: Union[str, Path],
    state: SnapshotState,
    *,
    kind: str = "full",
    index: int = 0,
    parent: Optional[int] = None,
    removed: Optional[Dict[str, Any]] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    nparts: int = 1,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write one epoch directory atomically; returns its manifest.

    The directory is staged as ``<path>.tmp`` and renamed into place only
    after every chunk and the manifest are durably written.  All content is
    byte-deterministic: sorted rows, fixed chunking, integer widths chosen
    by the values alone, ``sort_keys`` JSON, no timestamps.
    """
    path = Path(path)
    staging = path.with_name(path.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    names = sorted(state.field_meta)
    sections: Dict[str, Any] = {
        "verts": state.verts,
        "elems": state.elems,
        "tags": [
            [name, dim, list(key), value]
            for (name, dim, key), value in sorted(
                state.tags.items(), key=lambda item: item[0]
            )
        ],
        **{f"field{i}": state.fields[name] for i, name in enumerate(names)},
    }
    manifest: Dict[str, Any] = {
        "format": FORMAT,
        "kind": kind,
        "index": int(index),
        "parent": None if parent is None else int(parent),
        "element_dim": int(state.element_dim),
        "etype": int(state.etype),
        "gid_next": [int(g) for g in state.gid_next],
        "nparts": int(nparts),
        "chunk_records": int(chunk_records),
        "fields": [
            {
                "name": name,
                "entity_dim": int(state.field_meta[name][0]),
                "shape": list(state.field_meta[name][1]),
                "section": f"field{i}",
            }
            for i, name in enumerate(names)
        ],
        "sections": {},
        "payload_bytes": 0,
        "records": 0,
    }

    def put(name: str, payload: Any, count: int) -> Dict[str, Any]:
        """Write one hashed codec frame; returns its manifest entry."""
        blob = codec.dumps(payload)
        _atomic_write_bytes(staging / name, blob)
        manifest["payload_bytes"] += len(blob)
        return {
            "file": name,
            "sha256": _sha256(blob),
            "count": count,
            "bytes": len(blob),
        }

    for section in sorted(sections):
        rows = sections[section]
        chunks: List[Dict[str, Any]] = []
        for ci in range(0, max(1, len(rows)), chunk_records):
            batch = rows[ci : ci + chunk_records]
            payload = batch if isinstance(batch, list) else _columns(batch)
            chunks.append(
                put(f"{section}-{len(chunks):06d}.bin", payload, len(batch))
            )
            manifest["records"] += len(batch)
        manifest["sections"][section] = chunks
    # Packed at the narrowest unsigned width that holds ``nparts - 1``.
    width = np.min_scalar_type(int(nparts) - 1)
    manifest["owner"] = put(
        OWNER_FILE, state.owner.astype(width), len(state.owner)
    )
    if kind == "delta":
        manifest["removed"] = removed or {
            "verts": [],
            "elems": [],
            "tags": [],
            "fields": {},
        }
    if extra:
        # As a reader will parse it (string keys, lists): the digest below
        # must be the one recomputed from the parsed manifest.
        manifest["extra"] = json.loads(json.dumps(extra))
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    _atomic_write_bytes(
        staging / MANIFEST,
        json.dumps(manifest, indent=1, sort_keys=True).encode(),
    )
    if path.exists():
        shutil.rmtree(path)
    os.replace(staging, path)
    return manifest


def _manifest_digest(manifest: Dict[str, Any]) -> str:
    """SHA-256 of the manifest's canonical JSON, its own digest key aside."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return _sha256(json.dumps(body, indent=1, sort_keys=True).encode())


def read_epoch_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and schema-check one ``repro.store/2`` epoch manifest.

    Raises :class:`CorruptSnapshotError` naming the manifest file on any
    missing file, bad JSON, other format id, missing key (the owner column
    and the manifest's digest of itself included), or content that does
    not match that digest (the manifest names every other file's hash, so
    it is the one file nothing else vouches for).
    """
    path = Path(path)
    manifest_path = path / MANIFEST
    if not manifest_path.is_file():
        raise CorruptSnapshotError(f"{path}: missing {MANIFEST}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:  # bad JSON or bad UTF-8
        raise CorruptSnapshotError(
            f"{manifest_path}: unreadable manifest: {exc}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise CorruptSnapshotError(
            f"{manifest_path}: unsupported snapshot format "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r} "
            f"(expected {FORMAT!r})"
        )
    for key in (
        "kind", "index", "element_dim", "etype", "gid_next", "nparts",
        "sections", "owner", "manifest_sha256",
    ):
        if key not in manifest:
            raise CorruptSnapshotError(
                f"{manifest_path}: manifest misses {key!r}"
            )
    if manifest["kind"] == "delta" and manifest.get("parent") is None:
        raise CorruptSnapshotError(
            f"{manifest_path}: delta epoch names no parent"
        )
    digest = manifest["manifest_sha256"]
    if digest != _manifest_digest(manifest):
        raise CorruptSnapshotError(
            f"{manifest_path}: integrity failure: manifest content does "
            f"not match its own sha256 {digest}"
        )
    return manifest


def _load_frame(path: Path, entry: Dict[str, Any]) -> Tuple[Any, int]:
    """Read, hash-validate and decode one manifest-listed codec frame.

    Integrity errors name the offending file and quote the full
    expected-vs-actual SHA-256 digests, so a corrupt file is directly
    actionable from the exception alone.
    """
    file_path = path / entry["file"]
    if not file_path.is_file():
        raise CorruptSnapshotError(f"{path}: missing file {entry['file']}")
    data = file_path.read_bytes()
    actual = _sha256(data)
    if actual != entry["sha256"]:
        raise CorruptSnapshotError(
            f"{file_path}: integrity failure: "
            f"sha256 {actual} != manifest {entry['sha256']}"
        )
    try:
        return codec.loads(data), len(data)
    except Exception as exc:
        raise CorruptSnapshotError(
            f"{file_path}: undecodable frame: {exc}"
        ) from None


def _section_rows(manifest: Dict[str, Any], section: str) -> np.dtype:
    """The row dtype of one section of an epoch (tags: object records)."""
    if section == "verts":
        return _VERT_ROWS
    if section == "elems":
        return _elem_rows(int(manifest["etype"]))
    if section == "tags":
        return np.dtype(object)
    for meta in manifest.get("fields", []):
        if meta["section"] == section:
            return _field_rows(meta["entity_dim"], meta.get("shape", [1]))
    raise ValueError(f"manifest names no field for section {section!r}")


def _rows_of_columns(columns: Any, dtype: np.dtype, count: int) -> np.ndarray:
    """A payload as ``count`` rows, every column checked."""
    if not isinstance(columns, dict) or sorted(columns) != sorted(dtype.names):
        raise ValueError(f"payload is not the columns {list(dtype.names)}")
    rows = np.empty(count, dtype)
    for name in dtype.names:
        column = columns[name]
        if not (isinstance(column, np.ndarray) and column.dtype.kind in
                _KINDS[name] and column.shape == rows[name].shape):
            raise ValueError(
                f"column {name!r} is not a {rows[name].shape} array of "
                f"kind {_KINDS[name]!r}"
            )
        rows[name] = column
    return rows


def load_chunk(
    path: Union[str, Path],
    manifest: Dict[str, Any],
    section: str,
    entry: Dict[str, Any],
) -> Tuple[Any, int]:
    """One chunk of ``section``, hash-validated; ``(rows, bytes read)``.

    A chunk comes from outside: anything but the expected columns with
    ``count`` rows (tags: ``count`` records ``(name, dim, key, value)``)
    raises :class:`CorruptSnapshotError` naming the file.
    """
    path = Path(path)
    payload, nbytes = _load_frame(path, entry)
    count = int(entry["count"])
    try:
        dtype = _section_rows(manifest, section)
        if dtype == object:
            if not isinstance(payload, list) or len(payload) != count:
                raise ValueError(f"chunk does not carry the {count} "
                                 "record(s) the manifest promises")
            return _records(
                (name, int(dim), tuple(int(g) for g in key), value)
                for name, dim, key, value in payload
            ), nbytes
        return _rows_of_columns(payload, dtype, count), nbytes
    except (TypeError, ValueError) as exc:
        raise CorruptSnapshotError(f"{path / entry['file']}: {exc}") from None


def load_owner(
    path: Union[str, Path], manifest: Dict[str, Any], live_elements: int
) -> Tuple[np.ndarray, int]:
    """The epoch's owner column, hash-validated; ``(column, bytes read)``.

    It must be ``live_elements`` part ids below the manifest's ``nparts``,
    else :class:`CorruptSnapshotError` naming the file: never a silent
    fall-back that discards the partition.
    """
    entry = manifest["owner"]
    owner, nbytes = _load_frame(Path(path), entry)
    nparts = int(manifest["nparts"])
    if not (
        isinstance(owner, np.ndarray)
        and owner.dtype.kind == "u"
        and owner.shape == (live_elements,)
        and live_elements == int(entry["count"])
        and int(owner.max(initial=0)) < nparts
    ):
        raise CorruptSnapshotError(
            f"{Path(path) / entry['file']}: owner column does not assign "
            f"{live_elements} live element(s) (manifest count "
            f"{entry['count']}) to parts below {nparts}"
        )
    return owner, nbytes


# ---------------------------------------------------------------------------
# parity helpers (used by tests, the bench, and the CI snapshot-io gate)
# ---------------------------------------------------------------------------


def owned_gid_set(dmesh: DistributedMesh, dim: int) -> frozenset:
    """The global set of owned (non-ghost) vertex or element gids.

    Restores at different part counts must agree on this set exactly —
    it is the partition-independent identity of the mesh.  Edges and faces
    carry no gids (their vertex-gid keys identify them), so an
    intermediate ``dim`` raises ``ValueError``.
    """
    if 0 < dim < dmesh.element_dim():
        raise ValueError(
            f"dim-{dim} entities have no gids; compare their entity keys"
        )
    return frozenset(
        gid for part in dmesh
        for gid in part.gids_of(dim, part.owned_ids(dim)).tolist()
    )


def element_partition(dmesh: DistributedMesh) -> List[List[int]]:
    """Per part, the sorted gids of the elements it holds (ghosts aside).

    A restore at the saved part count must reproduce this exactly.
    """
    dim = dmesh.element_dim()
    return [
        sorted(part.gids_of(dim, np.setdiff1d(
            part.mesh.entity_ids(dim), part.ghost_ids(dim)
        )).tolist())
        for part in dmesh
    ]


def field_checksum(dmesh: DistributedMesh, dfield: DistributedField) -> float:
    """Order-independent fsum of a field over owned entities: each value's
    components summed, the sums sorted and added exactly."""
    sums = []
    for part in dmesh:
        local = dfield.on(part.pid)
        ids = part.owned_ids(dfield.entity_dim)
        sums.append(local.get_many(ids[local.has_many(ids)]).sum(axis=1))
    return math.fsum(np.sort(np.concatenate(sums)).tolist())
