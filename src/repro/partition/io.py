"""Distributed-mesh checkpointing (``repro.dmesh/2`` format).

Long adaptive simulations checkpoint the partitioned mesh so a run can
restart without re-partitioning (PUMI's SMB file-per-part format).  This
module snapshots a :class:`~repro.partition.dmesh.DistributedMesh` into a
directory — one ``.npz`` per part holding coordinates, connectivity, vertex
gids, vertex classification, mesh tags and (optionally) distributed-field
values, plus a hashed manifest — and restores it with all remote-copy links
rebuilt from the vertex gids (the same rendezvous used after migration, so
a reloaded mesh is verified-identical in structure).

Format ``repro.dmesh/2`` closes the v1 "tags, fields and ghosts are runtime
state and are not checkpointed" gap:

* **tags** round-trip automatically, keyed by entity identity (sorted
  vertex-gid tuples), so they survive restores at a different part count;
* **field values** round-trip when the fields are passed to
  :func:`save_dmesh` and recovered with :func:`load_checkpoint`;
* **ghosts** are excluded from the snapshot (they are reconstructible —
  re-run :func:`~repro.partition.ghosting.ghost_layer`; the
  :class:`~repro.resilience.CheckpointManager` records the ghost
  configuration in the manifest and re-applies it on restore).

Tag and field blobs are stored in the :mod:`repro.parallel.codec` binary
format.  Durability: every file is written atomically
(``*.tmp`` + fsync + rename), the manifest carries a SHA-256 per part file,
and any integrity violation surfaces as a typed
:class:`CorruptCheckpointError` instead of a cold
``KeyError``/``BadZipFile``.  Restoring onto a *different* part count is
supported via ``load_dmesh(path, nparts=K)``: elements are regrouped into
contiguous global-id blocks and the remote-copy links rebuilt through the
migration rendezvous.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gmodel.model import Model
from ..mesh.build import from_connectivity
from ..mesh.entity import Ent
from ..parallel import codec
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from .dmesh import DistributedMesh
from .fieldsync import DistributedField
from .migration import rebuild_links
from .part import Part

_MANIFEST = "manifest.json"
#: Current checkpoint format id, stored in every manifest.
FORMAT = "repro.dmesh/2"


class CorruptCheckpointError(RuntimeError):
    """A checkpoint failed integrity validation (hash, schema, or parse)."""


# ---------------------------------------------------------------------------
# atomic file primitives
# ---------------------------------------------------------------------------


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


def _encode_blob(obj: Any) -> np.ndarray:
    """Codec-encoded object as a uint8 array for npz storage."""
    return np.frombuffer(codec.dumps(obj), dtype=np.uint8)


def _decode_blob(parts_data, pid: int, key: str) -> Any:
    """Decode part ``pid``'s stored ``key`` blob; a bad frame names the file."""
    try:
        return codec.loads(parts_data[pid][key].tobytes())
    except codec.CodecError as exc:
        raise CorruptCheckpointError(
            f"part{pid}.npz: undecodable {key}: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def _part_tags(part: Part) -> List[Tuple[str, List[Tuple[int, Tuple[int, ...], Any]]]]:
    """Tag data of one part as ``[(name, [(dim, key, value), ...]), ...]``.

    Entities are identified by :meth:`Part.entity_key` (sorted vertex-gid
    tuples), which survives both the local-index
    relabeling of a reload and restores at a different part count.  Ghost
    entities' values are runtime state and are skipped.
    """
    out = []
    for name in part.mesh.tags.names():
        tag = part.mesh.tags.find(name)
        entries = []
        for ent, value in tag.items():
            if ent in part.ghosts:
                continue
            entries.append((ent.dim, part.entity_key(ent), value))
        out.append((name, entries))
    return out


def _part_fields(
    part: Part, fields: Sequence[DistributedField]
) -> Dict[str, List[Tuple[Tuple[int, ...], np.ndarray]]]:
    """Field values of one part keyed by entity identity."""
    out: Dict[str, List[Tuple[Tuple[int, ...], np.ndarray]]] = {}
    for dfield in fields:
        local = dfield.on(part.pid)
        entries = []
        for ent, value in local.items():
            if ent in part.ghosts:
                continue
            entries.append((part.entity_key(ent), np.asarray(value)))
        out[dfield.name] = entries
    return out


def save_dmesh(
    dmesh: DistributedMesh,
    path: Union[str, Path],
    fields: Sequence[DistributedField] = (),
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the distribution to ``path`` (a directory, created if needed).

    Mesh tags ride along automatically; pass ``fields`` to include
    distributed-field values.  Ghost entities are excluded (re-create them
    with :func:`~repro.partition.ghosting.ghost_layer` after restore).
    ``extra`` is embedded verbatim in the manifest (the checkpoint manager
    stores the step number and ghost configuration there).

    Every file is written atomically and the manifest records a SHA-256 per
    part file, validated on load.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    dim = dmesh.element_dim()
    manifest: Dict[str, Any] = {
        "format": FORMAT,
        "nparts": dmesh.nparts,
        "element_dim": dim,
        "gid_next": list(dmesh._gid_next),
        "has_model": dmesh.model is not None,
        "ghosted": any(part.ghosts for part in dmesh),
        "fields": [
            {
                "name": f.name,
                "entity_dim": f.entity_dim,
                "shape": list(next(iter(f.fields.values())).shape),
            }
            for f in fields
        ],
        "files": {},
    }
    for part in dmesh:
        mesh = part.mesh
        core = mesh.core
        elements = [
            i for i in core.live_ids(dim).tolist()
            if Ent(dim, i) not in part.ghosts
        ]
        vert_ids = [
            i for i in core.live_ids(0).tolist()
            if Ent(0, i) not in part.ghosts
        ]
        vert_map = {idx: pos for pos, idx in enumerate(vert_ids)}
        etypes = sorted({int(core.etype[dim][i]) for i in elements})
        if len(etypes) > 1:
            raise ValueError(
                "checkpointing supports single-element-type parts"
            )
        coords = (
            mesh.coords_view()[vert_ids] if vert_ids else np.zeros((0, 3))
        )
        conn = (
            np.asarray(
                [
                    [vert_map[v] for v in core.verts_row(dim, i)]
                    for i in elements
                ],
                dtype=np.int64,
            )
            if elements
            else np.zeros((0, 1), dtype=np.int64)
        )
        vgids = np.asarray(
            [part.gid(Ent(0, idx)) for idx in vert_ids], dtype=np.int64
        )
        egids = np.asarray(
            [part.gid(Ent(dim, i)) for i in elements], dtype=np.int64
        )
        vclass = np.asarray(
            [
                (
                    mesh.classification(Ent(0, idx)).dim
                    if mesh.classification(Ent(0, idx)) is not None
                    else -1,
                    mesh.classification(Ent(0, idx)).tag
                    if mesh.classification(Ent(0, idx)) is not None
                    else -1,
                )
                for idx in vert_ids
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        buffer = _io.BytesIO()
        np.savez_compressed(
            buffer,
            coords=coords,
            conn=conn,
            vgids=vgids,
            egids=egids,
            vclass=vclass,
            etype=np.asarray(etypes or [-1], dtype=np.int64),
            tag_blob=_encode_blob(_part_tags(part)),
            field_blob=_encode_blob(_part_fields(part, fields)),
        )
        data = buffer.getvalue()
        name = f"part{part.pid}.npz"
        manifest["files"][name] = _sha256(data)
        _atomic_write_bytes(path / name, data)
    if extra:
        manifest["extra"] = extra
    _atomic_write_bytes(
        path / _MANIFEST,
        json.dumps(manifest, indent=1, sort_keys=True).encode(),
    )
    return path


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and schema-check a checkpoint manifest.

    Raises :class:`CorruptCheckpointError` on a missing file, invalid JSON,
    or an unknown format id.
    """
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise CorruptCheckpointError(f"{manifest_path}: missing manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(
            f"{manifest_path}: unreadable manifest: {exc}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise CorruptCheckpointError(
            f"{manifest_path}: unsupported checkpoint format "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r} "
            f"(expected {FORMAT!r})"
        )
    for key in ("nparts", "element_dim", "gid_next", "files"):
        if key not in manifest:
            raise CorruptCheckpointError(
                f"{manifest_path}: manifest misses {key!r}"
            )
    return manifest


def _load_part_file(path: Path, name: str, expected_sha: str):
    """Read, hash-validate and parse one part file."""
    file_path = path / name
    if not file_path.is_file():
        raise CorruptCheckpointError(f"{path}: missing part file {name}")
    data = file_path.read_bytes()
    actual = _sha256(data)
    if actual != expected_sha:
        # Full hashes: operators diff these against mirror copies and
        # backup manifests, so truncation costs real debugging time.
        raise CorruptCheckpointError(
            f"{file_path}: integrity failure: "
            f"sha256 {actual} != manifest {expected_sha}"
        )
    try:
        # Part files hold numeric arrays only; reading every member here
        # makes an object array (which would need unpickling) fail now,
        # as a corrupt checkpoint, instead of at first use.
        with np.load(_io.BytesIO(data), allow_pickle=False) as npz:
            return {key: npz[key] for key in npz.files}
    except Exception as exc:  # zipfile.BadZipFile, object arrays, ...
        raise CorruptCheckpointError(
            f"{path}: unparseable part file {name}: {exc}"
        ) from None


def _key_index(part: Part, dims: Sequence[int]) -> Dict[Tuple[int, Tuple[int, ...]], Ent]:
    """Map ``(dim, entity key)`` -> local entity for the requested dims."""
    index: Dict[Tuple[int, Tuple[int, ...]], Ent] = {}
    for d in dims:
        for ent in part.mesh.entities(d):
            index[(d, part.entity_key(ent))] = ent
    return index


def _apply_tags(part: Part, tags_data, index) -> None:
    for name, entries in tags_data:
        tag = part.mesh.tags.create(name)
        for d, key, value in entries:
            ent = index.get((d, tuple(key)))
            if ent is not None:
                tag[ent] = value


def load_checkpoint(
    path: Union[str, Path],
    model: Optional[Model] = None,
    topology: Optional[MachineTopology] = None,
    counters: Optional[PerfCounters] = None,
    nparts: Optional[int] = None,
) -> Tuple[DistributedMesh, Dict[str, DistributedField], Dict[str, Any]]:
    """Full-fidelity restore: mesh + tags + fields + manifest.

    Returns ``(dmesh, fields_by_name, manifest)``.  ``nparts`` restores the
    snapshot onto a different part count (see :func:`load_dmesh`).
    """
    path = Path(path)
    manifest = read_manifest(path)
    saved_nparts = int(manifest["nparts"])
    target = saved_nparts if nparts is None else int(nparts)
    if target < 1:
        raise ValueError(f"need at least one part, got {target}")
    parts_data = [
        _load_part_file(path, f"part{pid}.npz", manifest["files"].get(
            f"part{pid}.npz", ""
        ))
        for pid in range(saved_nparts)
    ]
    try:
        if target == saved_nparts:
            dmesh = _restore_same_parts(
                manifest, parts_data, model, topology, counters
            )
        else:
            dmesh = _restore_regrouped(
                manifest, parts_data, target, model, topology, counters
            )
        fields = _restore_fields(dmesh, manifest, parts_data)
    except CorruptCheckpointError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise CorruptCheckpointError(
            f"{path}: inconsistent checkpoint contents: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return dmesh, fields, manifest


def load_dmesh(
    path: Union[str, Path],
    model: Optional[Model] = None,
    topology: Optional[MachineTopology] = None,
    counters: Optional[PerfCounters] = None,
    nparts: Optional[int] = None,
) -> DistributedMesh:
    """Restore a distribution written by :func:`save_dmesh`.

    Pass the original geometric ``model`` to restore classification (the
    model itself is code, not data, so it is not serialized).  ``nparts``
    restores onto a different part count: elements are regrouped into
    contiguous global-id blocks across the new parts and all remote-copy
    links are rebuilt through the migration rendezvous, so a checkpoint
    written at 8 parts restarts cleanly at 4 or 16.

    Use :func:`load_checkpoint` to also recover saved field values.
    """
    dmesh, _fields, _manifest = load_checkpoint(
        path, model=model, topology=topology, counters=counters, nparts=nparts
    )
    return dmesh


def _restore_intermediate_gids(dmesh: DistributedMesh) -> None:
    """Give every intermediate entity (0 < d < element dim) a global id.

    The checkpoint persists gids only for vertices and elements; edges (and
    faces, in 3D) are re-derived from connectivity.  Restore re-establishes
    the invariant that *every* entity carries a gid.  Gids are assigned from
    the sorted vertex-gid keys — rank in one global ``np.unique`` over every
    part's key rows, offset by the dimension's next free gid: the same
    shared entity gets the same gid on every holding part, distinct
    entities get distinct gids, and the result is independent of part count
    and local numbering.
    """
    dim = dmesh.element_dim()
    for d in range(1, dim):
        ids_of, keys_of = [], []
        for part in dmesh:
            core = part.mesh.core
            ids = core.live_ids(d)
            rows = core.verts[d][ids]
            used = np.arange(rows.shape[1]) < core.nverts[d][ids][:, None]
            # Sorted vertex gids, short rows padded with -1 on the right:
            # row order is then the order of the sorted-gid tuples.
            keys = np.where(used, part.gids_of(0, rows), np.iinfo(np.int64).max)
            keys.sort(axis=1)
            keys[np.sort(~used, axis=1)] = -1
            ids_of.append(ids)
            keys_of.append(keys)
        distinct, rank = np.unique(
            np.concatenate(keys_of), axis=0, return_inverse=True
        )
        rank = rank.reshape(-1)
        base = dmesh._gid_next[d]
        start = 0
        for part, ids in zip(dmesh, ids_of):
            part.set_gids(d, ids, base + rank[start:start + len(ids)])
            start += len(ids)
        dmesh._gid_next[d] = base + len(distinct)


def _restore_same_parts(
    manifest, parts_data, model, topology, counters
) -> DistributedMesh:
    """The v1 path: rebuild each saved part verbatim."""
    dmesh = DistributedMesh(
        int(manifest["nparts"]),
        model=model,
        topology=topology,
        counters=counters,
    )
    dmesh._gid_next = list(manifest["gid_next"])
    dim = int(manifest["element_dim"])

    for pid in range(dmesh.nparts):
        data = parts_data[pid]
        part = dmesh.part(pid)
        etype = int(data["etype"][0])
        if etype < 0 or len(data["conn"]) == 0:
            continue  # empty part
        mesh = from_connectivity(data["coords"], data["conn"], etype)
        mesh.model = model
        part.mesh = mesh
        for idx, gid in enumerate(data["vgids"]):
            part.set_gid(Ent(0, idx), int(gid))
        for local, gid in enumerate(data["egids"]):
            part.set_gid(Ent(dim, local), int(gid))
        if model is not None:
            from ..gmodel.model import ModelEntity

            for idx, (gdim, gtag) in enumerate(data["vclass"]):
                if gdim >= 0:
                    mesh.set_classification(
                        Ent(0, idx), ModelEntity(int(gdim), int(gtag))
                    )
            # Re-derive higher-entity classification from the vertices
            # (each element's closure covers every edge and face).
            for element in mesh.entities(mesh.dim()):
                mesh.classify_closure_missing(element)
        tags_data = _decode_blob(parts_data, pid, "tag_blob")
        if tags_data:
            dims = sorted({d for _n, entries in tags_data for d, _k, _v in entries})
            _apply_tags(part, tags_data, _key_index(part, dims))
    _restore_intermediate_gids(dmesh)
    rebuild_links(dmesh)
    return dmesh


def _restore_regrouped(
    manifest, parts_data, target, model, topology, counters
) -> DistributedMesh:
    """Restore onto ``target`` parts: contiguous gid blocks + rendezvous.

    Element records from every saved part are merged, sorted by global id,
    and dealt to the new parts in contiguous blocks (element ``j`` of ``M``
    goes to part ``j * target // M``); each new part's serial mesh is built
    from its block's closure and the remote-copy links are recomputed by
    the same rendezvous migration uses.  Tags are re-attached afterwards by
    entity identity (see :func:`load_checkpoint` for fields).
    """
    dim = int(manifest["element_dim"])
    # Merge saved parts into global element / vertex records.
    vert_coords: Dict[int, np.ndarray] = {}
    vert_class: Dict[int, Tuple[int, int]] = {}
    elements: Dict[int, Tuple[int, ...]] = {}  # egid -> vertex gid row
    etype: Optional[int] = None
    for data in parts_data:
        part_etype = int(data["etype"][0])
        if part_etype < 0 or len(data["conn"]) == 0:
            continue
        if etype is None:
            etype = part_etype
        elif etype != part_etype:
            raise ValueError(
                "restore at a different part count needs a single element "
                f"type, found both {etype} and {part_etype}"
            )
        vgids = data["vgids"]
        coords = data["coords"]
        vclass = data["vclass"]
        for row, gid in enumerate(vgids):
            gid = int(gid)
            if gid not in vert_coords:
                vert_coords[gid] = coords[row]
                vert_class[gid] = (int(vclass[row][0]), int(vclass[row][1]))
        for row, egid in enumerate(data["egids"]):
            elements[int(egid)] = tuple(
                int(vgids[v]) for v in data["conn"][row]
            )

    dmesh = DistributedMesh(
        target, model=model, topology=topology, counters=counters
    )
    dmesh._gid_next = list(manifest["gid_next"])
    ordered = sorted(elements)
    total = len(ordered)
    if total and etype is not None:
        from ..gmodel.model import ModelEntity

        for pid in range(target):
            block = [
                egid for j, egid in enumerate(ordered)
                if j * target // total == pid
            ]
            if not block:
                continue
            part = dmesh.part(pid)
            local_of: Dict[int, int] = {}
            conn_rows: List[List[int]] = []
            for egid in block:
                row = []
                for vgid in elements[egid]:
                    local = local_of.get(vgid)
                    if local is None:
                        local = local_of[vgid] = len(local_of)
                    row.append(local)
                conn_rows.append(row)
            vgid_list = list(local_of)
            coords = np.asarray([vert_coords[g] for g in vgid_list])
            mesh = from_connectivity(
                coords, np.asarray(conn_rows, dtype=np.int64), etype
            )
            mesh.model = model
            part.mesh = mesh
            for local, vgid in enumerate(vgid_list):
                part.set_gid(Ent(0, local), vgid)
            for local, egid in enumerate(block):
                part.set_gid(Ent(dim, local), egid)
            if model is not None:
                for local, vgid in enumerate(vgid_list):
                    gdim, gtag = vert_class[vgid]
                    if gdim >= 0:
                        mesh.set_classification(
                            Ent(0, local), ModelEntity(gdim, gtag)
                        )
                for element in mesh.entities(mesh.dim()):
                    mesh.classify_closure_missing(element)
    _restore_intermediate_gids(dmesh)
    rebuild_links(dmesh)

    # Tags: first saved part wins on shared entities (deterministic).
    merged: Dict[str, Dict[Tuple[int, Tuple[int, ...]], Any]] = {}
    for pid in range(len(parts_data)):
        for name, entries in _decode_blob(parts_data, pid, "tag_blob"):
            bucket = merged.setdefault(name, {})
            for d, key, value in entries:
                bucket.setdefault((d, tuple(key)), value)
    if merged:
        dims = sorted({d for bucket in merged.values() for d, _k in bucket})
        for part in dmesh:
            index = _key_index(part, dims)
            for name, bucket in sorted(merged.items()):
                tag = part.mesh.tags.create(name)
                for (d, key), value in bucket.items():
                    ent = index.get((d, key))
                    if ent is not None:
                        tag[ent] = value
    return dmesh


def _restore_fields(
    dmesh: DistributedMesh, manifest, parts_data
) -> Dict[str, DistributedField]:
    """Re-create saved distributed fields on the restored mesh.

    Values are re-attached by entity identity; on shared entities the
    lowest saved part's value wins (deterministic, and identical for any
    synchronized field).
    """
    metas = manifest.get("fields", [])
    if not metas:
        return {}
    merged: Dict[str, Dict[Tuple[int, ...], np.ndarray]] = {}
    for pid in range(len(parts_data)):
        entries_by_name = _decode_blob(parts_data, pid, "field_blob")
        for name, entries in entries_by_name.items():
            bucket = merged.setdefault(name, {})
            for key, value in entries:
                bucket.setdefault(tuple(key), value)
    fields: Dict[str, DistributedField] = {}
    for meta in metas:
        name = meta["name"]
        entity_dim = int(meta["entity_dim"])
        bucket = merged.get(name, {})
        shape = tuple(meta.get("shape", [1]))
        dfield = DistributedField(dmesh, name, entity_dim, shape)
        for part in dmesh:
            index = _key_index(part, [entity_dim])
            local = dfield.on(part.pid)
            for key, value in bucket.items():
                ent = index.get((entity_dim, key))
                if ent is not None:
                    local.set(ent, value)
        fields[name] = dfield
    return fields
