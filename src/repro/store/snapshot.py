"""`SnapshotStore`: chains of full/delta epochs with parallel load.

The store owns a directory of ``repro.store/2`` epoch directories
(:mod:`repro.store.format`; /1 epochs stay readable).  Saving extracts the
canonical rows of a :class:`~repro.partition.dmesh.DistributedMesh` and
writes either a full epoch or — when a valid parent chain exists — a
*differential* epoch holding only the rows that changed since the parent
(plus removal lists).  Chains are bounded (``full_every``) and compactable:
rewriting any epoch as a full snapshot of its materialized chain is
deterministic and in-place, so rotation can drop ancestors without losing
restorable epochs.

Loading is the Hapla et al. (arXiv 2004.08729) parallel read: the target
parts each decode a *disjoint contiguous range of chunks* across the whole
chain, the one chain fold (which also serves ``materialize``) keeps each
identity's newest row and its reader, and one
:class:`~repro.parallel.sf.StarForest` bcast moves every live row to the
parts that need it under the target partition — at the saved part count
the partition the epoch's owner column recorded, at any other count
contiguous sorted-gid blocks; vertices/tags/fields follow the elements
that reference them.  Onto the saved part count every element returns to
its part; onto 1, 2 or 8 parts the owned-gid sets and field checksums are
identical.  The traffic is charged to ``sf.*``/``net.*`` counters and the
comm matrix like every other distributed service, plus ``store.*``
counters for the I/O itself.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gmodel.model import Model
from ..mesh.build import from_connectivity
from ..mesh.core import VERT_WIDTH, first_occurrence_unique
from ..obs.stats import CommProbe
from ..obs.tracer import Tracer, current as current_tracer, trace_span
from ..parallel import codec
from ..parallel.perf import GLOBAL, PerfCounters
from ..parallel.sf import SFDatatype, StarForest
from ..parallel.topology import MachineTopology
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from ..partition.migration import rebuild_links
from .format import (
    DEFAULT_CHUNK_RECORDS,
    FORMAT,
    CorruptSnapshotError,
    SnapshotState,
    _columns,
    _fill,
    _fold_chain,
    _ident,
    _padded,
    _records,
    _rows_of_columns,
    diff_states,
    load_chunk,
    load_owner,
    read_epoch_manifest,
    state_from_dmesh,
    write_epoch,
)

__all__ = ["EpochInfo", "SnapshotStore", "StoreStats"]


@dataclass(frozen=True)
class EpochInfo:
    """One on-disk epoch: identity, chain position, and I/O totals."""

    index: int
    kind: str
    parent: Optional[int]
    path: Path
    records: int
    chunks: int
    payload_bytes: int
    step: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in asdict(self).items() if k != "path"}


@dataclass(frozen=True)
class StoreStats:
    """I/O + communication cost of one store operation (JSON-safe).

    Deliberately wall-time-free, like every report document in this repo:
    identical loads produce byte-identical stats.  Wall times live on the
    ``store.save``/``store.load``/``store.compact`` tracer spans.
    """

    op: str
    epoch: int
    kind: str
    nparts: int
    chain_length: int
    chunks: int
    chunk_bytes: int
    records: int
    messages: int
    wire_bytes: int
    encoded_bytes: int
    supersteps: int
    sf_ops: int
    extra: Dict[str, Any] = dataclass_field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in asdict(self).items() if k != "extra"}


class SnapshotStore:
    """A directory of chained ``repro.store`` epochs (see module doc).

    Parameters
    ----------
    root:
        Directory holding the epochs (created if needed).  Each epoch is a
        subdirectory ``<prefix><index>``.
    prefix:
        Epoch directory name prefix (the checkpoint manager's epochs are
        ``ckpt-<index>``).
    chunk_records:
        Records per chunk file; the parallelism floor of a load is
        ``total chunks``, so smaller chunks spread reads wider.
    full_every:
        Maximum delta-chain length; once a chain reaches this many epochs
        the next save writes a full snapshot.
    counters / tracer:
        Where ``store.*`` counters and ``store.save``/``store.load``/
        ``store.compact`` spans land (defaults: the global registry and
        the installed tracer).
    """

    def __init__(
        self,
        root: Union[str, Path],
        prefix: str = "epoch-",
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        full_every: int = 8,
        counters: Optional[PerfCounters] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.chunk_records = chunk_records
        self.full_every = full_every
        self.counters = counters if counters is not None else GLOBAL
        self.tracer = tracer if tracer is not None else current_tracer()

    # -- enumeration ---------------------------------------------------------

    def indexed_dirs(self) -> List[Tuple[int, Path]]:
        """Every ``<prefix><index>`` directory, readable or not, sorted."""
        out: List[Tuple[int, Path]] = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or not entry.name.startswith(self.prefix):
                continue
            if entry.name.endswith(".tmp"):
                continue
            try:
                out.append((int(entry.name[len(self.prefix):]), entry))
            except ValueError:
                continue
        return out

    def _epoch_path(self, index: int) -> Path:
        return self.root / f"{self.prefix}{index:06d}"

    def next_index(self) -> int:
        """One past the highest index of *any* sibling directory.

        Unreadable epochs count too, so indices stay monotone and a new
        epoch never reuses a corrupt one's directory.
        """
        dirs = self.indexed_dirs()
        return dirs[-1][0] + 1 if dirs else 0

    @staticmethod
    def _info(manifest: Dict[str, Any], path: Path) -> EpochInfo:
        return EpochInfo(
            index=int(manifest["index"]),
            kind=manifest["kind"],
            parent=manifest.get("parent"),
            path=path,
            records=int(manifest.get("records", 0)),
            chunks=sum(
                len(chunks) for chunks in manifest["sections"].values()
            ),
            payload_bytes=int(manifest.get("payload_bytes", 0)),
            step=int(manifest.get("extra", {}).get("step", -1)),
        )

    def epochs(self) -> List[EpochInfo]:
        """All epochs with readable manifests, oldest first.

        Directories whose manifest is unreadable or in another format are
        skipped; :meth:`inspect` reports them.
        """
        infos: List[EpochInfo] = []
        for index, path in self.indexed_dirs():
            try:
                manifest = read_epoch_manifest(path)
            except CorruptSnapshotError:
                continue
            if int(manifest["index"]) != index:
                continue  # directory renamed by hand; not addressable
            infos.append(self._info(manifest, path))
        return infos

    def tip(self) -> Optional[EpochInfo]:
        infos = self.epochs()
        return infos[-1] if infos else None

    # -- chain resolution ----------------------------------------------------

    def _chain(self, index: int) -> List[Tuple[EpochInfo, Dict[str, Any]]]:
        """Manifests from the base full epoch to ``index``, inclusive.

        Raises :class:`CorruptSnapshotError` on a missing epoch, a broken
        parent link, or a cycle.
        """
        chain: List[Tuple[EpochInfo, Dict[str, Any]]] = []
        cursor: Optional[int] = int(index)
        while cursor is not None:
            path = self._epoch_path(cursor)
            manifest = read_epoch_manifest(path)
            chain.append((self._info(manifest, path), manifest))
            if manifest["kind"] == "full":
                cursor = None
            else:
                parent = int(manifest["parent"])
                if parent >= int(manifest["index"]):
                    raise CorruptSnapshotError(
                        f"{path}: delta chain does not descend "
                        f"({manifest['index']} -> {parent})"
                    )
                cursor = parent
        chain.reverse()
        return chain

    def materialize(self, index: Optional[int] = None) -> SnapshotState:
        """The full state at epoch ``index`` (default: the tip), read serially."""
        info = self.tip() if index is None else None
        if index is None:
            if info is None:
                raise CorruptSnapshotError(f"{self.root}: store is empty")
            index = info.index
        chain = self._chain(int(index))
        top = chain[-1][1]
        state = SnapshotState(
            int(top["element_dim"]), int(top["etype"]),
            [int(g) for g in top["gid_next"]], field_meta=_field_meta(top),
        )
        _fill(state, _fold_chain(self._read_chain(chain, 1, self.counters)))
        state.owner, nbytes = load_owner(chain[-1][0].path, top, len(state.elems))
        self.counters.add("store.bytes.read", nbytes)
        return state

    # -- writing -------------------------------------------------------------

    def save(
        self,
        dmesh: DistributedMesh,
        fields: Sequence[DistributedField] = (),
        extra: Optional[Dict[str, Any]] = None,
        full: bool = False,
    ) -> EpochInfo:
        """Write one epoch; differential against the tip when possible.

        A delta is written when the store has a tip with an intact chain
        shorter than ``full_every``; otherwise (or with ``full=True``) a
        full epoch.  The epoch directory appears atomically.
        """
        with trace_span(self.tracer, "store.save", store=str(self.root)):
            state = state_from_dmesh(dmesh, fields)
            parent = None if full else self.tip()
            parent_state: Optional[SnapshotState] = None
            if parent is not None:
                try:
                    if len(self._chain(parent.index)) < self.full_every:
                        parent_state = self.materialize(parent.index)
                except CorruptSnapshotError:
                    pass  # a broken chain: write a full epoch
            idx = self.next_index()
            if parent_state is None:
                info = self._write_epoch(idx, state, dmesh.nparts, extra)
                self.counters.add("store.epochs.full")
            else:
                upserts, removed = diff_states(parent_state, state)
                # The owner column is never differential: a delta carries
                # the whole current partition beside its sparse records.
                upserts.owner = state.owner
                info = self._write_epoch(
                    idx, upserts, dmesh.nparts, extra,
                    kind="delta", parent=parent.index, removed=removed,
                )
                self.counters.add("store.epochs.delta")
            self.counters.add("store.chunks.written", info.chunks)
            self.counters.add("store.bytes.written", info.payload_bytes)
            self.counters.add("store.records.written", info.records)
            return info

    def _write_epoch(
        self,
        index: int,
        state: SnapshotState,
        nparts: int,
        extra: Optional[Dict[str, Any]],
        **delta: Any,
    ) -> EpochInfo:
        """Write ``state`` as epoch ``index`` (replacing one there): a full
        epoch unless ``delta`` carries ``kind``/``parent``/``removed``."""
        path = self._epoch_path(index)
        manifest = write_epoch(
            path,
            state,
            index=index,
            chunk_records=self.chunk_records,
            nparts=nparts,
            extra=extra,
            **delta,
        )
        return self._info(manifest, path)

    def compact(self, index: Optional[int] = None) -> EpochInfo:
        """Rewrite epoch ``index`` (default: tip) as a full snapshot, in place.

        Deterministic: compacting is exactly "materialize the chain, write
        it as a full epoch under the same index and extra metadata", so
        two stores holding the same chain compact to byte-identical
        epochs.  Afterwards the epoch's ancestors are prunable.
        """
        with trace_span(self.tracer, "store.compact", store=str(self.root)):
            tip = self.tip()
            if index is None:
                if tip is None:
                    raise CorruptSnapshotError(f"{self.root}: store is empty")
                index = tip.index
            path = self._epoch_path(int(index))
            manifest = read_epoch_manifest(path)
            if manifest["kind"] == "full":
                return self._info(manifest, path)
            info = self._write_epoch(
                int(index),
                self.materialize(int(index)),
                int(manifest.get("nparts", 1)),
                manifest.get("extra"),
            )
            self.counters.add("store.compactions")
            return info

    def prune(self, keep: int) -> List[int]:
        """Delete all but the newest ``keep`` epochs; returns pruned indices.

        Every indexed directory counts, so an unreadable epoch ages out
        like any other.  Before anything is deleted the oldest survivor
        that still materializes is compacted (a no-op on a full epoch), so
        no restorable survivor's chain dangles.  ``keep <= 0`` prunes
        nothing (the unlimited sentinel, matching the checkpoint manager).
        """
        if keep <= 0:
            return []
        dirs = self.indexed_dirs()
        cut = dirs[: max(0, len(dirs) - keep)]
        if not cut:
            return []
        for index, _path in dirs[len(cut):]:
            try:
                self.compact(index)
                break
            except CorruptSnapshotError:
                continue  # restore will skip it too; try the next survivor
        for _index, path in cut:
            shutil.rmtree(path, ignore_errors=True)
        return [index for index, _path in cut]

    def inspect(self) -> Dict[str, Any]:
        """JSON-safe summary: epochs, chunk/byte totals, delta ratios."""
        epochs = [info.to_dict() for info in self.epochs()]
        full_bytes = [e["payload_bytes"] for e in epochs if e["kind"] == "full"]
        base = full_bytes[-1] if full_bytes else 0
        for e in epochs:
            e["delta_ratio"] = (
                round(e["payload_bytes"] / base, 6)
                if base and e["kind"] == "delta"
                else None
            )
        unreadable = []
        known = {e["index"] for e in epochs}
        for index, path in self.indexed_dirs():
            if index in known:
                continue
            try:
                read_epoch_manifest(path)
            except CorruptSnapshotError as exc:
                unreadable.append({"path": path.name, "error": str(exc)})
        return {
            "format": FORMAT,
            "root": str(self.root),
            "epochs": epochs,
            "total_payload_bytes": sum(e["payload_bytes"] for e in epochs),
            "total_chunks": sum(e["chunks"] for e in epochs),
            "other_dirs": unreadable,
        }

    # -- parallel load -------------------------------------------------------

    def load_at(
        self,
        nparts: Optional[int] = None,
        epoch: Optional[int] = None,
        model: Optional[Model] = None,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        tracer: Optional[Tracer] = None,
        sanitize: Optional[bool] = None,
    ) -> Tuple[DistributedMesh, Dict[str, DistributedField], StoreStats]:
        """Parallel restore at any part count; ``(dmesh, fields, stats)``.

        Each target part decodes a disjoint contiguous range of the chain's
        chunks; one star-forest bcast then moves every live row to the
        parts that need it under the target partition: the saved one when
        ``nparts`` is the saved count (the default) and the epoch has an
        owner column — every element back on its part, empty parts empty —
        else contiguous sorted-gid blocks.  The result carries rebuilt
        remote-copy links and re-derived intermediate-entity gids; local ids
        follow the sorted-gid build order, not the saved local order.
        """
        tip = self.tip()
        target_index = tip.index if (epoch is None and tip) else epoch
        if target_index is None:
            raise CorruptSnapshotError(f"{self.root}: store is empty")
        chain = self._chain(int(target_index))
        top_manifest = chain[-1][1]
        nparts = (
            int(top_manifest.get("nparts", 1)) if nparts is None
            else int(nparts)
        )
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        use_counters = counters if counters is not None else self.counters
        use_tracer = tracer if tracer is not None else self.tracer
        dmesh = DistributedMesh(
            nparts,
            model=model,
            topology=topology,
            counters=use_counters,
            sanitize=sanitize,
            tracer=use_tracer,
        )
        probe = CommProbe(use_counters)
        names = ("store.chunks.read", "store.bytes.read", "sf.records")
        before = [use_counters.get(name) for name in names]
        with trace_span(
            dmesh.tracer, "store.load", store=str(self.root),
            epoch=int(target_index), nparts=nparts,
        ):
            fields = self._load_into(dmesh, chain)
        chunks, chunk_bytes, records = (
            use_counters.get(name) - got for name, got in zip(names, before)
        )
        stats = StoreStats(
            op="load",
            epoch=int(target_index),
            kind=top_manifest["kind"],
            nparts=nparts,
            chain_length=len(chain),
            chunks=chunks,
            chunk_bytes=chunk_bytes,
            records=records,
            messages=probe.messages(),
            wire_bytes=probe.wire_bytes(),
            encoded_bytes=probe.encoded_bytes(),
            supersteps=probe.supersteps(),
            sf_ops=1,
            extra=dict(top_manifest.get("extra", {})),
        )
        return dmesh, fields, stats

    def _read_chain(
        self,
        chain: List[Tuple[EpochInfo, Dict[str, Any]]],
        readers: int,
        counters: PerfCounters,
    ) -> List[Tuple[Dict[str, Any], Dict[Any, Tuple[Any, Any]]]]:
        """The chain's chunks dealt to ``readers`` in disjoint contiguous
        ranges and decoded, as :func:`_fold_chain` epochs whose rows carry
        their reader.  (All readers share this process, but reader ``r``
        touches only its own chunk files.)"""
        total = sum(info.chunks for info, _manifest in chain)
        epochs, j = [], 0
        for einfo, manifest in chain:
            names = {meta["section"]: ("field", meta["name"])
                     for meta in manifest.get("fields", [])}
            sections: Dict[Any, List[Tuple[Any, np.ndarray]]] = {}
            for section in sorted(manifest["sections"]):
                for entry in manifest["sections"][section]:
                    rows, nbytes = load_chunk(einfo.path, manifest, section, entry)
                    counters.add("store.chunks.read")
                    counters.add("store.bytes.read", nbytes)
                    sections.setdefault(names.get(section, section), []).append(
                        (rows, np.full(len(rows), j * readers // total)))
                    j += 1
            epochs.append((manifest.get("removed", {}), {
                key: tuple(map(np.concatenate, zip(*parts)))
                for key, parts in sections.items()
            }))
        return epochs

    def _load_into(
        self,
        dmesh: DistributedMesh,
        chain: List[Tuple[EpochInfo, Dict[str, Any]]],
    ) -> Dict[str, DistributedField]:
        """Chunk-parallel read + one redistribution bcast + part build."""
        nparts = dmesh.nparts
        counters = dmesh.counters
        top_manifest = chain[-1][1]

        # Phases 1-2 — read, and fold to the newest row of each identity
        # and its reader.  The roots are the live rows of all sections in
        # identity order (elements < fields by name < tags < vertices); a
        # row's handle is its place in that order.
        live = _fold_chain(self._read_chain(chain, nparts, counters))
        keys = sorted(live, key=lambda key: key if isinstance(key, tuple)
                      else (key, ""))
        offsets = np.cumsum([0] + [len(live[key][0]) for key in keys])

        # Phase 3 — targets.  Elements: the saved partition when loading
        # at the saved part count from an epoch with an owner column, else
        # contiguous sorted-gid blocks (element j of M -> part j*P//M).
        # Vertices follow their elements; a tag/field row goes to every
        # part that receives all its key vertices (supersets cost a few
        # duplicate deliveries, dropped by the key join).
        elems = live["elems"][0]
        total = len(elems)
        target = np.arange(total, dtype=np.int64) * nparts // max(total, 1)
        if nparts == int(top_manifest.get("nparts", 1)):
            owner, nbytes = load_owner(chain[-1][0].path, top_manifest, total)
            counters.add("store.bytes.read", nbytes)
            if owner is not None:
                target = owner.astype(np.int64)
        vgids, slot = np.unique(elems["verts"], return_inverse=True)
        receives = np.zeros((len(vgids) + 1, nparts), dtype=bool)
        width = elems["verts"].shape[1]
        receives[slot.reshape(-1), np.repeat(target, width)] = True
        vgids = np.append(vgids, np.iinfo(np.int64).max)

        def leaves(key: Any, rows: Any) -> Tuple[np.ndarray, np.ndarray]:
            """``(live row, part)`` per leaf of one section."""
            if key == "elems":
                return np.arange(total), target
            if key == "verts":
                gids = rows["gid"][:, None]
            elif key == "tags":
                gids = np.asarray(
                    [_padded(record[2], VERT_WIDTH[3]) for record in rows],
                    dtype=np.int64,
                ).reshape(-1, VERT_WIDTH[3])
            else:
                gids = rows["key"]
            at = np.searchsorted(vgids, gids)
            at[vgids[at] != gids] = len(vgids) - 1  # received nowhere
            return np.nonzero((receives[at] | (gids < 0)[..., None]).all(axis=1))

        hits = [leaves(key, live[key][0]) for key in keys]
        root = np.concatenate(
            [offsets[k] + rows for k, (rows, _pids) in enumerate(hits)]
        )
        pid = np.concatenate([pids for _rows, pids in hits]).astype(np.int64)
        reader = np.concatenate(
            [live[key][1][rows] for key, (rows, _pids) in zip(keys, hits)]
        ).astype(np.int64)
        # A leaf's handle is its root's too (a row reaches a part at most
        # once), so each pair's rows travel in identity order.
        pair = reader * nparts + pid
        grouped = np.argsort(pair, kind="stable")
        forest = StarForest.from_columns(dmesh, {
            divmod(int(pair[idx[0]]), nparts): (root[idx], root[idx])
            for idx in np.split(
                grouped, np.flatnonzero(np.diff(pair[grouped])) + 1
            ) if len(idx)
        }, name="store.load")

        # Phase 4 — one bcast: a reader ships a part, per section, the rows
        # it holds that the part wants.
        dtypes = [live[key][0].dtype for key in keys]
        staged = [
            [[np.empty(0, dtype)] for dtype in dtypes] for _ in range(nparts)
        ]

        def send(_rpid: int, _lpid: int, handles: np.ndarray) -> List[Any]:
            at = np.searchsorted(offsets, handles, side="right") - 1
            return [live[key][0][handles[at == k] - offsets[k]]
                    for k, key in enumerate(keys)]

        def land(lpid: int, _rpid: int, batch: Tuple[Any, List[Any]]) -> None:
            for held, rows in zip(staged[lpid], batch[1]):
                held.append(rows)

        forest.bcast(batch_data=send, batch_set=land, datatype=_Rows(dtypes))
        counters.add("store.records.loaded", forest.nleaves)

        # Phase 5 — build each part's serial mesh from its rows in
        # sorted-gid order (edges and faces are re-derived from the
        # elements and identified by their vertex gids), then rebuild
        # remote-copy links (the migration rendezvous).
        received = [{
            key: rows[np.argsort(_ident(rows), kind="stable")]
            for key, rows in zip(keys, map(np.concatenate, sections))
        } for sections in staged]
        dim, etype = int(top_manifest["element_dim"]), int(top_manifest["etype"])
        dmesh._gid_next = [int(g) for g in top_manifest["gid_next"]]
        model = dmesh.model
        for part, got in zip(dmesh, received):
            block, verts = got["elems"], got["verts"]
            if not len(block):
                continue
            vgid_list = first_occurrence_unique(block["verts"].ravel())
            if etype < 0 or not np.isin(vgid_list, verts["gid"]).all():
                raise CorruptSnapshotError(
                    f"{self.root}: elements without a type or vertex rows"
                )
            at = np.searchsorted(verts["gid"], vgid_list)
            order = np.argsort(vgid_list)
            conn = order[np.searchsorted(vgid_list, block["verts"], sorter=order)]
            mesh = from_connectivity(verts["xyz"][at], conn, etype)
            mesh.model = model
            part.mesh = mesh
            part.set_gids(0, np.arange(len(vgid_list)), vgid_list)
            part.set_gids(dim, np.arange(len(block)), block["gid"])
            if model is not None:
                mesh.core.gclass[0][: len(vgid_list)] = mesh.class_codes(
                    verts["class"][at]
                )
                mesh.classify_closure(dim, mesh.entity_ids(dim))
        rebuild_links(dmesh)

        # Tags and fields re-attach by entity identity: tags one by one,
        # fields by a sorted join of their keys and the part's entity keys.
        fields = {
            name: DistributedField(dmesh, name, d, shape)
            for name, (d, shape) in _field_meta(top_manifest).items()
        }
        for part, got in zip(dmesh, received):
            for name, d, key, value in got["tags"]:
                ent = part.by_key(d, key)
                if ent is not None:
                    part.mesh.tags.create(name)[ent] = value
            for name, dfield in fields.items():
                rows, local = got[("field", name)], dfield.on(part.pid)
                ids = part.mesh.entity_ids(dfield.entity_dim)
                have = _ident(part.entity_keys(dfield.entity_dim, ids))
                want = _ident(rows)
                order = np.argsort(have, kind="stable")
                at = order[np.minimum(
                    np.searchsorted(have, want, sorter=order), len(ids) - 1
                )]
                hit = have[at] == want
                local.set_many(
                    ids[at[hit]], rows["value"][hit].reshape(-1, local.ncomp)
                )
        return fields


def _field_meta(manifest: Dict[str, Any]) -> Dict[str, Tuple[int, Tuple]]:
    """One manifest's fields as name -> (entity dim, shape)."""
    return {
        meta["name"]: (int(meta["entity_dim"]),
                       tuple(int(s) for s in meta.get("shape", [1])))
        for meta in manifest.get("fields", [])
    }


class _Rows(SFDatatype):
    """A load batch: per section, its rows as narrowed columns (tags: the
    records), in one codec frame."""

    name = "store.rows"

    def __init__(self, dtypes: List[np.dtype]) -> None:
        self.dtypes = dtypes

    def encode(self, handles: Any, batch: Any) -> bytes:
        return codec.dumps([
            list(rows) if dtype == object else _columns(rows)
            for rows, dtype in zip(batch, self.dtypes)
        ])

    def decode(self, blob: Any, handles: Any) -> Tuple[Any, List[Any]]:
        sections = [
            _records(payload) if dtype == object else _rows_of_columns(
                payload, dtype, len(next(iter(payload.values())))
            )
            for payload, dtype in zip(codec.loads(blob), self.dtypes)
        ]
        if sum(map(len, sections)) != len(handles):
            raise codec.CodecError(f"a store batch of {len(handles)} rows "
                                   f"carries {sum(map(len, sections))}")
        return handles, sections
