"""Checkpoint lifecycle management: rotation, validation, fallback restore.

:class:`CheckpointManager` wraps the ``repro.dmesh/2`` on-disk format of
:mod:`repro.partition.io` with the operational policy a long run needs:

* **atomic epochs** — each checkpoint is staged in a ``*.tmp`` directory
  and renamed into place only after every part file and the hashed
  manifest are durably written, so a crash mid-checkpoint never leaves a
  half-written "latest";
* **rotation** — keep the last ``keep`` checkpoints, delete older ones;
* **validated restore with fallback** — :meth:`restore` walks checkpoints
  newest-first, skipping any that fail SHA-256 / schema validation
  (:class:`CorruptCheckpointError`), and raises :class:`NoCheckpointError`
  only when none survive;
* **complete state** — mesh topology, tags and distributed-field values
  round-trip through the checkpoint; the ghost configuration is recorded
  in the manifest and re-applied after restore (ghosts themselves are
  reconstructible runtime state);
* **restart at a different scale** — ``restore(nparts=K)`` regroups the
  snapshot onto ``K`` parts through the migration rendezvous, the DMPlex
  result that makes checkpoint/restart independent of job width;
* **pluggable epoch format** — ``backend="store"`` writes chunked
  ``repro.store/1`` epochs (:class:`~repro.store.SnapshotStore`):
  differential after the first full snapshot, chunk-parallel to restore,
  compacted before rotation ever deletes a delta's ancestors.  Restore
  dispatches *per checkpoint* on the on-disk format, so directories
  holding a mix of legacy ``repro.dmesh/2`` and store epochs restore
  correctly with either backend setting — switching backends mid-run is
  safe in both directions.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..gmodel.model import Model
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from ..partition.ghosting import Overlap, ghost_layer
from ..partition.io import (
    FORMAT as DMESH_FORMAT,
    CorruptCheckpointError,
    load_checkpoint,
    read_manifest,
    save_dmesh,
)
from ..store.format import FORMAT as STORE_FORMAT, MANIFEST as _MANIFEST
from ..store.snapshot import SnapshotStore

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "CorruptCheckpointError",
    "NoCheckpointError",
]

logger = logging.getLogger("repro.resilience.checkpoint")

#: Accepted values for :class:`CheckpointManager`'s ``backend``.
BACKENDS = ("dmesh", "store")


class NoCheckpointError(RuntimeError):
    """No valid checkpoint is available to restore from."""


def _normalize_ghost_config(config: Any) -> Dict[str, Any]:
    """Canonicalize any accepted ghost-config spelling.

    Returns ``{"overlap": <overlap dict>, "tags": [names...]}`` — the only
    form written to manifests.
    """
    if isinstance(config, Overlap):
        return {"overlap": config.to_dict(), "tags": []}
    if not isinstance(config, dict):
        raise TypeError(
            f"ghost_config must be an Overlap or a dict, "
            f"got {type(config).__name__}"
        )
    config = dict(config)
    tags = list(config.pop("tags", ()))
    overlap = Overlap.coerce(config.pop("overlap", Overlap()))
    if config:
        raise ValueError(f"unexpected ghost_config keys: {sorted(config)}")
    return {"overlap": overlap.to_dict(), "tags": tags}


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint: monotone index, workload step, location."""

    index: int
    step: int
    path: Path


class CheckpointManager:
    """Owns a directory of rotated, hash-validated checkpoints.

    Parameters
    ----------
    root:
        Directory holding the checkpoints (created if needed).  Each
        checkpoint is a subdirectory ``ckpt-<index>`` in the backend's
        format.
    keep:
        Retain the last ``keep`` checkpoints; older ones are deleted after
        each successful :meth:`save`.  ``keep=0`` is the explicit
        *unlimited* sentinel: rotation is disabled and every checkpoint is
        retained (use ``keep=1`` for "only the latest").
    backend:
        On-disk epoch format for new checkpoints: ``"dmesh"`` (default)
        writes whole-state ``repro.dmesh/2`` directories; ``"store"``
        writes chunked ``repro.store/1`` epochs, differential against the
        previous store epoch when one exists.  Reading always dispatches
        on each checkpoint's own manifest, so either setting restores
        directories containing a mix of both formats.
    ghost_config:
        Optional ghost configuration recorded in every manifest and
        re-applied by :meth:`restore`, so ghosted workloads resume with
        their halo already rebuilt.  Accepts an
        :class:`~repro.partition.ghosting.Overlap` or a dict
        ``{"overlap": Overlap | overlap-dict, "tags": [...]}``; both are
        normalized to the dict form in the manifest.
    """

    PREFIX = "ckpt-"

    def __init__(
        self,
        root: Union[str, Path],
        keep: int = 3,
        ghost_config: Optional[Any] = None,
        backend: str = "dmesh",
    ) -> None:
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of {BACKENDS})"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.backend = backend
        self.ghost_config = (
            _normalize_ghost_config(ghost_config) if ghost_config else None
        )

    def _store(self) -> SnapshotStore:
        """The ``repro.store/1`` view of this directory (shared prefix)."""
        return SnapshotStore(self.root, prefix=self.PREFIX)

    @staticmethod
    def _entry_format(path: Path) -> Optional[str]:
        """The format id a checkpoint directory claims, or ``None``."""
        try:
            manifest = json.loads((path / _MANIFEST).read_text())
        except (OSError, ValueError):
            return None
        if isinstance(manifest, dict):
            fmt = manifest.get("format")
            return fmt if isinstance(fmt, str) else None
        return None

    # -- enumeration --------------------------------------------------------

    def checkpoints(self) -> List[CheckpointInfo]:
        """All checkpoints on disk, oldest first (both formats).

        Steps are read from manifests; a checkpoint whose manifest is
        unreadable is listed with ``step=-1`` (restore will skip it).
        """
        infos: List[CheckpointInfo] = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or not entry.name.startswith(self.PREFIX):
                continue
            if entry.name.endswith(".tmp"):
                continue  # a crash mid-save left this; never valid
            try:
                index = int(entry.name[len(self.PREFIX):])
            except ValueError:
                continue
            step = -1
            try:
                manifest = json.loads((entry / _MANIFEST).read_text())
                if isinstance(manifest, dict) and manifest.get(
                    "format"
                ) in (DMESH_FORMAT, STORE_FORMAT):
                    step = int(manifest.get("extra", {}).get("step", -1))
            except (OSError, ValueError, TypeError):
                pass
            infos.append(CheckpointInfo(index=index, step=step, path=entry))
        infos.sort(key=lambda info: info.index)
        return infos

    def latest(self) -> Optional[CheckpointInfo]:
        infos = self.checkpoints()
        return infos[-1] if infos else None

    # -- writing ------------------------------------------------------------

    def save(
        self,
        dmesh: DistributedMesh,
        step: int,
        fields: Sequence[DistributedField] = (),
    ) -> CheckpointInfo:
        """Write one checkpoint of ``dmesh`` (plus ``fields``) atomically.

        The checkpoint becomes visible only via the final directory rename;
        rotation then prunes old checkpoints down to ``keep``.
        """
        latest = self.latest()
        index = latest.index + 1 if latest is not None else 0
        name = f"{self.PREFIX}{index:06d}"
        final = self.root / name
        extra: Dict[str, Any] = {"step": int(step), "index": index}
        if self.ghost_config is not None:
            extra["ghost_config"] = self.ghost_config
        if self.backend == "store":
            self._store().save(dmesh, fields, extra=extra, index=index)
        else:
            staging = self.root / (name + ".tmp")
            if staging.exists():
                shutil.rmtree(staging)
            save_dmesh(dmesh, staging, fields=fields, extra=extra)
            os.replace(staging, final)
        self._rotate()
        return CheckpointInfo(index=index, step=int(step), path=final)

    def _rotate(self) -> None:
        if self.keep <= 0:
            return  # keep=0: the documented unlimited sentinel
        infos = self.checkpoints()
        cut = infos[: max(0, len(infos) - self.keep)]
        if not cut:
            return
        # A surviving store delta must not lose its ancestors: compact the
        # oldest survivor into a full epoch before deleting anything.
        survivors = infos[len(cut):]
        if survivors and self._entry_format(survivors[0].path) == STORE_FORMAT:
            try:
                self._store().compact(survivors[0].index)
            except CorruptCheckpointError:
                pass  # restore will skip it and fall back; nothing to save
        for info in cut:
            shutil.rmtree(info.path, ignore_errors=True)

    # -- reading ------------------------------------------------------------

    def validate(self, info: CheckpointInfo) -> bool:
        """True when ``info`` passes full integrity validation."""
        try:
            if self._entry_format(info.path) == STORE_FORMAT:
                self._store().materialize(info.index)
            else:
                load_checkpoint(info.path)
        except CorruptCheckpointError:
            return False
        return True

    def restore(
        self,
        model: Optional[Model] = None,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        nparts: Optional[int] = None,
    ) -> Tuple[DistributedMesh, Dict[str, DistributedField], CheckpointInfo]:
        """Restore from the newest valid checkpoint.

        Walks checkpoints newest-first and skips (does not delete) any that
        fail validation — logging exactly which checkpoint it skipped and
        why — so one corrupt epoch costs one epoch of progress, not the
        run.  Each checkpoint restores through its own on-disk format
        (``repro.dmesh/2`` whole-state load or ``repro.store/1`` parallel
        load).  Re-applies the recorded ghost configuration.  Returns
        ``(dmesh, fields_by_name, info)``; raises :class:`NoCheckpointError`
        when no checkpoint survives.
        """
        skipped: List[str] = []
        for info in reversed(self.checkpoints()):
            try:
                if self._entry_format(info.path) == STORE_FORMAT:
                    dmesh, fields, stats = self._store().load_at(
                        nparts=nparts,
                        epoch=info.index,
                        model=model,
                        topology=topology,
                        counters=counters,
                    )
                    extra = stats.extra
                else:
                    dmesh, fields, manifest = load_checkpoint(
                        info.path,
                        model=model,
                        topology=topology,
                        counters=counters,
                        nparts=nparts,
                    )
                    extra = manifest.get("extra", {})
            except CorruptCheckpointError as exc:
                logger.warning(
                    "restore: skipping corrupt checkpoint %s: %s",
                    info.path.name,
                    exc,
                )
                skipped.append(f"{info.path.name}: {exc}")
                continue
            ghost_config = extra.get("ghost_config")
            if ghost_config:
                normalized = _normalize_ghost_config(ghost_config)
                ghost_layer(
                    dmesh,
                    overlap=Overlap.from_dict(normalized["overlap"]),
                    tags=tuple(normalized["tags"]),
                )
            return dmesh, fields, info
        detail = ("; skipped corrupt: " + ", ".join(skipped)) if skipped else ""
        raise NoCheckpointError(
            f"no valid checkpoint under {self.root}{detail}"
        )
