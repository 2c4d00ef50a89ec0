"""Checkpoint lifecycle management: rotation, validation, fallback restore.

:class:`CheckpointManager` is the operational policy a long run needs over
one :class:`~repro.store.SnapshotStore` (``repro.store/2`` epochs:
chunked, hashed, differential after the first full snapshot, each staged
in a ``*.tmp`` directory and renamed into place, so a crash mid-checkpoint
never leaves a half-written "latest"):

* **rotation** — keep the last ``keep`` checkpoints; the store compacts
  the oldest survivor before a delta's ancestors are deleted;
* **validated restore with fallback** — :meth:`restore` walks checkpoints
  newest-first, skipping any that fail SHA-256 / schema validation
  (:class:`CorruptCheckpointError`), and raises :class:`NoCheckpointError`
  only when none survive;
* **restart on the partition the run paid for** — a restore at the saved
  part count puts every element back on the part that held it (the
  epoch's owner column); mesh topology, tags and distributed-field values
  round-trip; the ghost configuration is recorded in the manifest and
  re-applied after restore (ghosts themselves are reconstructible runtime
  state);
* **restart at a different scale** — ``restore(nparts=K)`` regroups the
  snapshot onto ``K`` parts through the star-forest redistribution, the
  DMPlex result that makes checkpoint/restart independent of job width.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..gmodel.model import Model
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from ..partition.ghosting import Overlap, ghost_layer
from ..store.format import CorruptCheckpointError
from ..store.snapshot import SnapshotStore

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "CorruptCheckpointError",
    "NoCheckpointError",
]

logger = logging.getLogger("repro.resilience.checkpoint")


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
        checkpoint is a ``repro.store/2`` epoch directory ``ckpt-<index>``.
    keep:
        Retain the last ``keep`` checkpoints; older ones are deleted after
        each successful :meth:`save`.  ``keep=0`` is the explicit
        *unlimited* sentinel: rotation is disabled and every checkpoint is
        retained (use ``keep=1`` for "only the latest").
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
    ) -> None:
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.ghost_config = (
            _normalize_ghost_config(ghost_config) if ghost_config else None
        )

    def _store(self) -> SnapshotStore:
        return SnapshotStore(self.root, prefix=self.PREFIX)

    # -- enumeration --------------------------------------------------------

    def checkpoints(self) -> List[CheckpointInfo]:
        """All checkpoints on disk, oldest first.

        Steps are read from manifests; a checkpoint whose manifest is
        unreadable is listed with ``step=-1`` (restore will skip it).
        """
        store = self._store()
        steps = {epoch.index: epoch.step for epoch in store.epochs()}
        return [
            CheckpointInfo(index=index, step=steps.get(index, -1), path=path)
            for index, path in store.indexed_dirs()
        ]

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
        extra: Dict[str, Any] = {"step": int(step)}
        if self.ghost_config is not None:
            extra["ghost_config"] = self.ghost_config
        store = self._store()
        epoch = store.save(dmesh, fields, extra=extra)
        store.prune(self.keep)
        return CheckpointInfo(epoch.index, epoch.step, epoch.path)

    # -- reading ------------------------------------------------------------

    def validate(self, info: CheckpointInfo) -> bool:
        """True when ``info`` passes full integrity validation."""
        try:
            self._store().materialize(info.index)
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
        run.  With ``nparts`` left at ``None`` the mesh comes back on the
        partition it was saved with.  Re-applies the recorded ghost
        configuration.  Returns ``(dmesh, fields_by_name, info)``; raises
        :class:`NoCheckpointError` when no checkpoint survives.
        """
        store = self._store()
        skipped: List[str] = []
        for info in reversed(self.checkpoints()):
            try:
                dmesh, fields, stats = store.load_at(
                    nparts=nparts,
                    epoch=info.index,
                    model=model,
                    topology=topology,
                    counters=counters,
                )
            except CorruptCheckpointError as exc:
                logger.warning(
                    "restore: skipping corrupt checkpoint %s: %s",
                    info.path.name,
                    exc,
                )
                skipped.append(f"{info.path.name}: {exc}")
                continue
            ghost_config = stats.extra.get("ghost_config")
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
