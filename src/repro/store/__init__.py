"""`repro.store`: parallel incremental snapshot I/O (``repro.store/1``).

The one on-disk format of a distributed mesh (Hapla et al., arXiv
2004.08729): canonical, part-count-agnostic chunked records in
CRC-validated codec frames under a SHA-256 manifest, plus the one
part-dependent file — the owner column that lets a load at the saved part
count restore the saved partition (:mod:`repro.store.format`);
full/differential epoch chains with deterministic compaction and
star-forest repartition-on-load (:mod:`repro.store.snapshot`); a
content-addressed warm-start cache for the serving tier
(:mod:`repro.store.cache`); and the decode-only converter for checkpoint
directories an earlier version wrote (:mod:`repro.store.convert`).  The
resilience layer's :class:`~repro.resilience.CheckpointManager` is rotation
and fallback policy over one :class:`SnapshotStore`.
"""

from .format import (
    DEFAULT_CHUNK_RECORDS,
    FORMAT,
    CorruptCheckpointError,
    CorruptSnapshotError,
    SnapshotState,
    apply_delta,
    diff_states,
    element_partition,
    field_checksum,
    owned_gid_set,
    state_from_dmesh,
)
from .snapshot import EpochInfo, SnapshotStore, StoreStats
from .cache import (
    SnapshotCache,
    cache_key,
    current_cache,
    install_cache,
    uninstall_cache,
)
from .convert import convert_dmesh2

__all__ = [
    "DEFAULT_CHUNK_RECORDS",
    "FORMAT",
    "CorruptCheckpointError",
    "CorruptSnapshotError",
    "EpochInfo",
    "SnapshotCache",
    "SnapshotState",
    "SnapshotStore",
    "StoreStats",
    "apply_delta",
    "cache_key",
    "convert_dmesh2",
    "current_cache",
    "diff_states",
    "element_partition",
    "field_checksum",
    "install_cache",
    "owned_gid_set",
    "state_from_dmesh",
    "uninstall_cache",
]
