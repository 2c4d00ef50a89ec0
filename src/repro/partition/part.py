"""A part: one piece of a distributed mesh.

"When a mesh is distributed to N parts, each part is assigned to a process or
processing core.  A part is a subset of topological mesh entities of the
entire mesh, uniquely identified by its handle or id" (paper, Section II-A).

Each part is a full serial :class:`~repro.mesh.mesh.Mesh` plus the extra
bookkeeping the distributed representation needs:

* **global ids** — every entity carries a gid unique across the whole
  distributed mesh within its dimension, used to match copies across parts.
  Gids are stored as a per-dimension int64 column indexed by entity handle
  (-1 = unset) with a gid→handle reverse dict, so single lookups stay O(1)
  and batch lookups (:meth:`gids_of`) are one vectorized gather;
* **remote copies** — for part-boundary entities, the map
  ``{other part id: remote entity handle}`` (the paper's duplicated
  entities);
* **ghosts** — read-only off-part copies created by ghosting, excluded from
  ownership and balance accounting.

Residence parts and ownership are derived, not stored: the residence part set
of an entity is its own part plus its remote-copy parts, and the owning part
is the smallest id in that set (the standard deterministic rule; the
partition model can impose others).

Because the mesh core reuses destroyed handles (free-list allocation), the
part registers a destroy listener on its mesh and evicts gid/remote/ghost
entries the moment their entity dies — a recycled handle can therefore never
alias stale bookkeeping.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..mesh.core import VERT_WIDTH
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh

_UNSET = np.int64(-1)


class Part:
    """One part of a distributed mesh."""

    def __init__(self, pid: int, mesh: Optional[Mesh] = None) -> None:
        self.pid = pid
        #: remote copies: local entity -> {remote pid: remote entity}.
        self.remotes: Dict[Ent, Dict[int, Ent]] = {}
        #: ghost entities (read-only off-part copies) present locally.
        self.ghosts: Set[Ent] = set()
        #: for each ghost, the (owner pid, owner-local entity) it mirrors.
        self.ghost_home: Dict[Ent, Tuple[int, Ent]] = {}
        #: link-state counter: every write of ``remotes``, ``ghosts`` or
        #: ``ghost_home`` bumps it, and views cached from the links (the
        #: :meth:`~repro.partition.dmesh.DistributedMesh.halo_plan`) are
        #: keyed by it — code that edits the links by hand must bump it too.
        self.links_version = 0
        #: per-dim gid columns indexed by entity handle; -1 = unset.
        self._gid_arr: List[np.ndarray] = [
            np.full(16, _UNSET, dtype=np.int64) for _ in range(4)
        ]
        self._by_gid: List[Dict[int, int]] = [{}, {}, {}, {}]
        self.mesh = mesh if mesh is not None else Mesh()

    # -- mesh attachment -----------------------------------------------------

    @property
    def mesh(self) -> Mesh:
        return self._mesh

    @mesh.setter
    def mesh(self, mesh: Mesh) -> None:
        self._mesh = mesh
        mesh.add_destroy_listener(self._entity_destroyed)

    def _entity_destroyed(self, dim: int, ids: np.ndarray) -> None:
        """Eagerly evict all bookkeeping for a destroyed batch of entities.

        Handle reuse makes lazy cleanup unsound: by the time a sweep runs,
        the handle may already name a different live entity.
        """
        col = self._gid_arr[dim]
        known = ids[ids < len(col)]
        gids = col[known]
        col[known] = _UNSET
        by_gid = self._by_gid[dim]
        for gid in gids[gids != _UNSET].tolist():
            by_gid.pop(gid, None)
        if self.remotes or self.ghosts or self.ghost_home:
            self.links_version += 1
            ents = list(map(Ent, repeat(dim), ids.tolist()))
            self.ghosts.difference_update(ents)
            for links in (self.remotes, self.ghost_home):
                if links:
                    for ent in ents:
                        links.pop(ent, None)

    # -- global ids ----------------------------------------------------------

    def _gid_col(self, dim: int, idx: int) -> np.ndarray:
        col = self._gid_arr[dim]
        if idx >= len(col):
            grown = np.full(max(2 * len(col), idx + 1), _UNSET, dtype=np.int64)
            grown[: len(col)] = col
            self._gid_arr[dim] = col = grown
        return col

    def set_gid(self, ent: Ent, gid: int) -> None:
        """Assign ``ent``'s global id (one per dimension, unique per mesh)."""
        col = self._gid_col(ent.dim, ent.idx)
        old = col[ent.idx]
        if old != _UNSET:
            del self._by_gid[ent.dim][int(old)]
        existing = self._by_gid[ent.dim].get(gid)
        if existing is not None and existing != ent.idx:
            raise ValueError(
                f"part {self.pid}: gid {gid} (dim {ent.dim}) already taken "
                f"by entity {existing}"
            )
        col[ent.idx] = gid
        self._by_gid[ent.dim][gid] = ent.idx

    def gid(self, ent: Ent) -> int:
        col = self._gid_arr[ent.dim]
        if ent.idx < len(col):
            gid = col[ent.idx]
            if gid != _UNSET:
                return int(gid)
        raise KeyError(f"part {self.pid}: {ent} has no global id")

    def has_gid(self, ent: Ent) -> bool:
        col = self._gid_arr[ent.dim]
        return ent.idx < len(col) and col[ent.idx] != _UNSET

    def by_gid(self, dim: int, gid: int) -> Optional[Ent]:
        idx = self._by_gid[dim].get(gid)
        return Ent(dim, idx) if idx is not None else None

    def drop_gid(self, ent: Ent) -> None:
        col = self._gid_arr[ent.dim]
        if ent.idx < len(col):
            gid = col[ent.idx]
            if gid != _UNSET:
                col[ent.idx] = _UNSET
                self._by_gid[ent.dim].pop(int(gid), None)

    def set_gids(self, dim: int, ids: np.ndarray, gids: np.ndarray) -> None:
        """Vectorized gid assignment under the *adopt* rule.

        ``ids[k]`` takes ``gids[k]`` only when the gid is set (not -1), the
        entity has no gid yet and the gid is still free on this part (first
        row wins among equal gids in one call) — identity of non-vertex
        entities is their vertex-gid tuple, so their gids are advisory and
        a conflicting one is dropped rather than raised on.
        """
        ids = np.asarray(ids, dtype=np.int64)
        gids = np.asarray(gids, dtype=np.int64)
        if len(ids) == 0:
            return
        col = self._gid_col(dim, int(ids.max()))
        by_gid = self._by_gid[dim]
        take = (gids != _UNSET) & (col[ids] == _UNSET)
        take[take] = [g not in by_gid for g in gids[take].tolist()]
        _uniq, first = np.unique(gids[take], return_index=True)
        ids, gids = ids[take][first], gids[take][first]
        col[ids] = gids
        by_gid.update(zip(gids.tolist(), ids.tolist()))

    # -- batch gid access ------------------------------------------------------

    def gid_array(self, dim: int) -> np.ndarray:
        """The raw gid column for ``dim`` (handle-indexed; -1 = unset)."""
        need = self.mesh.core.top[dim]
        if need > len(self._gid_arr[dim]):
            self._gid_col(dim, need - 1)
        return self._gid_arr[dim]

    def gids_of(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Vectorized gid lookup for an array of entity handles."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(ids.shape, dtype=np.int64)
        col = self._gid_arr[dim]
        if int(ids.max()) >= len(col):
            col = self._gid_col(dim, int(ids.max()))
        return col[ids]

    def gid_index_set(self, dim: int) -> Set[int]:
        """Handles of dimension ``dim`` that currently carry a gid."""
        col = self._gid_arr[dim]
        return set(np.nonzero(col != _UNSET)[0].tolist())

    # -- global identity -------------------------------------------------------

    def entity_keys(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Global identities of a batch of entities, one row each.

        Vertices carry authoritative gids; every higher entity is identified
        by the gids of its bounding vertices, so entities created
        independently on several parts (e.g. by coordinated refinement of a
        shared edge) match without any global id coordination.  Row ``k`` is
        the ascending vertex gids of ``ids[k]``, left-padded with -1 to the
        dimension's vertex width.
        """
        ids = np.asarray(ids, dtype=np.int64)
        gid0 = self.gid_array(0)
        if dim == 0:
            keys = gid0[ids][:, None]
            used = np.ones(keys.shape, dtype=bool)
        else:
            core = self.mesh.core
            used = np.arange(VERT_WIDTH[dim]) < core.nverts[dim][ids][:, None]
            keys = np.where(used, gid0[core.verts[dim][ids]], _UNSET)
        if (keys[used] == _UNSET).any():
            raise KeyError(
                f"part {self.pid}: a dim-{dim} entity has a vertex without "
                f"a global id"
            )
        keys.sort(axis=1)
        return keys

    def entity_key(self, ent: Ent) -> Tuple[int, ...]:
        """One entity's identity: its sorted bounding-vertex gids."""
        if ent.dim == 0:
            return (self.gid(ent),)
        row = self.entity_keys(ent.dim, [ent.idx])[0]
        return tuple(row[row != _UNSET].tolist())

    # -- residence / ownership -------------------------------------------------

    def residence(self, ent: Ent) -> Tuple[int, ...]:
        """Sorted residence-part ids of ``ent`` (always includes this part)."""
        copies = self.remotes.get(ent)
        if not copies:
            return (self.pid,)
        return tuple(sorted([self.pid, *copies.keys()]))

    def is_shared(self, ent: Ent) -> bool:
        """True when ``ent`` is a part-boundary entity (has remote copies)."""
        return bool(self.remotes.get(ent))

    def is_ghost(self, ent: Ent) -> bool:
        return ent in self.ghosts

    def owner(self, ent: Ent) -> int:
        """Owning part id of ``ent`` — the smallest residence part.

        Ghosts are owned by their home part regardless of residence.
        """
        home = self.ghost_home.get(ent)
        if home is not None:
            return home[0]
        return self.residence(ent)[0]

    def owns(self, ent: Ent) -> bool:
        return self.owner(ent) == self.pid

    # -- part boundary iteration -------------------------------------------------

    def shared_entities(self, dim: int) -> Iterator[Ent]:
        """Part-boundary entities of one dimension, in id order."""
        for ent in sorted(self.remotes):
            if ent.dim == dim:
                yield ent

    def neighbors(self, dim: Optional[int] = None) -> Set[int]:
        """Part ids sharing any entity (of ``dim``, or of any dimension).

        "A part Pi neighbors part Pj over entity type d if they share d
        dimensional mesh entities on part boundary" (paper, Section II-D).
        """
        result: Set[int] = set()
        for ent, copies in self.remotes.items():
            if dim is None or ent.dim == dim:
                result.update(copies.keys())
        return result

    # -- counting --------------------------------------------------------------

    def entity_count(self, dim: int) -> int:
        """Live non-ghost entities of one dimension on this part."""
        total = self.mesh.count(dim)
        ghosts = sum(1 for g in self.ghosts if g.dim == dim)
        return total - ghosts

    def entity_counts(self) -> Tuple[int, int, int, int]:
        return tuple(self.entity_count(d) for d in range(4))  # type: ignore

    def owned_count(self, dim: int) -> int:
        """Entities of ``dim`` this part owns (each counted once globally)."""
        total = 0
        for ent in self.mesh.entities(dim):
            if ent not in self.ghosts and self.owns(ent):
                total += 1
        return total

    def __repr__(self) -> str:
        v, e, f, r = self.entity_counts()
        return (
            f"Part({self.pid}, verts={v}, edges={e}, faces={f}, regions={r}, "
            f"shared={len(self.remotes)}, ghosts={len(self.ghosts)})"
        )
