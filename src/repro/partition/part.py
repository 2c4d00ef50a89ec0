"""A part: one piece of a distributed mesh.

"When a mesh is distributed to N parts, each part is assigned to a process or
processing core.  A part is a subset of topological mesh entities of the
entire mesh, uniquely identified by its handle or id" (paper, Section II-A).

Each part is a full serial :class:`~repro.mesh.mesh.Mesh` plus the extra
bookkeeping the distributed representation needs:

* **global ids** — vertices and elements carry a gid unique across the
  whole distributed mesh within its dimension; every entity between them
  (edges, and faces of a 3-D mesh) is identified by its sorted vertex-gid
  key (:meth:`entity_keys`), which is how copies on different parts are
  matched.  Gids are stored as a per-dimension int64 column indexed by
  entity handle (-1 = unset) with a gid→handle reverse dict, so single
  lookups stay O(1) and batch lookups (:meth:`gids_of`) are one vectorized
  gather; only the vertex and element columns are ever written, those of
  the dimensions between stay empty;
* **links** — one row per remote copy of a part-boundary entity (the
  paper's duplicated entities) in three read-only int64 columns per
  dimension, ``(ids, pids, rids)``: part ``pids[k]`` holds local entity
  ``ids[k]`` at ``rids[k]``; sorted by ``(id, pid)``, no duplicate or self
  rows;
* **ghosts** — read-only off-part copies created by ghosting, excluded from
  ownership and balance accounting: per dimension, two handle-indexed int64
  columns, the home part (-1 = not a ghost) and home handle (-1 = unknown).

Only this class writes links and ghosts (:meth:`Part.replace_links`,
:meth:`Part.add_ghosts`, :meth:`Part.clear_ghosts`, the destroy listener)
and every write bumps :attr:`Part.links_version`.  Residence parts and
ownership are derived, not stored: the residence part set of an entity is
its own part plus its remote-copy parts, and the owning part is the
smallest id in that set (the standard deterministic rule; the partition
model can impose others).

Because the mesh core reuses destroyed handles (free-list allocation), the
part registers a destroy listener on its mesh and evicts gid, link and ghost
entries the moment their entity dies — a recycled handle can therefore never
alias stale bookkeeping.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..mesh.core import VERT_WIDTH
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh

_UNSET = np.int64(-1)


def _frozen(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False
    return col


def _grown(col: np.ndarray, idx: int) -> np.ndarray:
    """``col`` if its last axis has a slot ``idx``, else a copy at least
    twice as long there, padded with -1."""
    size = col.shape[-1]
    if idx < size:
        return col
    grown = np.full(col.shape[:-1] + (max(2 * size, idx + 1),), _UNSET)
    grown[..., :size] = col
    return grown


#: One dimension's link columns ``(ids, pids, rids)``.
Links = Tuple[np.ndarray, np.ndarray, np.ndarray]


class Part:
    """One part of a distributed mesh."""

    def __init__(self, pid: int, mesh: Optional[Mesh] = None) -> None:
        self.pid = pid
        #: bumped by every link or ghost write; views cached from the links
        #: (:meth:`~repro.partition.dmesh.DistributedMesh.halo_plan`) key on it.
        self.links_version = 0
        self._links: List[Links] = [(_frozen(np.empty(0, np.int64)),) * 3] * 4
        #: per-dim ghost columns indexed by entity handle: row 0 the home
        #: part (-1 = not a ghost), row 1 the home handle (-1 = unknown).
        self._ghosts = [np.full((2, 16), _UNSET) for _ in range(4)]
        #: per-dim gid columns indexed by entity handle; -1 = unset.
        self._gid_arr: List[np.ndarray] = [np.full(16, _UNSET) for _ in range(4)]
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
        linked = self._links[dim][0]
        at = np.minimum(linked.searchsorted(ids), len(linked) - 1)
        if len(linked) and (linked[at] == ids).any():
            self.replace_links(dim, ids, (), (), ())
        ghosts = self._ghosts[dim]
        known = ids[ids < ghosts.shape[1]]
        if (ghosts[0, known] != _UNSET).any():
            ghosts[:, known] = _UNSET
            self.links_version += 1

    # -- links -----------------------------------------------------------------

    def links(self, dim: int) -> Links:
        """The read-only link columns ``(ids, pids, rids)`` of one dimension."""
        return self._links[dim]

    def copies(self, ent: Ent) -> Tuple[np.ndarray, np.ndarray]:
        """``(pids, rids)`` of ``ent``'s remote copies, parts ascending."""
        ids, pids, rids = self._links[ent.dim]
        lo, hi = ids.searchsorted((ent.idx, ent.idx + 1))
        return pids[lo:hi], rids[lo:hi]

    def replace_links(self, dim: int, drop_ids, ids, pids, rids) -> None:
        """Drop every row of the entities ``drop_ids`` and ``ids`` by mask,
        then merge in the rows ``(ids[k], pids[k], rids[k])`` with one sort."""
        new = [np.asarray(col, dtype=np.int64) for col in (ids, pids, rids)]
        drop = np.concatenate((np.asarray(drop_ids, dtype=np.int64), new[0]))
        if not len(drop):
            return
        old = self._links[dim]
        keep = ~np.isin(old[0], drop)
        rows = [np.concatenate((o[keep], n)) for o, n in zip(old, new)]
        if len(new[0]):
            order = np.lexsort((rows[1], rows[0]))
            rows = [col[order] for col in rows]
        self._links[dim] = tuple(map(_frozen, rows))
        self.links_version += 1

    @property
    def remotes(self) -> Mapping[Ent, Mapping[int, Ent]]:
        """A read-only ``{entity: {pid: remote entity}}`` view, built per access."""
        view = {}
        for d, (ids, pids, rids) in enumerate(self._links):
            for idx, pid, rid in zip(ids.tolist(), pids.tolist(), rids.tolist()):
                view.setdefault(Ent(d, idx), {})[pid] = Ent(d, rid)
        return MappingProxyType(
            {ent: MappingProxyType(copies) for ent, copies in view.items()}
        )

    # -- ghosts ----------------------------------------------------------------

    def add_ghosts(self, dim: int, ids, home_pid, home_id) -> None:
        """Mark ``ids`` as ghosts of the entities ``home_id`` (-1 = unknown)
        on parts ``home_pid`` (arrays aligned with ``ids``, or scalars)."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids):
            self._ghosts[dim] = ghosts = _grown(self._ghosts[dim], ids.max())
            ghosts[0, ids], ghosts[1, ids] = home_pid, home_id
            self.links_version += 1

    def clear_ghosts(self) -> None:
        """Forget every ghost mark (the entities stay)."""
        for ghosts in self._ghosts:
            ghosts.fill(_UNSET)
        self.links_version += 1

    def ghost_ids(self, dim: int) -> np.ndarray:
        """Handles of the ghosts of one dimension, ascending."""
        return np.flatnonzero(self._ghosts[dim][0] != _UNSET)

    def homes(self, dim: int, ids) -> np.ndarray:
        """Rows ``(home parts, home handles; -1 = unknown)`` of ghosts ``ids``."""
        return self._ghosts[dim][:, ids]

    def has_ghosts(self) -> bool:
        return any(len(self.ghost_ids(d)) for d in range(4))

    @property
    def ghosts(self) -> frozenset:
        """A read-only set view of every ghost entity, built on each access."""
        return frozenset(
            Ent(d, idx) for d in range(4) for idx in self.ghost_ids(d).tolist()
        )

    # -- global ids ----------------------------------------------------------

    def _gid_col(self, dim: int, idx: int) -> np.ndarray:
        self._gid_arr[dim] = col = _grown(self._gid_arr[dim], idx)
        return col

    def set_gid(self, ent: Ent, gid: int) -> None:
        """Assign one entity's global id (see :meth:`set_gids`)."""
        self.set_gids(ent.dim, [ent.idx], [gid])

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
        """Vectorized gid assignment: ``ids[k]`` takes ``gids[k]``.

        Only vertices and elements carry gids; an entity in between is
        identified by its vertex-gid key (:meth:`entity_keys`), so a write
        on dimensions ``1 .. mesh.dim() - 1`` raises ``ValueError``, and so
        does a row whose entity already has a gid, whose gid is negative
        or already taken on this part, or that names an entity or a gid
        another row names too.  Nothing is written unless every row is
        valid.
        """
        ids = np.asarray(ids, dtype=np.int64)
        gids = np.asarray(gids, dtype=np.int64)
        if 0 < dim < self.mesh.dim():
            raise ValueError(
                f"part {self.pid}: dim-{dim} entities have no gids; they are "
                f"identified by their vertex-gid keys"
            )
        if len(ids) == 0:
            return
        col = self._gid_col(dim, int(ids.max()))
        by_gid = self._by_gid[dim]
        if (col[ids] != _UNSET).any() or len(np.unique(ids)) < len(ids):
            raise ValueError(
                f"part {self.pid}: a dim-{dim} entity already has a gid or "
                f"is named twice"
            )
        gid_list = gids.tolist()
        if (
            (gids < 0).any() or len(set(gid_list)) < len(gid_list)
            or any(g in by_gid for g in gid_list)
        ):
            raise ValueError(
                f"part {self.pid}: a dim-{dim} gid is negative or already "
                f"taken"
            )
        col[ids] = gids
        by_gid.update(zip(gid_list, ids.tolist()))

    # -- batch gid access ------------------------------------------------------

    def gid_array(self, dim: int) -> np.ndarray:
        """The raw gid column for ``dim`` (handle-indexed; -1 = unset)."""
        return self._gid_col(dim, self.mesh.core.top[dim] - 1)

    def gids_of(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Vectorized gid lookup for an array of entity handles."""
        ids = np.asarray(ids, dtype=np.int64)
        return self._gid_col(dim, int(ids.max(initial=0)))[ids]

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

    def by_key(self, dim: int, key: Sequence[int]) -> Optional[Ent]:
        """The live dim-``dim`` entity whose key (:meth:`entity_key`) is
        ``key``, or None."""
        corners = [self.by_gid(0, gid) for gid in key]
        if not corners or None in corners:
            return None
        if dim == 0:
            return corners[0] if len(corners) == 1 else None
        return self.mesh.find(dim, corners)

    # -- residence / ownership -------------------------------------------------

    def residence(self, ent: Ent) -> Tuple[int, ...]:
        """Sorted residence-part ids of ``ent`` (always includes this part)."""
        pids, _rids = self.copies(ent)
        return tuple(sorted([self.pid, *pids.tolist()]))

    def is_shared(self, ent: Ent) -> bool:
        """True when ``ent`` is a part-boundary entity (has remote copies)."""
        ids = self._links[ent.dim][0]
        at = ids.searchsorted(ent.idx)
        return bool(at < len(ids) and ids[at] == ent.idx)

    def is_ghost(self, ent: Ent) -> bool:
        ghosts = self._ghosts[ent.dim]
        return bool(ent.idx < ghosts.shape[1] and ghosts[0, ent.idx] != _UNSET)

    def owner(self, ent: Ent) -> int:
        """Owning part id of ``ent`` — the smallest residence part.

        Ghosts are owned by their home part regardless of residence.
        """
        if self.is_ghost(ent):
            return int(self._ghosts[ent.dim][0, ent.idx])
        pids, _rids = self.copies(ent)
        return min(self.pid, int(pids[0])) if len(pids) else self.pid

    def owns(self, ent: Ent) -> bool:
        return self.owner(ent) == self.pid

    # -- part boundary iteration -------------------------------------------------

    def shared_entities(self, dim: int) -> Iterator[Ent]:
        """Part-boundary entities of one dimension, in id order."""
        for idx in np.unique(self._links[dim][0]).tolist():
            yield Ent(dim, idx)

    def neighbors(self, dim: Optional[int] = None) -> Set[int]:
        """Part ids sharing any entity (of ``dim``, or of any dimension).

        "A part Pi neighbors part Pj over entity type d if they share d
        dimensional mesh entities on part boundary" (paper, Section II-D).
        """
        dims = range(4) if dim is None else (dim,)
        return set(np.concatenate([self._links[d][1] for d in dims]).tolist())

    # -- counting --------------------------------------------------------------

    def entity_count(self, dim: int) -> int:
        """Live non-ghost entities of one dimension on this part."""
        return self.mesh.count(dim) - len(self.ghost_ids(dim))

    def entity_counts(self) -> Tuple[int, int, int, int]:
        return tuple(self.entity_count(d) for d in range(4))  # type: ignore

    def owned_ids(self, dim: int) -> np.ndarray:
        """Handles of the entities of ``dim`` this part owns, ascending: the
        live non-ghosts less those shared with a lower part."""
        ids, pids, _rids = self._links[dim]
        foreign = np.union1d(self.ghost_ids(dim), ids[pids < self.pid])
        return np.setdiff1d(self.mesh.entity_ids(dim), foreign)

    def owned_count(self, dim: int) -> int:
        """Entities of ``dim`` this part owns (each counted once globally)."""
        return len(self.owned_ids(dim))

    def __repr__(self) -> str:
        v, e, f, r = self.entity_counts()
        return (
            f"Part({self.pid}, verts={v}, edges={e}, faces={f}, regions={r}, "
            f"shared={sum(len(np.unique(ids)) for ids, _p, _r in self._links)}, "
            f"ghosts={sum(len(self.ghost_ids(d)) for d in range(4))})"
        )
