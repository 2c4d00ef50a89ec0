"""Array-native mesh storage: structure-of-arrays topology with CSR kernels.

:class:`MeshCore` replaces the object-per-entity stores with a handful of
NumPy index arrays per dimension — the DMPlex-style representation (Knepley
et al.) where topology, adjacency and per-entity columns are all flat arrays
indexed by integer entity handles:

* ``etype[d]``   — int16 type codes,
* ``alive[d]``   — liveness bitmap,
* ``verts[d]``   — padded canonical vertex-id rows (``nverts[d]`` counts),
* ``down[d]``    — padded one-level downward rows (``ndown[d]`` counts),
* ``up[d]``      — padded one-level upward rows (``nup[d]`` counts), each
  row kept **sorted ascending** so membership tests and removals are
  binary searches and wire traversals are deterministic,
* ``gclass[d]``  — int16 geometric classification codes (−1 = unset; the
  owning :class:`~repro.mesh.mesh.Mesh` maps codes to model entities),
  reset when an entity dies,
* ``free[d]``    — LIFO free-list of dead slots; :meth:`create` and the
  block allocator :meth:`alloc_block` pop it, so handles **are reused**.  Consumers that key external state by handle
  must register a destroy listener on the owning
  :class:`~repro.mesh.mesh.Mesh` to evict stale entries eagerly.

Padded fixed-stride rows are the mutable-topology variant of CSR: every
row's prefix is the CSR segment and the count array is the (implicit)
indptr diff.  :meth:`downward_csr` / :meth:`upward_csr` emit true
``(indptr, indices)`` pairs for batch consumers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Padded row widths per dimension: canonical vertices (hex has 8) and
#: one-level downward entities (hex has 6 faces).  Upward rows grow
#: dynamically with vertex/edge valence.
VERT_WIDTH = (1, 2, 4, 8)
DOWN_WIDTH = (0, 2, 4, 6)

_ID = np.int32
_INITIAL = 16


def first_seen(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal integer keys in order of first occurrence.

    Returns ``(first, group)``: the position of each distinct key's first
    occurrence, ascending (which is first-seen order), and for every entry
    the index in ``first`` of its key.  One plain sort of ``key * n +
    position`` — distinct values, so no stable sort is needed (keys are
    made dense first when that product could overflow).
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = keys - keys.min()
    if int(keys.max()) >= 2**62 // n:
        keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
    code = keys * n + np.arange(n)
    code.sort()
    keys, pos = np.divmod(code, n)
    lead = np.empty(n, dtype=bool)
    lead[0] = True
    np.not_equal(keys[1:], keys[:-1], out=lead[1:])
    runs = np.flatnonzero(lead)
    firsts = pos[runs]
    first = np.sort(firsts)
    rank = np.empty(n, dtype=np.int64)
    rank[first] = np.arange(len(first))
    group = np.empty(n, dtype=np.int64)
    group[pos] = np.repeat(rank[firsts], np.diff(np.append(runs, n)))
    return first, group


def first_occurrence_unique(ids: np.ndarray) -> np.ndarray:
    """Unique ids in order of first occurrence (stable dedupe, vectorized)."""
    if len(ids) == 0:
        return ids
    return ids[first_seen(ids)[0]]


class MeshCore:
    """SoA topology storage for all four dimensions of one mesh part."""

    def __init__(self) -> None:
        self.etype: List[np.ndarray] = []
        self.alive: List[np.ndarray] = []
        self.nverts: List[np.ndarray] = []
        self.verts: List[np.ndarray] = []
        self.ndown: List[np.ndarray] = []
        self.down: List[np.ndarray] = []
        self.nup: List[np.ndarray] = []
        self.up: List[np.ndarray] = []
        self.gclass: List[np.ndarray] = []
        #: LIFO free-lists of dead slots, per dimension.
        self.free: List[List[int]] = [[] for _ in range(4)]
        self.n_alive = [0, 0, 0, 0]
        #: Slot high-water mark per dimension (== total ids ever in use).
        self.top = [0, 0, 0, 0]
        self._version = [0, 0, 0, 0]
        self._live_cache: List[Tuple[int, np.ndarray]] = [(-1, np.empty(0, _ID))] * 4
        for d in range(4):
            self._alloc(d, _INITIAL)

    def _alloc(self, d: int, cap: int) -> None:
        self.etype.append(np.zeros(cap, dtype=np.int16))
        self.alive.append(np.zeros(cap, dtype=bool))
        self.nverts.append(np.zeros(cap, dtype=np.int8))
        self.verts.append(np.zeros((cap, VERT_WIDTH[d]), dtype=_ID))
        self.ndown.append(np.zeros(cap, dtype=np.int8))
        self.down.append(np.zeros((cap, max(DOWN_WIDTH[d], 1)), dtype=_ID))
        self.nup.append(np.zeros(cap, dtype=np.int32))
        self.up.append(np.zeros((cap, 4), dtype=_ID))
        self.gclass.append(np.full(cap, -1, dtype=np.int16))

    # -- growth ------------------------------------------------------------

    def _grow(self, d: int, need: int) -> None:
        cap = len(self.etype[d])
        if need <= cap:
            return
        new = max(2 * cap, need)

        def grown(arr: np.ndarray, fill: int = 0) -> np.ndarray:
            out = np.zeros((new,) + arr.shape[1:], dtype=arr.dtype)
            out[:cap] = arr
            if fill:
                out[cap:] = fill
            return out

        self.etype[d] = grown(self.etype[d])
        self.alive[d] = grown(self.alive[d])
        self.nverts[d] = grown(self.nverts[d])
        self.verts[d] = grown(self.verts[d])
        self.ndown[d] = grown(self.ndown[d])
        self.down[d] = grown(self.down[d])
        self.nup[d] = grown(self.nup[d])
        self.up[d] = grown(self.up[d])
        self.gclass[d] = grown(self.gclass[d], -1)

    def _grow_up_width(self, d: int, need: int) -> None:
        width = self.up[d].shape[1]
        if need <= width:
            return
        new = max(2 * width, need)
        out = np.zeros((len(self.up[d]), new), dtype=_ID)
        out[:, :width] = self.up[d]
        self.up[d] = out

    # -- creation / destruction --------------------------------------------

    def create(
        self,
        dim: int,
        etype: int,
        verts: Sequence[int],
        down: Sequence[int],
    ) -> int:
        """Allocate one entity; reuses a freed slot when one is available."""
        if self.free[dim]:
            idx = self.free[dim].pop()
        else:
            idx = self.top[dim]
            self._grow(dim, idx + 1)
            self.top[dim] = idx + 1
        if dim == 0:
            verts = (idx,)
        self.etype[dim][idx] = etype
        self.alive[dim][idx] = True
        nv = len(verts)
        self.nverts[dim][idx] = nv
        self.verts[dim][idx, :nv] = verts
        nd = len(down)
        self.ndown[dim][idx] = nd
        if nd:
            self.down[dim][idx, :nd] = down
        self.nup[dim][idx] = 0
        self.n_alive[dim] += 1
        self._version[dim] += 1
        return idx

    def alloc_block(self, dim: int, n: int) -> np.ndarray:
        """The ids ``n`` sequential :meth:`create` calls would hand out.

        Pops the free-list first (LIFO), then extends ``top`` — so a bulk
        landing reuses dead slots exactly like the scalar path, and
        ghost → unghost → ghost cycles do not grow the arrays.  The slots
        are not live until :meth:`write_block` fills them.
        """
        free = self.free[dim]
        k = min(n, len(free))
        recycled = free[len(free) - k:][::-1]
        del free[len(free) - k:]
        start = self.top[dim]
        self._grow(dim, start + n - k)
        self.top[dim] = start + n - k
        ids = np.empty(n, dtype=_ID)
        ids[:k] = recycled
        ids[k:] = np.arange(start, start + n - k, dtype=_ID)
        return ids

    def write_block(
        self,
        dim: int,
        ids: np.ndarray,
        etypes,
        verts: Optional[np.ndarray],
        down: Optional[np.ndarray],
    ) -> None:
        """Fill allocated slots ``ids`` with uniform-width rows, bulk.

        ``verts`` is ``(len(ids), nverts)`` (ignored for vertices, whose
        canonical vertex is themselves) and ``down`` ``(len(ids), ndown)``
        or ``None``; ``etypes`` is a scalar or a per-row column.
        """
        n = len(ids)
        if n == 0:
            return
        self.etype[dim][ids] = etypes
        self.alive[dim][ids] = True
        if dim == 0:
            self.nverts[dim][ids] = 1
            self.verts[dim][ids, 0] = ids
        else:
            self.nverts[dim][ids] = verts.shape[1]
            self.verts[dim][ids, : verts.shape[1]] = verts
        if down is not None and down.size:
            self.ndown[dim][ids] = down.shape[1]
            self.down[dim][ids, : down.shape[1]] = down
        else:
            self.ndown[dim][ids] = 0
        self.nup[dim][ids] = 0
        self.n_alive[dim] += n
        self._version[dim] += 1

    def destroy(self, dim: int, idx: int) -> None:
        """Mark ``idx`` dead and push its slot onto the free-list."""
        self.check(dim, idx)
        if self.nup[dim][idx]:
            raise ValueError(
                f"cannot destroy dim-{dim} entity {idx}: still bounds "
                f"{int(self.nup[dim][idx])} higher entities"
            )
        self.alive[dim][idx] = False
        self.nverts[dim][idx] = 0
        self.ndown[dim][idx] = 0
        self.gclass[dim][idx] = -1
        self.n_alive[dim] -= 1
        self.free[dim].append(int(idx))
        self._version[dim] += 1

    def check_destroyable(self, dim: int, ids: np.ndarray) -> None:
        """Raise unless every id is live and bounds nothing."""
        if not self.alive_at(dim, ids).all():
            raise KeyError(f"dim-{dim} destroy batch names a dead entity")
        if self.nup[dim][ids].any():
            raise ValueError(
                f"cannot destroy dim-{dim} batch: some entities still bound "
                f"higher entities"
            )

    def destroy_block(self, dim: int, ids: np.ndarray) -> None:
        """Mark ``ids`` dead; slots go on the free-list in the given order.

        The bulk twin of :meth:`destroy`: every id must be live, distinct
        and bound nothing.
        """
        ids = np.asarray(ids, dtype=_ID)
        if len(ids) == 0:
            return
        self.check_destroyable(dim, ids)
        self.alive[dim][ids] = False
        self.nverts[dim][ids] = 0
        self.ndown[dim][ids] = 0
        self.gclass[dim][ids] = -1
        self.n_alive[dim] -= len(ids)
        self.free[dim].extend(ids.tolist())
        self._version[dim] += 1

    # -- per-entity accessors ----------------------------------------------

    def is_alive(self, dim: int, idx: int) -> bool:
        return 0 <= idx < self.top[dim] and bool(self.alive[dim][idx])

    def alive_at(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """:meth:`is_alive` over an id array of any shape."""
        inside = (ids >= 0) & (ids < self.top[dim])
        return inside & self.alive[dim][np.where(inside, ids, 0)]

    def check(self, dim: int, idx: int) -> None:
        if not self.is_alive(dim, idx):
            raise KeyError(f"dim-{dim} entity {idx} does not exist")

    def verts_row(self, dim: int, idx: int) -> Tuple[int, ...]:
        return tuple(self.verts[dim][idx, : self.nverts[dim][idx]].tolist())

    def down_row(self, dim: int, idx: int) -> Tuple[int, ...]:
        return tuple(self.down[dim][idx, : self.ndown[dim][idx]].tolist())

    def up_row(self, dim: int, idx: int) -> List[int]:
        return self.up[dim][idx, : self.nup[dim][idx]].tolist()

    def add_up(self, dim: int, idx: int, upper: int) -> None:
        """Insert ``upper`` into the sorted upward row of ``idx``."""
        n = int(self.nup[dim][idx])
        self._grow_up_width(dim, n + 1)
        row = self.up[dim][idx]
        pos = int(np.searchsorted(row[:n], upper))
        row[pos + 1 : n + 1] = row[pos:n]
        row[pos] = upper
        self.nup[dim][idx] = n + 1

    def remove_up(self, dim: int, idx: int, upper: int) -> None:
        n = int(self.nup[dim][idx])
        row = self.up[dim][idx]
        pos = int(np.searchsorted(row[:n], upper))
        if pos >= n or row[pos] != upper:
            raise ValueError(f"dim-{dim} entity {idx} does not bound {upper}")
        row[pos : n - 1] = row[pos + 1 : n]
        self.nup[dim][idx] = n - 1

    # -- batch kernels ------------------------------------------------------

    def live_ids(self, dim: int) -> np.ndarray:
        """Live entity ids of one dimension, ascending (cached per version)."""
        version, cached = self._live_cache[dim]
        if version != self._version[dim]:
            cached = np.nonzero(self.alive[dim][: self.top[dim]])[0].astype(_ID)
            self._live_cache[dim] = (self._version[dim], cached)
        return cached

    def gather_verts(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Concatenated canonical vertex ids of ``ids``, row-major order."""
        return self._concat_ragged(self.verts[dim], self.nverts[dim], ids)

    def gather_down(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Concatenated one-level downward ids of ``ids``, row-major order."""
        return self._concat_ragged(self.down[dim], self.ndown[dim], ids)

    def gather_up(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Concatenated one-level upward ids of ``ids``, row-major order."""
        return self._concat_ragged(self.up[dim], self.nup[dim], ids)

    @staticmethod
    def _concat_ragged(rows: np.ndarray, counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=_ID)
        if len(ids) == 0:
            return np.empty(0, dtype=_ID)
        n = counts[ids]
        width = int(n.max()) if len(n) else 0
        if width == 0:
            return np.empty(0, dtype=_ID)
        if (n == width).all():
            return rows[ids, :width].reshape(-1)
        mask = np.arange(width) < n[:, None]
        return rows[ids][:, :width][mask]

    def verts_matrix(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """``(len(ids), nverts)`` vertex-id matrix for uniform-type ids."""
        ids = np.asarray(ids, dtype=_ID)
        if len(ids) == 0:
            return np.empty((0, 0), dtype=_ID)
        width = int(self.nverts[dim][ids[0]])
        return self.verts[dim][ids, :width]

    def downward_csr(self, dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True-CSR ``(ids, indptr, indices)`` of live downward adjacency."""
        ids = self.live_ids(dim)
        counts = self.ndown[dim][ids].astype(np.int64)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return ids, indptr, self.gather_down(dim, ids)

    def upward_csr(self, dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True-CSR ``(ids, indptr, indices)`` of live upward adjacency."""
        ids = self.live_ids(dim)
        counts = self.nup[dim][ids].astype(np.int64)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return ids, indptr, self.gather_up(dim, ids)

    def bulk_add_up(
        self, dim: int, lower_ids: np.ndarray, upper_ids: np.ndarray
    ) -> None:
        """Record ``upper_ids[k]`` as an upward user of ``lower_ids[k]``, bulk.

        New entries are appended behind each row's current prefix and the
        rows that end out of order re-sorted, so rows stay ascending whether
        they were empty or not and whether the upper ids are fresh
        (ascending) or recycled free-list slots.
        """
        if len(lower_ids) == 0:
            return
        # Sorted by (lower id, position): one plain sort of distinct codes.
        n = len(lower_ids)
        code = np.asarray(lower_ids, dtype=np.int64) * n + np.arange(n)
        code.sort()
        lo, order = np.divmod(code, n)
        hi = np.asarray(upper_ids, dtype=_ID)[order]
        # Run-length decode of the sorted lower ids: one run per touched row.
        starts = np.flatnonzero(np.concatenate(([True], lo[1:] != lo[:-1])))
        counts = np.diff(np.append(starts, len(lo)))
        rows = lo[starts]
        nup = self.nup[dim]
        self._grow_up_width(dim, int((nup[rows] + counts).max()))
        # A row stays sorted if its new entries ascend and follow its last
        # old one; only the others need a sort.
        had = nup[rows]
        last = np.where(had > 0, self.up[dim][rows, np.maximum(had, 1) - 1], -1)
        step = np.ones(len(lo), dtype=bool)
        step[1:] = hi[1:] > hi[:-1]
        step[starts] = hi[starts] > last
        col = nup[lo] + (np.arange(len(lo)) - np.repeat(starts, counts))
        self.up[dim][lo, col] = hi
        nup[rows] += counts.astype(np.int32)
        unsorted = lo[~step]  # ascending, with repeats
        if len(unsorted):
            self._sort_up_rows(
                dim, unsorted[np.append(True, unsorted[1:] != unsorted[:-1])]
            )

    def bulk_remove_up(
        self, dim: int, lower_ids: np.ndarray, dead_upper: np.ndarray
    ) -> None:
        """Drop every upper id flagged in ``dead_upper`` from the upward rows
        of ``lower_ids`` (distinct), keeping the survivors in order.

        ``dead_upper`` is a boolean mask over the dim+1 slot array.
        """
        if len(lower_ids) == 0:
            return
        rows = np.asarray(lower_ids, dtype=np.int64)
        block = self.up[dim][rows]
        valid = np.arange(block.shape[1]) < self.nup[dim][rows][:, None]
        keep = valid & ~dead_upper[block]
        order = np.argsort(~keep, axis=1, kind="stable")
        block = np.take_along_axis(block, order, axis=1)
        kept = keep.sum(axis=1)
        block[np.arange(block.shape[1]) >= kept[:, None]] = 0
        self.up[dim][rows] = block
        self.nup[dim][rows] = kept

    def _sort_up_rows(self, dim: int, rows: np.ndarray) -> None:
        block = self.up[dim][rows]
        pad = np.arange(block.shape[1]) >= self.nup[dim][rows][:, None]
        block[pad] = np.iinfo(_ID).max
        block.sort(axis=1)
        block[pad] = 0
        self.up[dim][rows] = block
