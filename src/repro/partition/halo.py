"""The halo graph: owner↔copy forests of one entity dimension, as columns.

Field synchronization is a star forest over the part-boundary links — roots
are owner copies, leaves every other copy (Knepley, Lange & Gorman, arXiv
1506.06194) — and PetscSF's contract is to set that graph once and
communicate over it many times.  Links change only when the mesh is
migrated, ghosted, adapted or relinked, while a solver synchronizes many
times in between.  So :class:`HaloPlan` derives both directions of the
graph from the parts' link columns once, as per-part-pair index columns
already in wire order, and
:meth:`~repro.partition.dmesh.DistributedMesh.halo_plan` caches one plan per
entity dimension, keyed by the parts' ``links_version`` counters, which
every link and ghost write of :class:`~repro.partition.part.Part` bumps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..parallel.sf import StarForest

#: ``{(root part, leaf part): (root ids, leaf ids)}`` — one row per leaf.
Pairs = Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]


def _pair_columns(table: np.ndarray, by: int) -> Pairs:
    """Rows ``(root part, leaf part, root id, leaf id)`` as per-pair columns.

    Pairs come out ascending; within a pair, rows ascend by column ``by``
    (3 = leaf id, the order ``bcast`` ships; 2 = root id, ``reduce``'s).
    """
    table = table[np.lexsort((table[:, by], table[:, 1], table[:, 0]))]
    cuts = np.flatnonzero((table[1:, :2] != table[:-1, :2]).any(axis=1)) + 1
    return {
        (int(rows[0, 0]), int(rows[0, 1])): (rows[:, 2].copy(), rows[:, 3].copy())
        for rows in np.split(table, cuts) if len(rows)
    }


def ids_by_part(pairs: Pairs, side: int) -> Dict[int, np.ndarray]:
    """Distinct ids per part on one side of ``pairs`` (0 = roots, 1 =
    leaves), parts ascending."""
    columns: Dict[int, List[np.ndarray]] = {}
    for pair, rows in pairs.items():
        columns.setdefault(pair[side], []).append(rows[side])
    return {
        pid: np.unique(np.concatenate(cols))
        for pid, cols in sorted(columns.items())
    }


def _same(a: Pairs, b: Pairs) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(x, y) for pair in a for x, y in zip(a[pair], b[pair])
    )


class HaloPlan:
    """Owner→copy and copy→owner forests of one entity dimension.

    * ``owner_to_copy`` — per ``(owner part, copy part)``: owner ids and
      copy ids, one row per non-owner copy of a shared entity, rows
      ascending by copy id (the wire order of ``bcast``: synchronize);
    * ``copy_to_owner`` — per ``(owner part, copy part)``: each non-owner
      copy and the owner copy its part links to, rows ascending by owner id
      (the wire order of ``reduce``: accumulate);
    * ``sync_roots``, ``accum_leaves``, ``accum_roots`` — per part, the
      distinct ids on the side a field's value mask filters, and the owner
      copies accumulate writes.

    Two plans are equal when their columns are.
    """

    def __init__(self, dmesh: Any, dim: int) -> None:
        self.comm = dmesh
        self.dim = dim
        cols = []
        for part in dmesh:
            ids, pids, rids = part.links(dim)
            # Rows ascend by (id, pid): an entity's first row names its
            # smallest remote part, and its owner is that part or this one.
            first = np.diff(ids, prepend=-1) != 0
            owner = np.minimum(pids[first][np.cumsum(first) - 1], part.pid)
            cols.append((np.full(len(ids), part.pid), ids, pids, rids, owner))
        me, ids, pids, rids, owner = map(np.concatenate, zip(*cols))
        sync = owner == me
        accum = ~sync & (pids == owner)
        self.owner_to_copy = _pair_columns(
            np.column_stack((me, pids, ids, rids))[sync], by=3
        )
        self.copy_to_owner = _pair_columns(
            np.column_stack((owner, me, rids, ids))[accum], by=2
        )
        self.sync_roots = ids_by_part(self.owner_to_copy, 0)
        self.accum_leaves = ids_by_part(self.copy_to_owner, 1)
        self.accum_roots = ids_by_part(self.copy_to_owner, 0)
        self._forests: Dict[str, StarForest] = {}

    def forest(self, pairs: Pairs, name: str) -> StarForest:
        """A star forest over ``pairs``; over one of the plan's own column
        sets it is built once per name and kept."""
        own = pairs is self.owner_to_copy or pairs is self.copy_to_owner
        forest = self._forests.get(name) if own else None
        if forest is None:
            forest = StarForest.from_columns(self.comm, pairs, name=name)
            if own:
                self._forests[name] = forest
        return forest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HaloPlan):
            return NotImplemented
        return (
            self.dim == other.dim
            and _same(self.owner_to_copy, other.owner_to_copy)
            and _same(self.copy_to_owner, other.copy_to_owner)
        )

    def __repr__(self) -> str:
        return (
            f"HaloPlan(dim={self.dim}, sync_pairs={len(self.owner_to_copy)}, "
            f"accum_pairs={len(self.copy_to_owner)})"
        )
