"""Distributed fields and owner→copy synchronization across part boundaries.

Part-boundary entities are duplicated on every residence part, so any field
over them has one value per copy; keeping those values consistent is the
field layer's distributed service.  Two primitives cover the standard
patterns:

* :func:`synchronize` — the owner's value overwrites every copy (the
  canonical owner-to-copy broadcast after the owner updates a dof);
* :func:`accumulate` — copies' values are summed on the owner and the total
  redistributed (finite-element assembly of shared dofs).

Both run over the star-forest primitive
(:class:`~repro.parallel.sf.StarForest`): the ownership relation *is* a
star forest — roots are owner copies, leaves the other copies — so
``synchronize`` is ``bcast`` over that forest and ``accumulate`` is
``reduce(op="sum")`` over its transpose followed by the same ``bcast``.
The forests are set once per link state
(:class:`~repro.partition.halo.HaloPlan`, kept by
:meth:`~repro.partition.dmesh.DistributedMesh.halo_plan`).  A call applies
the field's value mask to them as a column filter, gathers each sending
part's values with one :meth:`~repro.field.field.Field.get_many` over all
its pairs (the forest's outgoing handles, in wire order), ships each pair's
slice as one ``VALUES`` frame and lands each receiving part's values with
one :meth:`~repro.field.field.Field.set_many` after the op.

:class:`DistributedField` bundles one :class:`~repro.field.field.Field` per
part under one name so callers can treat the distributed field as a unit.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from ..field.field import Field, Shape
from ..mesh.entity import Ent
from ..obs.stats import AccumulateStats, CommProbe, SyncStats
from ..obs.tracer import trace_span
from ..parallel.sf import VALUES
from .dmesh import DistributedMesh
from .halo import Pairs, ids_by_part


class DistributedField:
    """One field per part, sharing a name, entity dimension and shape."""

    def __init__(
        self,
        dmesh: DistributedMesh,
        name: str,
        entity_dim: int = 0,
        shape: Shape = 1,
    ) -> None:
        self.dmesh = dmesh
        self.name = name
        self.entity_dim = entity_dim
        self.fields: Dict[int, Field] = {
            part.pid: Field(part.mesh, name, entity_dim, shape)
            for part in dmesh
        }

    def on(self, pid: int) -> Field:
        return self.fields[pid]

    def set_from_coords(self, fn) -> None:
        """Assign ``fn(xyz)`` on every part's vertices (vertex fields)."""
        for part in self.dmesh:
            self.fields[part.pid].set_from_coords(fn)

    def zero_all(self) -> None:
        for field in self.fields.values():
            field.zero_all()

    def items(self) -> Iterator[Tuple[int, Ent, np.ndarray]]:
        for pid in sorted(self.fields):
            for ent, value in self.fields[pid].items():
                yield pid, ent, value

    def max_copy_disagreement(self) -> float:
        """Largest |difference| between copies of any shared entity's value,
        over the link rows where both copies hold one.

        Zero means the field is synchronized.  One ``has_many``/``get_many``
        per part and remote part.
        """
        worst = 0.0
        for part in self.dmesh:
            ids, pids, rids = part.links(self.entity_dim)
            mine = self.fields[part.pid]
            for pid in np.unique(pids).tolist():
                rows = pids == pid
                local, remote = ids[rows], rids[rows]
                theirs = self.fields[pid]
                both = mine.has_many(local) & theirs.has_many(remote)
                if both.any():
                    diff = np.abs(
                        mine.get_many(local[both]) - theirs.get_many(remote[both])
                    ).max(axis=1)
                    # A row whose difference is NaN does not count.
                    worst = max(worst, float(np.nanmax(diff, initial=0.0)))
        return worst


def _holding(
    pairs: Pairs,
    by_part: Dict[int, np.ndarray],
    side: int,
    fields: Dict[int, Field],
) -> Pairs:
    """``pairs`` cut to the rows whose ``side`` end (0 = root, 1 = leaf)
    holds a value: the field's value mask as a column filter.

    One mask gather per part over ``by_part`` (the plan's ids on that side)
    settles the common case — every row qualifies, ``pairs`` itself comes
    back and the plan's kept forest serves — otherwise each pair's columns
    are filtered.
    """
    if all(fields[pid].has_many(ids).all() for pid, ids in by_part.items()):
        return pairs
    kept: Pairs = {}
    for pair, columns in pairs.items():
        keep = fields[pair[side]].has_many(columns[side])
        if keep.any():
            kept[pair] = (columns[0][keep], columns[1][keep])
    return kept


def _require_values(
    dfield: DistributedField, roots: Dict[int, np.ndarray]
) -> None:
    """Accumulate is all or nothing: before anything moves, every owner
    copy due a contribution must hold a value."""
    for pid, ids in roots.items():
        held = dfield.on(pid).has_many(ids)
        if not held.all():
            missing = Ent(dfield.entity_dim, int(ids[~held][0]))
            raise KeyError(f"field {dfield.name!r} has no value on {missing}")


def _gather(
    dfield: DistributedField,
    outgoing: Dict[int, Tuple[np.ndarray, Dict[int, slice]]],
) -> Callable:
    """The ``batch_data`` of one op over a forest's
    :meth:`~repro.parallel.sf.StarForest.outgoing` handles: each sending
    part's values over all its pairs with one ``get_many`` (on its first
    pair), then one slice per pair."""
    gathered: Dict[int, np.ndarray] = {}

    def batch_data(pid: int, peer: int, _ids: np.ndarray) -> np.ndarray:
        ids, slices = outgoing[pid]
        rows = gathered.get(pid)
        if rows is None:
            field = dfield.fields[pid]
            rows = gathered[pid] = field.get_many(ids).reshape(
                (len(ids),) + field.shape
            )
        return rows[slices[peer]]

    return batch_data


def synchronize(dfield: DistributedField) -> SyncStats:
    """Overwrite every copy with the owner's value.

    Returns a :class:`SyncStats` record; ``stats.values_sent`` is the number
    of owner-to-copy values shipped and ``stats.sf_ops`` the star-forest
    operations executed (always one broadcast).  Owner copies without a
    value send nothing.
    """
    dmesh = dfield.dmesh
    fields = dfield.fields
    probe = CommProbe(dmesh.counters)
    landed: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}

    def land(lpid: int, _rpid: int, batch: Tuple[np.ndarray, np.ndarray]) -> None:
        landed.setdefault(lpid, []).append(batch)

    with trace_span(dmesh.tracer, "synchronize", field=dfield.name):
        plan = dmesh.halo_plan(dfield.entity_dim)
        pairs = _holding(plan.owner_to_copy, plan.sync_roots, 0, fields)
        forest = plan.forest(pairs, f"sync.{dfield.name}")
        forest.bcast(
            batch_data=_gather(dfield, forest.outgoing(by_root=False)),
            batch_set=land,
            datatype=VALUES.of_dim(dfield.entity_dim),
        )
        for lpid, batches in landed.items():
            leaves, values = zip(*batches)
            fields[lpid].set_many(np.concatenate(leaves), np.concatenate(values))
        sent = forest.nleaves
    dmesh.counters.add("fieldsync.values", sent)
    return SyncStats(
        values_sent=sent,
        entity_dim=dfield.entity_dim,
        sf_ops=1,
        **probe.cost(),
    )


def accumulate(dfield: DistributedField) -> AccumulateStats:
    """Sum all copies' values onto the owner, then synchronize back.

    The finite-element assembly pattern: each part contributes its local
    portion of a shared dof; afterwards every copy holds the global sum.
    Copies without a value contribute nothing, and neither do ghosts, as in
    PUMI: the forest is built from the part-boundary links, which name real
    copies only.  An owner copy due a contribution that holds no value
    raises ``KeyError`` before any value changes.  Returns an
    :class:`AccumulateStats` record whose ``contributions`` is the
    copy-to-owner value count and ``synced`` the redistribution count;
    ``sf_ops`` counts the reduce plus the broadcast.
    """
    dmesh = dfield.dmesh
    fields = dfield.fields
    probe = CommProbe(dmesh.counters)

    def fold(rpid: int, roots: np.ndarray, combined: np.ndarray) -> None:
        field = fields[rpid]
        field.set_many(
            roots,
            field.get_many(roots) + combined.reshape(len(roots), field.ncomp),
        )

    with trace_span(dmesh.tracer, "accumulate", field=dfield.name):
        plan = dmesh.halo_plan(dfield.entity_dim)
        pairs = _holding(plan.copy_to_owner, plan.accum_leaves, 1, fields)
        _require_values(
            dfield,
            plan.accum_roots if pairs is plan.copy_to_owner
            else ids_by_part(pairs, 0),
        )
        forest = plan.forest(pairs, f"accum.{dfield.name}")
        forest.reduce(
            batch_data=_gather(dfield, forest.outgoing(by_root=True)),
            batch_set=fold,
            op="sum",
            datatype=VALUES.of_dim(dfield.entity_dim),
        )
        sent = forest.nleaves
        sync = synchronize(dfield)
    return AccumulateStats(
        contributions=sent,
        synced=sync.values_sent,
        entity_dim=dfield.entity_dim,
        sf_ops=1 + sync.sf_ops,
        **probe.cost(),
    )
