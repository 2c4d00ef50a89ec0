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
the field's value mask to them as a column filter, gathers each part pair's
values with one :meth:`~repro.field.field.Field.get_many`, ships them as
one ``VALUES`` frame and lands them with one
:meth:`~repro.field.field.Field.set_many`.

:class:`DistributedField` bundles one :class:`~repro.field.field.Field` per
part under one name so callers can treat the distributed field as a unit.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

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
        """Largest |difference| between copies of any shared entity's value.

        Zero means the field is synchronized.
        """
        worst = 0.0
        dim = self.entity_dim
        for part in self.dmesh:
            mine = self.fields[part.pid]
            for idx, pid, rid in zip(*(c.tolist() for c in part.links(dim))):
                ent, other, theirs = Ent(dim, idx), Ent(dim, rid), self.fields[pid]
                if mine.has(ent) and theirs.has(other):
                    diff = np.abs(mine.get(ent) - theirs.get(other)).max()
                    worst = max(worst, float(diff))
        return worst

    def _batch(self, pid: int, _peer: int, ids: np.ndarray) -> np.ndarray:
        """Part ``pid``'s values on ``ids`` as one ``(n, *shape)`` batch:
        the sending side of both forests."""
        field = self.fields[pid]
        return field.get_many(ids).reshape((len(ids),) + field.shape)


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

    def land(
        lpid: int, _rpid: int, batch: Tuple[np.ndarray, np.ndarray]
    ) -> None:
        leaves, values = batch
        fields[lpid].set_many(leaves, values)

    with trace_span(dmesh.tracer, "synchronize", field=dfield.name):
        plan = dmesh.halo_plan(dfield.entity_dim)
        pairs = _holding(plan.owner_to_copy, plan.sync_roots, 0, fields)
        forest = plan.forest(pairs, f"sync.{dfield.name}")
        forest.bcast(
            batch_data=dfield._batch,
            batch_set=land,
            datatype=VALUES.of_dim(dfield.entity_dim),
        )
        sent = forest.nleaves
    dmesh.counters.add("fieldsync.values", sent)
    return SyncStats(
        values_sent=sent,
        entity_dim=dfield.entity_dim,
        sf_ops=1,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def accumulate(dfield: DistributedField) -> AccumulateStats:
    """Sum all copies' values onto the owner, then synchronize back.

    The finite-element assembly pattern: each part contributes its local
    portion of a shared dof; afterwards every copy holds the global sum.
    Copies without a value contribute nothing; an owner copy due a
    contribution that holds no value raises ``KeyError`` before any value
    changes.  Returns an :class:`AccumulateStats` record whose
    ``contributions`` is the copy-to-owner value count and ``synced`` the
    redistribution count; ``sf_ops`` counts the reduce plus the broadcast.
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
            batch_data=dfield._batch,
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
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )
