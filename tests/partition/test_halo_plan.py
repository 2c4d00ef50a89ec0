"""The halo plan: owner↔copy forests set once per link state.

``synchronize``/``accumulate`` run over one cached columnar plan per entity
dimension (``DistributedMesh.halo_plan``).  The reference below is the
per-leaf implementation the plan replaced — forests rebuilt from
``Part.remotes`` on every call, one ``add_leaf`` per link, each value
fetched, delivered and folded one entity at a time — and the tests hold the
plan to it bit for bit, frames included, across every operation that
rewrites the links between two calls (the stale forest this design invites).
"""

import math

import numpy as np
import pytest

from repro.field import UniformSize
from repro.mesh import box_tet, rect_tri
from repro.obs.stats import CommProbe
from repro.parallel import PerfCounters
from repro.parallel.sf import VALUES, StarForest
from repro.partition import (
    DistributedField,
    HaloPlan,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    refine_distributed,
    synchronize,
)

# -- the reference: per-leaf forests, rebuilt on every call ---------------------


def reference_synchronize(dfield):
    dmesh = dfield.dmesh
    forest = StarForest(dmesh, name=f"sync.{dfield.name}")
    for part in dmesh:
        field = dfield.on(part.pid)
        for ent in sorted(part.remotes):
            if ent.dim != dfield.entity_dim or not part.owns(ent):
                continue
            if not field.has(ent):
                continue
            for other_pid, other_ent in sorted(part.remotes[ent].items()):
                forest.add_leaf(other_pid, other_ent, part.pid, ent)
    forest.bcast(
        lambda rpid, ent: dfield.on(rpid).get(ent),
        lambda lpid, ent, value: dfield.on(lpid).set(ent, value),
        datatype=VALUES,
    )


def reference_accumulate(dfield):
    dmesh = dfield.dmesh
    forest = StarForest(dmesh, name=f"accum.{dfield.name}")
    for part in dmesh:
        field = dfield.on(part.pid)
        for ent in sorted(part.remotes):
            if ent.dim != dfield.entity_dim or part.owns(ent):
                continue
            if not field.has(ent):
                continue
            owner = part.owner(ent)
            forest.add_leaf(part.pid, ent, owner, part.remotes[ent][owner])

    def fold(rpid, ent, combined):
        field = dfield.on(rpid)
        field.set(ent, field.get(ent) + combined)

    forest.reduce(
        lambda lpid, ent: dfield.on(lpid).get(ent), fold,
        op="sum", datatype=VALUES,
    )
    reference_synchronize(dfield)


# -- fixtures -------------------------------------------------------------------


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def field_state(dfield):
    """Every part's set ids and value bytes: equal means bit-identical."""
    state = {}
    for pid, field in sorted(dfield.fields.items()):
        ids = field.set_ids()
        state[pid] = (ids.tolist(), field.get_many(ids).tobytes())
    return state


def fill_missing(dfield):
    """A value on every vertex that has none.  The part id is in it, so the
    copies of one vertex disagree and a sync has work to do."""
    for part in dfield.dmesh:
        field = dfield.on(part.pid)
        for v in part.mesh.entities(0):
            if not field.has(v):
                x, y, _z = part.mesh.coords(v)
                value = 0.1 * part.pid + x + 3.0 * y
                field.set(v, [value, -value][: field.ncomp])


def unset(dfield):
    return sum(
        part.mesh.count(0) - len(dfield.on(part.pid)) for part in dfield.dmesh
    )


class Twin:
    """A 4-strip ``rect_tri(6)`` with a scalar and a 2-vector vertex field."""

    def __init__(self, ghosted):
        mesh = rect_tri(6)
        self.dm = distribute(mesh, strips(mesh, 4), counters=PerfCounters())
        if ghosted:
            ghost_layer(self.dm)
        self.fields = [
            DistributedField(self.dm, "u"),
            DistributedField(self.dm, "w", shape=2),
        ]
        for dfield in self.fields:
            fill_missing(dfield)

    def state(self):
        return [field_state(dfield) for dfield in self.fields]


def run_both(new, ref, ours, theirs):
    """A service on one twin, its reference on the other: field states and
    traffic — messages, supersteps, wire and encoded bytes — must match."""
    for mine, other in zip(new.fields, ref.fields):
        probes = CommProbe(new.dm.counters), CommProbe(ref.dm.counters)
        ours(mine)
        theirs(other)
        traffic = [
            (p.messages(), p.supersteps(), p.wire_bytes(), p.encoded_bytes())
            for p in probes
        ]
        assert traffic[0] == traffic[1]
    assert new.state() == ref.state()


def ring_migrate(dm):
    plan = {}
    for part in dm:
        chosen = sorted(part.mesh.entities(2))[:3]
        plan[part.pid] = {e: (part.pid + 1) % dm.nparts for e in chosen}
    migrate(dm, plan)


RELINKS = {
    "migrate": ring_migrate,
    "ghost_layer": ghost_layer,
    "delete_ghosts": delete_ghosts,
    "refine_distributed": lambda dm: refine_distributed(
        dm, UniformSize(0.12), max_passes=2
    ),
}


# -- the plan follows the links -------------------------------------------------


@pytest.mark.parametrize("op", sorted(RELINKS))
def test_plan_follows_links_rewritten_between_two_syncs(op):
    ghosted = op == "delete_ghosts"
    new, ref = Twin(ghosted), Twin(ghosted)
    run_both(new, ref, accumulate, reference_accumulate)
    run_both(new, ref, synchronize, reference_synchronize)
    before = new.dm.halo_plan(0)

    RELINKS[op](new.dm)
    RELINKS[op](ref.dm)
    assert new.dm.halo_plan(0) is not before
    assert new.dm.halo_plan(0) == HaloPlan(new.dm, 0)
    if op in ("migrate", "refine_distributed"):
        # New copies hold no value yet: the value mask cuts the forest.
        assert unset(new.fields[0]) > 0
    run_both(new, ref, synchronize, reference_synchronize)
    for twin in (new, ref):
        for dfield in twin.fields:
            fill_missing(dfield)
    run_both(new, ref, accumulate, reference_accumulate)
    for dfield in new.fields:
        assert dfield.max_copy_disagreement() == 0


def test_plan_is_set_once_per_link_state():
    twin = Twin(ghosted=False)
    dm = twin.dm
    version = dm.links_version
    for dfield in twin.fields:
        accumulate(dfield)
        synchronize(dfield)
    plan = dm.halo_plan(0)
    assert dm.links_version == version and dm.halo_plan(0) is plan
    # One kept forest per direction and field name.
    forest = plan.forest(plan.owner_to_copy, "sync.u")
    synchronize(twin.fields[0])
    assert plan.forest(plan.owner_to_copy, "sync.u") is forest
    # A hand edit of the links is seen only through its counter.
    dm.part(1).links_version += 1
    assert dm.halo_plan(0) is not plan and dm.halo_plan(0) == plan


# -- accumulate: atomic, and folded in the contract's order ---------------------


def test_accumulate_is_all_or_nothing():
    """An owner copy with no value: raise before any root is written."""
    mesh = box_tet(3)
    dm = distribute(mesh, strips(mesh, 2))
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: 1.0 + x[0] + 2.0 * x[1] + 4.0 * x[2])
    part0 = dm.part(0)
    owned = [v for v in sorted(part0.remotes) if v.dim == 0 and part0.owns(v)]
    assert len(owned) > 2
    df.on(0).remove(owned[len(owned) // 2])
    before = field_state(df)
    with pytest.raises(KeyError, match="has no value"):
        accumulate(df)
    assert field_state(df) == before


def octants(mesh):
    return [
        sum(int(c >= 0.5) << axis for axis, c in enumerate(mesh.centroid(e)))
        for e in mesh.entities(3)
    ]


def test_accumulate_folds_like_the_sequential_loop():
    """Non-associative contributions: the fold order is the contract —
    per root, copies in (leaf part, leaf handle) order, left to right, then
    added to the owner's value."""
    mesh = box_tet(2)
    dm = distribute(mesh, octants(mesh))
    df = DistributedField(dm, "u")
    df.zero_all()
    pattern = (1e16, 1.0, -1e16, 1.0)
    for part in dm:
        for ent, copies in part.remotes.items():
            if ent.dim == 0 and part.owns(ent):
                df.on(part.pid).set(ent, 0.5)
                for k, (lpid, lent) in enumerate(sorted(copies.items())):
                    df.on(lpid).set(lent, pattern[k % 4])
    assert max(
        len(copies) for part in dm for ent, copies in part.remotes.items()
        if ent.dim == 0
    ) >= 4

    expected, exact = {}, {}
    for part in dm:
        for ent in sorted(part.remotes):
            if ent.dim != 0 or not part.owns(ent):
                continue
            values = [
                df.on(lpid).get_scalar(lent)
                for lpid, lent in sorted(part.remotes[ent].items())
            ]
            acc = values[0]
            for value in values[1:]:
                acc = acc + value
            root = df.on(part.pid).get_scalar(ent)
            expected[(part.pid, ent)] = root + acc
            exact[(part.pid, ent)] = root + math.fsum(values)
    accumulate(df)
    got = {key: df.on(key[0]).get_scalar(key[1]) for key in expected}
    assert (
        np.asarray(list(got.values())).tobytes()
        == np.asarray(list(expected.values())).tobytes()
    )
    assert got != exact  # the order did matter somewhere
