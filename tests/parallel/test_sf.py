"""Tests for the star-forest primitive: construction, ops, obs wiring."""

import numpy as np
import pytest

from repro import obs
from repro.mesh import box_tet
from repro.mesh.entity import Ent
from repro.obs.stats import SFStats
from repro.parallel import PerfCounters, codec
from repro.parallel.codec import CodecError
from repro.parallel.sf import (
    BUNDLES,
    GENERIC,
    OPS,
    VALUES,
    SFComm,
    StarForest,
)
from repro.partition import distribute, ghost_layer


def two_root_forest(comm):
    """Roots r0@0 and r1@1; three leaves spread over parts 1, 2 and 0."""
    sf = StarForest(comm, name="t")
    sf.add_leaf(1, "a", 0, "r0")
    sf.add_leaf(2, "b", 0, "r0")
    sf.add_leaf(0, "c", 1, "r1")
    return sf


# -- construction --------------------------------------------------------------


def test_add_leaf_validates_and_counts():
    comm = SFComm(3)
    sf = two_root_forest(comm)
    assert sf.nleaves == 3 and sf.nroots == 2
    with pytest.raises(ValueError):
        sf.add_leaf(3, "x", 0, "r0")
    with pytest.raises(ValueError):
        sf.add_leaf(0, "x", -1, "r0")
    # Identical re-add is idempotent; repointing a leaf is a caller bug.
    sf.add_leaf(1, "a", 0, "r0")
    assert sf.nleaves == 3
    with pytest.raises(ValueError):
        sf.add_leaf(1, "a", 0, "r1")


def test_leaves_listing_sorted():
    comm = SFComm(3)
    sf = two_root_forest(comm)
    assert sf.leaves() == [
        ((0, "c"), (1, "r1")),
        ((1, "a"), (0, "r0")),
        ((2, "b"), (0, "r0")),
    ]
    assert "roots=2" in repr(sf) and "leaves=3" in repr(sf)


# -- bcast ---------------------------------------------------------------------


def test_bcast_delivers_root_values():
    comm = SFComm(3, counters=PerfCounters())
    sf = two_root_forest(comm)
    data = {(0, "r0"): 10, (1, "r1"): 20}
    got = {}
    stats = sf.bcast(
        lambda pid, h: data[(pid, h)],
        lambda pid, h, v: got.__setitem__((pid, h), v),
    )
    assert got == {(1, "a"): 10, (2, "b"): 10, (0, "c"): 20}
    assert isinstance(stats, SFStats)
    assert stats.op == "bcast" and stats.forest == "t"
    assert stats.records == 3 and stats.supersteps == 1
    assert stats.sf_ops == 1


def test_bcast_local_leaves_never_touch_the_wire():
    counters = PerfCounters()
    comm = SFComm(2, counters=counters)
    sf = StarForest(comm)
    sf.add_leaf(0, "copy", 0, "root")  # same-part sharing
    got = {}
    stats = sf.bcast(lambda pid, h: 42, lambda pid, h, v: got.update({h: v}))
    assert got == {"copy": 42}
    assert stats.messages == 0 and stats.encoded_bytes == 0
    assert stats.supersteps == 1  # the barrier still runs


def test_empty_forest_bcast_costs_one_superstep():
    """Fixed superstep counts regardless of data: empty still exchanges."""
    comm = SFComm(2, counters=PerfCounters())
    stats = StarForest(comm).bcast(lambda pid, h: None, lambda pid, h, v: None)
    assert stats.supersteps == 1 and stats.records == 0


def test_mixed_spellings_are_rejected():
    """One call, one spelling: both halves of the per-item pair or both
    halves of the batch pair, never a mix or a half."""
    sf = two_root_forest(SFComm(3, counters=PerfCounters()))
    item_data, item_set = (lambda pid, h: 1), (lambda pid, h, v: None)
    batch_data = lambda pid, other, handles: [1] * len(handles)  # noqa: E731
    batch_set = lambda pid, a, b: None  # noqa: E731
    for call in (
        lambda: sf.bcast(item_data, batch_set=batch_set),
        lambda: sf.bcast(batch_data=batch_data, leaf_set=item_set),
        lambda: sf.bcast(item_data),
        lambda: sf.bcast(batch_set=batch_set),
        lambda: sf.bcast(item_data, item_set, batch_data=batch_data,
                         batch_set=batch_set),
        lambda: sf.reduce(item_data, batch_set=batch_set),
        lambda: sf.reduce(batch_data=batch_data, root_set=item_set),
        lambda: sf.reduce(),
    ):
        with pytest.raises(ValueError, match="whole and alone"):
            call()


# -- reduce --------------------------------------------------------------------


@pytest.mark.parametrize(
    "op,expected", (("sum", 5), ("min", 2), ("max", 3), ("replace", 3))
)
def test_reduce_ops(op, expected):
    comm = SFComm(3, counters=PerfCounters())
    sf = StarForest(comm)
    sf.add_leaf(1, "a", 0, "r")
    sf.add_leaf(2, "b", 0, "r")
    contributions = {(1, "a"): 2, (2, "b"): 3}
    roots = {}
    stats = sf.reduce(
        lambda pid, h: contributions[(pid, h)],
        lambda pid, h, v: roots.__setitem__((pid, h), v),
        op=op,
    )
    # Fold order is the sorted (root handle, leaf pid, leaf handle) order,
    # so "replace" deterministically keeps the last contribution.
    assert roots == {(0, "r"): expected}
    assert stats.op == f"reduce.{op}" and stats.supersteps == 1
    with pytest.raises(ValueError):
        sf.reduce(lambda p, h: 0, lambda p, h, v: None, op="prod")
    assert "replace" in OPS and len(OPS) == 4


def test_reduce_arrays_elementwise():
    comm = SFComm(2, counters=PerfCounters())
    sf = StarForest(comm)
    sf.add_leaf(1, Ent(0, 7), 0, Ent(0, 3))
    roots = {}
    sf.reduce(
        lambda pid, h: np.array([1.0, 5.0]),
        lambda pid, h, v: roots.__setitem__(h, v),
        op="max",
        datatype=VALUES,
    )
    assert np.array_equal(roots[Ent(0, 3)], [1.0, 5.0])


# -- datatypes -----------------------------------------------------------------


def test_values_datatype_checks_wire_handles():
    comm = SFComm(2, counters=PerfCounters())
    sf = StarForest(comm)
    sf.add_leaf(1, Ent(0, 4), 0, Ent(0, 9))
    got = {}
    sf.bcast(
        lambda pid, h: np.array([2.5]),
        lambda pid, h, v: got.__setitem__(h, v),
        datatype=VALUES,
    )
    assert np.array_equal(got[Ent(0, 4)], [2.5])
    blob = VALUES.encode(VALUES.prepare([Ent(0, 1)]), np.array([[1.0]]))
    # Length mismatches are a codec error, not silent truncation.
    with pytest.raises(CodecError, match="carries 1 value"):
        VALUES.decode(blob, VALUES.prepare([Ent(0, 1), Ent(0, 2)]))
    # A frame naming other entities names the first one it disagrees on.
    with pytest.raises(CodecError, match="names .* expects"):
        VALUES.decode(blob, VALUES.prepare([Ent(0, 2)]))
    handles, values = VALUES.decode(blob, VALUES.prepare([Ent(0, 1)]))
    assert handles == [Ent(0, 1)] and values.tolist() == [[1.0]]


def test_generic_datatype_roundtrip():
    handles = GENERIC.prepare(["h0", "h1"])
    payloads = [{"k": [1, 2]}, None]
    blob = GENERIC.encode(handles, payloads)
    assert GENERIC.decode(blob, handles) == (handles, payloads)
    with pytest.raises(CodecError):
        GENERIC.decode(blob, ["h0"])
    with pytest.raises(CodecError):
        GENERIC.encode(["h0"], payloads)
    assert {d.name for d in (GENERIC, VALUES, BUNDLES)} == {
        "generic", "values", "bundles",
    }


# -- comm validation -----------------------------------------------------------


def test_sfcomm_validates_arguments():
    with pytest.raises(ValueError):
        SFComm(0)
    with pytest.raises(TypeError):
        SFComm(2, codec="pickle")


# -- observability -------------------------------------------------------------


def test_sf_counters_and_spans():
    counters = PerfCounters()
    tracer = obs.Tracer(counters=counters)
    comm = SFComm(3, counters=counters, tracer=tracer)
    sf = two_root_forest(comm)
    sf.bcast(lambda pid, h: 1, lambda pid, h, v: None)
    sf.reduce(lambda pid, h: 1, lambda pid, h, v: None)
    assert counters.get("sf.ops.bcast") == 1
    assert counters.get("sf.ops.reduce") == 1
    assert counters.get("sf.records") == 6
    assert counters.get("sf.bytes.encoded") > 0
    # SF buffers are charged to the shared net.* counters too, so existing
    # dashboards see SF traffic without new plumbing.
    assert counters.get("net.bytes.encoded") == counters.get(
        "sf.bytes.encoded"
    )
    names = [s.name for root in tracer.roots for s in root.walk()]
    assert names == ["sf.bcast", "sf.reduce"]
    bcast_span = tracer.roots[0]
    assert bcast_span.args == {"sf": "t", "datatype": "generic"}
    assert bcast_span.supersteps == 1
    assert bcast_span.counter_deltas["sf.ops.bcast"] == 1


def test_sf_traffic_lands_in_comm_matrix():
    """Satellite: SF messages get part-to-part attribution per superstep."""
    counters = PerfCounters()
    tracer = obs.Tracer(counters=counters)
    comm = SFComm(3, counters=counters, tracer=tracer)
    sf = two_root_forest(comm)
    span = None
    sf.bcast(lambda pid, h: "payload", lambda pid, h, v: None)
    span = tracer.roots[0]
    matrix = tracer.comm_matrix(superstep=span.superstep_start)
    assert set(matrix) == {(0, 1), (0, 2), (1, 0)}
    for (_src, _dst), (nmsg, nbytes) in matrix.items():
        assert nmsg == 1 and nbytes > 0


# -- batch arms and columnar graphs ---------------------------------------------

#: Non-associative under float addition: the fold order decides the sum.
PATTERN = (1e16, 1.0, -1e16, 1.0)


def fold_forest(comm):
    """Three roots on part 0, a leaf of each on every part (part 0's own
    leaves stay local)."""
    sf = StarForest(comm, name="fold")
    for root in range(3):
        for lpid in reversed(range(comm.nparts)):
            sf.add_leaf(lpid, Ent(0, 10 * root + lpid), 0, Ent(0, root))
    return sf


def contribution(lpid, leaf):
    return np.array([PATTERN[(leaf.idx + lpid) % 4], float(leaf.idx)])


@pytest.mark.parametrize("op", OPS)
def test_batch_reduce_matches_per_leaf_reduce(op):
    sf = fold_forest(SFComm(4, counters=PerfCounters()))
    per_leaf = {}
    leafwise = sf.reduce(
        contribution,
        lambda pid, h, v: per_leaf.__setitem__((pid, h), v),
        op=op,
        datatype=VALUES,
    )
    batched = {}

    def batch_set(pid, roots, combined):
        batched.update(((pid, h), row) for h, row in zip(roots, combined))

    batchwise = sf.reduce(
        batch_data=lambda lpid, _rpid, leaves: np.stack(
            [contribution(lpid, h) for h in leaves]
        ),
        batch_set=batch_set,
        op=op,
        datatype=VALUES,
    )
    assert per_leaf.keys() == batched.keys()
    for key, value in per_leaf.items():
        assert value.tobytes() == batched[key].tobytes()
    assert (batchwise.records, batchwise.encoded_bytes, batchwise.messages) == (
        leafwise.records, leafwise.encoded_bytes, leafwise.messages,
    )
    with pytest.raises(ValueError):
        sf.reduce(batch_data=lambda lpid, rpid, leaves: [], datatype=VALUES)


def test_columnar_forest_matches_the_leafwise_forest():
    """``from_columns`` sets the same graph: same frames, same deliveries."""
    leafwise = fold_forest(SFComm(4, counters=PerfCounters()))
    columns = {}
    for (lpid, leaf), (rpid, root) in leafwise.leaves():
        roots, leaves = columns.setdefault((rpid, lpid), ([], []))
        roots.append(root.idx)
        leaves.append(leaf.idx)
    columnar = StarForest.from_columns(
        SFComm(4, counters=PerfCounters()),
        {pair: (np.array(r), np.array(l)) for pair, (r, l) in columns.items()},
        name="fold",
    )
    assert (columnar.nleaves, columnar.nroots) == (
        leafwise.nleaves, leafwise.nroots,
    )
    got_leafwise, got_columnar = {}, {}
    stats_leafwise = leafwise.bcast(
        lambda pid, h: np.array([float(h.idx)]),
        lambda pid, h, v: got_leafwise.__setitem__((pid, h.idx), v),
        datatype=VALUES,
    )

    def land(lpid, _rpid, batch):
        leaves, values = batch
        got_columnar.update(((lpid, int(h)), v) for h, v in zip(leaves, values))

    stats_columnar = columnar.bcast(
        batch_data=lambda _rpid, _lpid, roots: roots.astype(float)[:, None],
        batch_set=land,
        datatype=VALUES.of_dim(0),
    )
    assert got_leafwise.keys() == got_columnar.keys()
    for key, value in got_leafwise.items():
        assert value.tobytes() == got_columnar[key].tobytes()
    for field in ("records", "encoded_bytes", "wire_bytes", "messages"):
        assert getattr(stats_leafwise, field) == getattr(stats_columnar, field)
    assert columnar.leaves() == [
        ((lpid, leaf.idx), (rpid, root.idx))
        for (lpid, leaf), (rpid, root) in leafwise.leaves()
    ]
    with pytest.raises(ValueError):
        StarForest.from_columns(SFComm(2), {(0, 2): ([1], [2])})
    with pytest.raises(ValueError):
        StarForest.from_columns(SFComm(2), {(0, 1): ([1, 2], [2])})


def test_values_batch_checks_wire_handles():
    sf = StarForest.from_columns(
        SFComm(2, counters=PerfCounters()),
        {(0, 1): (np.array([3, 5]), np.array([7, 9]))},
    )
    datatype = VALUES.of_dim(0)
    handles = sf._prepared(datatype, by_root=False)[(0, 1)]
    blob = datatype.encode(handles, np.array([[1.0], [2.0]]))
    wrong = datatype.prepare(np.array([7, 8]))
    mismatch = "names M0_9 where the forest expects M0_8"
    with pytest.raises(CodecError, match=mismatch):
        datatype.decode(blob, wrong)
    leaves, values = datatype.decode(blob, handles)
    assert leaves.tolist() == [7, 9] and values.tolist() == [[1.0], [2.0]]


# -- one engine, two spellings ----------------------------------------------


class Tap:
    """Records every frame a forest posts, through the network's
    fault-injector hook; passes every message on."""

    def __init__(self):
        self.frames = []

    def on_post(self, src, dst, tag, payload):
        for _tag, blob in payload if isinstance(payload, list) else ():
            self.frames.append((src, dst, bytes(blob)))
        return [(src, dst, tag, payload)]

    def on_exchange(self):
        return []

    def end_superstep(self):
        pass


def entity_forest(comm):
    """Four entity roots dealt over the parts, a leaf of each on every part
    (the owner's own leaf stays local) — the shape of an owner→copy map."""
    sf = StarForest(comm, name="ents")
    for root in range(4):
        for lpid in range(comm.nparts):
            sf.add_leaf(
                lpid, Ent(0, 5 * root + lpid), root % comm.nparts, Ent(0, root)
            )
    return sf


SPELLINGS = {
    "generic": (GENERIC, lambda pid, h: float(h.idx)),
    "values": (VALUES, lambda pid, h: np.array([h.idx, -0.5 * h.idx])),
}


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_callback_spelling_is_the_batch_spelling(name):
    """Per item or per batch: the same deliveries, records, bytes, messages
    and frames — the callback spelling only lists the batches."""
    datatype, payload = SPELLINGS[name]
    runs = []
    for spelling in ("items", "batches"):
        comm = SFComm(3, counters=PerfCounters())
        comm.fault_injector = tap = Tap()
        sf = entity_forest(comm)
        got = {}
        if spelling == "items":
            stats = sf.bcast(
                payload, lambda pid, h, v: got.__setitem__((pid, h), v),
                datatype=datatype,
            )
        else:

            def land(lpid, _rpid, batch):
                got.update(((lpid, h), v) for h, v in zip(*batch))

            stats = sf.bcast(
                batch_data=lambda rpid, _lpid, roots: (
                    np.stack([payload(rpid, h) for h in roots])
                    if datatype is VALUES
                    else [payload(rpid, h) for h in roots]
                ),
                batch_set=land,
                datatype=datatype,
            )
        runs.append((got, stats, tap.frames))
    (got_i, stats_i, frames_i), (got_b, stats_b, frames_b) = runs
    assert got_i.keys() == got_b.keys() and len(got_i) == 12
    for key, value in got_i.items():
        assert np.asarray(value).tobytes() == np.asarray(got_b[key]).tobytes()
    for field in ("records", "encoded_bytes", "wire_bytes", "messages"):
        assert getattr(stats_i, field) == getattr(stats_b, field)
    assert frames_i == frames_b and len(frames_i) == 6


# -- the stored fold plan ------------------------------------------------------


def _ranked_oracle(columns):
    if all(isinstance(column, np.ndarray) for column in columns):
        return np.concatenate(columns), None
    handles = [
        handle for column in columns
        for handle in (column.tolist() if isinstance(column, np.ndarray) else column)
    ]
    labels = sorted(set(handles))
    rank = {handle: k for k, handle in enumerate(labels)}
    keys = np.fromiter(map(rank.__getitem__, handles), np.int64, len(handles))
    return keys, labels


def _combine_oracle(op, a, b):
    if op == "replace":
        return b
    if op == "sum":
        return a + b
    return np.minimum(a, b) if op == "min" else np.maximum(a, b)


def oracle_fold(op, runs):
    """The per-op fold the stored plan replaced, kept verbatim: ``runs``
    holds ``(leaf part, root handles, leaf handles, rows)`` per sending
    part; every call re-derives the keys, the sort and the runs."""
    roots, labels = _ranked_oracle([run[1] for run in runs])
    leaves, _labels = _ranked_oracle([run[2] for run in runs])
    parts = np.repeat([run[0] for run in runs], [len(run[2]) for run in runs])
    rows = np.concatenate([np.asarray(run[3]) for run in runs])
    order = np.lexsort((leaves, parts, roots))
    roots, rows = roots[order], rows[order]
    first = np.ones(len(roots), dtype=bool)
    np.not_equal(roots[1:], roots[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(roots))
    acc = rows[starts]
    for k in range(1, int(counts.max())):
        more = np.flatnonzero(counts > k)
        acc[more] = _combine_oracle(op, acc[more], rows[starts[more] + k])
    keys = roots[starts]
    if labels is not None:
        return [labels[k] for k in keys.tolist()], acc
    return keys, acc


#: Summands whose float sum depends on the order they are added in.
NON_ASSOCIATIVE = (1e16, 1.0, -1e16, 0.5, 3.0, -1.0)


def random_forest(comm, rng):
    """Leaves dealt at random over roots on every part; a root may have
    several leaves on one part, or on its own part."""
    columns = {}
    for lpid in range(comm.nparts):
        for leaf in rng.permutation(40)[: rng.integers(5, 40)].tolist():
            rpid = int(rng.integers(comm.nparts))
            roots, leaves = columns.setdefault((rpid, lpid), ([], []))
            roots.append(int(rng.integers(8)))
            leaves.append(leaf)
    return StarForest.from_columns(comm, columns, name="random")


def reduce_against_oracle(sf, op, rng):
    """One batch ``reduce`` of fresh random rows, held to the oracle fold."""
    rows = {}

    def batch_data(lpid, rpid, leaves):
        batch = rng.choice(NON_ASSOCIATIVE, size=(len(leaves), 2))
        rows[(rpid, lpid)] = batch
        return batch

    got = {}
    sf.reduce(
        batch_data=batch_data,
        batch_set=lambda rpid, roots, combined: got.__setitem__(
            rpid, (roots, combined)
        ),
        op=op,
        datatype=VALUES.of_dim(0),
    )
    pairs = sf._pairs(by_root=True)
    assert got.keys() == {rpid for rpid, _lpid in pairs}
    for rpid, (roots, combined) in got.items():
        runs = [
            (lpid, *pairs[(r, lpid)], rows[(r, lpid)])
            for r, lpid in pairs if r == rpid
        ]
        keys, acc = oracle_fold(op, runs)
        assert list(np.asarray(roots).tolist()) == list(np.asarray(keys).tolist())
        assert combined.tobytes() == acc.tobytes()


def fold_plans(sf):
    return {key: plan for key, plan in sf._cache.items() if key[0] == "fold"}


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("seed", range(6))
def test_stored_fold_plan_is_the_per_op_fold(op, seed):
    """Bit for bit the old fold, op after op over one forest; ``add_leaf``
    drops the plans and the next op folds over the new graph."""
    rng = np.random.default_rng(seed)
    sf = random_forest(SFComm(4, counters=PerfCounters()), rng)
    reduce_against_oracle(sf, op, rng)
    plans = fold_plans(sf)
    assert plans
    for _ in range(2):
        reduce_against_oracle(sf, op, rng)
        assert all(fold_plans(sf)[key] is plan for key, plan in plans.items())
    sf.add_leaf(3, 1000, 0, 7)  # a new leaf on an existing root
    assert not fold_plans(sf)
    reduce_against_oracle(sf, op, rng)
    for _ in range(2):
        reduce_against_oracle(sf, op, rng)


def test_injector_sees_bundle_lists_before_framing():
    """A fault injector's ``on_post`` gets each part pair's
    ``[(tag, bytes)]`` list — what a wire tap reads — not a framed buffer;
    the network frames it afterwards, charging the same bytes."""
    seen = []

    class ListTap(Tap):
        def on_post(self, src, dst, tag, payload):
            seen.append(payload)
            return super().on_post(src, dst, tag, payload)

    counters = PerfCounters()
    comm = SFComm(3, counters=counters)
    comm.fault_injector = ListTap()
    sf = entity_forest(comm)
    got = {}
    sf.bcast(
        lambda pid, h: np.array([float(h.idx)]),
        lambda pid, h, v: got.__setitem__((pid, h), v),
        datatype=VALUES,
    )
    assert seen and all(
        type(payload) is list and all(
            type(pair) is tuple and type(pair[0]) is int
            and type(pair[1]) is bytes for pair in payload
        )
        for payload in seen
    )
    assert counters.get("net.bytes.off_node") == sum(
        len(codec.dumps(payload)) for payload in seen
    )
    assert len(got) == 12


def assert_outgoing_is_the_wire(forest, datatype=VALUES.of_dim(0)):
    """Per sending part, ``forest.outgoing``'s handles are its wire-ordered
    pairs one after the other, and each peer's slice is exactly what
    ``batch_data`` gets for that pair in a ``bcast`` and a ``reduce`` —
    the handles ``fieldsync`` gathers values for.  Returns the pairs
    checked."""
    checked = 0
    for by_root, side in ((False, 0), (True, 1)):
        outgoing = forest.outgoing(by_root)
        assert forest.outgoing(by_root) is outgoing
        wire = forest._pairs(by_root)
        assert outgoing.keys() == {pair[side] for pair in wire}
        for pid, (handles, slices) in outgoing.items():
            mine = [pair for pair in wire if pair[side] == pid]
            assert list(handles) == [h for pair in mine for h in wire[pair][side]]
            assert list(slices) == [pair[1 - side] for pair in mine]
        asked = []

        def batch_data(src, dst, handles):
            asked.append((src, dst, list(handles)))
            return np.zeros((len(handles), 1))

        op = forest.reduce if by_root else forest.bcast
        op(batch_data=batch_data, batch_set=lambda *args: None, datatype=datatype)
        assert len(asked) == len(wire)
        for src, dst, handles in asked:
            sent, slices = outgoing[src]
            assert list(sent[slices[dst]]) == handles
        checked += len(wire)
    return checked


def test_outgoing_handles_are_the_forest_wire_order():
    """In both directions, for a halo plan's own forests, for a
    value-mask cut of them and for a forest built leaf by leaf; a new leaf
    drops the outgoing handles with the wire order."""
    mesh = box_tet(2)
    dm = distribute(mesh, [e.idx % 4 for e in mesh.entities(3)], nparts=4)
    ghost_layer(dm)
    checked = 0
    for dim in range(4):
        plan = dm.halo_plan(dim)
        for pairs in (plan.owner_to_copy, plan.copy_to_owner):
            checked += assert_outgoing_is_the_wire(plan.forest(pairs, "t"))
            cut = {
                pair: (roots[::2], leaves[::2])
                for pair, (roots, leaves) in pairs.items()
            }
            checked += assert_outgoing_is_the_wire(StarForest.from_columns(dm, cut))
    assert checked > 0
    sf = entity_forest(SFComm(3, counters=PerfCounters()))
    assert assert_outgoing_is_the_wire(sf, VALUES)
    before = sf.outgoing(False)
    sf.add_leaf(2, Ent(0, 99), 0, Ent(0, 0))
    assert sf.outgoing(False) is not before
    assert_outgoing_is_the_wire(sf, VALUES)
