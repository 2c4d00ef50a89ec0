"""Tests for the star-forest primitive: forest algebra, ops, obs wiring."""

import numpy as np
import pytest

from repro import obs
from repro.mesh.entity import Ent
from repro.obs.stats import SFStats
from repro.parallel import PerfCounters
from repro.parallel.codec import CodecError
from repro.parallel.sf import (
    BUNDLES,
    GENERIC,
    INT_ROWS,
    OPS,
    VALUES,
    SFComm,
    StarForest,
)


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


def test_compose_chains_sharing():
    comm = SFComm(4)
    first = StarForest(comm, name="one")
    first.add_leaf(2, "y", 1, "x")
    first.add_leaf(3, "z", 1, "x")
    second = StarForest(comm, name="two")
    second.add_leaf(1, "x", 0, "root")
    composed = first.compose(second)
    assert composed.name == "one*two"
    assert composed.leaves() == [
        ((2, "y"), (0, "root")),
        ((3, "z"), (0, "root")),
    ]
    other = StarForest(SFComm(4), name="foreign")
    with pytest.raises(ValueError):
        first.compose(other)


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


def test_bcast_batch_set_receives_part_pairs():
    comm = SFComm(3, counters=PerfCounters())
    sf = two_root_forest(comm)
    batches = []
    sf.bcast(
        lambda pid, h: h.upper(),
        batch_set=lambda lpid, rpid, items: batches.append(
            (lpid, rpid, list(items))
        ),
    )
    assert sorted(batches) == [
        (0, 1, [("c", "R1")]),
        (1, 0, [("a", "R0")]),
        (2, 0, [("b", "R0")]),
    ]


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


# -- fetch_and_op --------------------------------------------------------------


def test_fetch_and_add_allocates_disjoint_ranges():
    comm = SFComm(4, counters=PerfCounters())
    sf = StarForest(comm, name="alloc")
    for pid in (1, 2, 3):
        sf.add_leaf(pid, "want", 0, "counter")
    counter = {"value": 100}
    need = {1: 5, 2: 7, 3: 11}
    fetched, stats = sf.fetch_and_op(
        lambda pid, h: need[pid],
        lambda pid, h: counter["value"],
        lambda pid, h, v: counter.__setitem__("value", v),
        op="sum",
    )
    # Each leaf sees the pre-update value: disjoint [start, start+need) ranges.
    assert fetched == {(1, "want"): 100, (2, "want"): 105, (3, "want"): 112}
    assert counter["value"] == 123
    assert stats.supersteps == 2 and stats.sf_ops == 2
    assert stats.op == "fetch_and_op.sum"
    assert stats.records == 6  # three up, three back


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
    # Length mismatches are a codec error, not silent truncation.
    with pytest.raises(CodecError):
        VALUES.decode(
            VALUES.encode([(Ent(0, 1), np.array([1.0]))]),
            [Ent(0, 1), Ent(0, 2)],
        )
    with pytest.raises(CodecError):
        VALUES.decode(
            VALUES.encode([(Ent(0, 1), np.array([1.0]))]), [Ent(0, 2)]
        )


def test_int_rows_and_generic_datatypes_roundtrip():
    items = [("h0", (1, 2, 3)), ("h1", (4, 5))]
    assert INT_ROWS.decode(INT_ROWS.encode(items), ["h0", "h1"]) == items
    payloads = [("h0", {"k": [1, 2]}), ("h1", None)]
    assert GENERIC.decode(GENERIC.encode(payloads), ["h0", "h1"]) == payloads
    with pytest.raises(CodecError):
        GENERIC.decode(GENERIC.encode(payloads), ["h0"])
    assert {d.name for d in (GENERIC, VALUES, BUNDLES, INT_ROWS)} == {
        "generic", "values", "bundles", "int_rows",
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
    blob = datatype.encode_batch(handles, np.array([[1.0], [2.0]]))
    wrong = datatype.prepare(np.array([7, 8]))
    with pytest.raises(CodecError, match="expects"):
        datatype.decode_batch(blob, wrong)
    leaves, values = datatype.decode_batch(blob, handles)
    assert leaves.tolist() == [7, 9] and values.tolist() == [[1.0], [2.0]]
