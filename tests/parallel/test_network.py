"""Unit tests for the BSP network."""

import array

import pytest

from repro.parallel import codec
from repro.parallel.network import Network, wire_size
from repro.parallel.perf import PerfCounters
from repro.parallel.topology import MachineTopology, single_node


def make(nparts, **kw):
    return Network(nparts, counters=PerfCounters(), **kw)


def test_exchange_delivers_to_destination():
    net = make(3)
    net.post(0, 2, tag=7, payload="hello")
    inboxes = net.exchange()
    assert inboxes[2] == [(0, 7, "hello")]
    assert inboxes[0] == [] and inboxes[1] == []


def test_exchange_clears_outbox():
    net = make(2)
    net.post(0, 1, 0, "x")
    net.exchange()
    assert net.pending() == 0
    assert all(msgs == [] for msgs in net.exchange().values())


def test_delivery_order_is_posting_order():
    net = make(2)
    for i in range(5):
        net.post(0, 1, i, i)
    msgs = net.exchange()[1]
    assert [tag for _, tag, _ in msgs] == list(range(5))


def test_off_node_messages_are_copied():
    net = make(2)  # flat topology: 0 and 1 are on different nodes
    payload = {"k": [1, 2, 3]}
    net.post(0, 1, 0, payload)
    (src, tag, received), = net.exchange()[1]
    assert received == payload
    assert received is not payload  # codec round-trip copy, MPI semantics


def test_on_node_messages_share_reference():
    # sanitize=False pins the unsanitized semantics even under REPRO_SANITIZE
    # (the alias sanitizer deliberately breaks this identity with a proxy).
    net = make(2, topology=single_node(2), sanitize=False)
    payload = {"k": [1, 2, 3]}
    net.post(0, 1, 0, payload)
    (_, _, received), = net.exchange()[1]
    assert received is payload  # shared memory, the paper's implicit rep


def test_traffic_classification():
    topo = MachineTopology(nodes=2, cores_per_node=2)
    perf = PerfCounters()
    net = Network(4, topology=topo, counters=perf)
    net.post(0, 1, 0, "on")   # same node
    net.post(0, 2, 0, "off")  # across nodes
    net.post(3, 3, 0, "self")
    net.exchange()
    assert perf.get("net.messages.on_node") == 1
    assert perf.get("net.messages.off_node") == 1
    assert perf.get("net.messages.self") == 1
    assert perf.get("net.bytes.off_node") == wire_size("off")


@pytest.mark.parametrize(
    "payload", ["off", {"k": [1, 2.5, None]}, b"\x00" * 57, bytearray(b"ab")]
)
def test_wire_size_is_what_exchange_charges(payload):
    perf = PerfCounters()
    net = Network(2, counters=perf)  # flat topology: off-node pair
    net.post(0, 1, 0, payload)
    net.exchange()
    assert perf.get("net.bytes.off_node") == wire_size(payload)


def test_bytes_payloads_charged_at_face_value():
    perf = PerfCounters()
    net = Network(2, counters=perf)  # flat topology: off-node pair
    blob = b"\x00" * 57
    net.post(0, 1, 0, blob)
    (_, _, received), = net.exchange()[1]
    assert received == blob
    assert perf.get("net.bytes.off_node") == len(blob)


def test_codec_is_not_an_option():
    with pytest.raises(TypeError):
        Network(2, counters=PerfCounters(), codec="pickle")


def test_stats_accumulate_across_exchanges():
    net = make(2)
    net.post(0, 1, 0, "a")
    net.exchange()
    net.post(1, 0, 0, "b")
    net.exchange()
    stats = net.stats()
    assert stats["exchanges"] == 2
    assert stats["messages_off_node"] == 2


def test_neighbor_counts_reports_pending():
    net = make(3)
    net.post(0, 1, 0, "x")
    net.post(0, 1, 0, "y")
    net.post(2, 0, 0, "z")
    assert net.neighbor_counts() == {1: 2, 0: 1}


def test_invalid_endpoints_rejected():
    net = make(2)
    with pytest.raises(ValueError):
        net.post(0, 2, 0, "x")
    with pytest.raises(ValueError):
        net.post(-1, 0, 0, "x")


def test_topology_must_cover_parts():
    with pytest.raises(ValueError):
        Network(8, topology=single_node(4), counters=PerfCounters())


def test_wire_size_positive_and_monotone_for_lists():
    small = wire_size([0] * 10)
    large = wire_size([0] * 1000)
    assert 0 < small < large


def test_delivery_sorted_by_source_then_posting_sequence():
    # Interleave posting across sources; delivery must come back grouped by
    # source part (ascending) with each source's messages in posting order.
    net = make(3)
    net.post(2, 0, 0, "c1")
    net.post(1, 0, 0, "b1")
    net.post(2, 0, 0, "c2")
    net.post(1, 0, 0, "b2")
    inbox = net.exchange()[0]
    assert [(src, payload) for src, _tag, payload in inbox] == [
        (1, "b1"),
        (1, "b2"),
        (2, "c1"),
        (2, "c2"),
    ]


def test_post_is_thread_safe_under_concurrent_hammering():
    import threading

    nparts, per_thread = 8, 200
    net = make(nparts)
    barrier = threading.Barrier(nparts)

    def hammer(src):
        barrier.wait()
        for i in range(per_thread):
            net.post(src, (src + 1) % nparts, i, (src, i))

    threads = [
        threading.Thread(target=hammer, args=(src,)) for src in range(nparts)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert net.pending() == nparts * per_thread
    inboxes = net.exchange()
    for dst in range(nparts):
        src = (dst - 1) % nparts
        # No message lost, and per-source posting order survived the race.
        assert [p for _s, _t, p in inboxes[dst]] == [
            (src, i) for i in range(per_thread)
        ]


def test_neighbor_counts_safe_while_posting():
    import threading

    net = make(4)
    stop = threading.Event()

    def poster():
        while not stop.is_set():
            net.post(0, 1, 0, "x")

    thread = threading.Thread(target=poster)
    thread.start()
    try:
        for _ in range(50):
            counts = net.neighbor_counts()  # must not raise mid-append
            assert set(counts) <= {1}
    finally:
        stop.set()
        thread.join()
    assert net.pending() == net.neighbor_counts().get(1, 0)


@pytest.mark.parametrize("copy", [True, False])
@pytest.mark.parametrize(
    "view, size",
    [
        (memoryview(b"abcd"), 4),
        (memoryview(array.array("d", [1.0, 2.0])), 16),
        (bytearray(b"xyz"), 3),
    ],
)
def test_memoryview_payloads_are_pre_encoded(view, size, copy):
    """A buffer is charged its bytes and delivered off-node as ``bytes``,
    copying or not, never handed to the generic serializer."""
    perf = PerfCounters()
    net = Network(2, counters=perf, copy_off_node=copy)  # flat: off-node
    net.post(0, 1, 0, view)
    (_, _, received), = net.exchange()[1]
    assert type(received) is bytes and received == bytes(view)
    assert perf.get("net.bytes.off_node") == wire_size(view) == size


def test_bundles_round_trip_like_any_payload():
    """A router's ``[(tag, bytes)]`` bundle and its near misses arrive as
    the generic codec would deliver them, charged the same bytes."""
    payloads = [
        [(40, b"\x01\x02"), (-714, b"")],
        [],
        [(1, "text")],
        [(True, b"x")],
        [(1, b"x", 2)],
        [(1, bytearray(b"x"))],
        ((1, b"x"),),
    ]
    for payload in payloads:
        perf = PerfCounters()
        net = Network(2, counters=perf)
        net.post(0, 1, 0, payload)
        (_, _, received), = net.exchange()[1]
        expected = codec.loads(codec.dumps(payload))
        assert received == expected
        assert [type(item) for item in received] == [
            type(item) for item in expected
        ]
        assert perf.get("net.bytes.off_node") == wire_size(payload)


def test_counters_total_per_exchange():
    """Per-class totals are the same as counting message by message."""
    topo = MachineTopology(nodes=2, cores_per_node=2)
    perf = PerfCounters()
    net = Network(4, topology=topo, counters=perf)
    payloads = ["a", [(40, b"xyz")], b"\x00" * 9, {"k": 1}]
    for src in range(4):
        for dst in range(4):
            net.post(src, dst, 0, payloads[(src + dst) % 4])
    net.exchange()
    off_node = [
        payloads[(src + dst) % 4]
        for src in range(4) for dst in range(4)
        if topo.node_of(src) != topo.node_of(dst)
    ]
    assert perf.get("net.messages.self") == 4
    assert perf.get("net.messages.on_node") == 4
    assert perf.get("net.messages.off_node") == len(off_node) == 8
    assert perf.get("net.bytes.off_node") == sum(map(wire_size, off_node))
    assert perf.get("net.exchanges") == 1
