"""Runtime-sanitizer tests: each sanitizer caught on a deliberately-buggy
rank program, plus freeze-proxy semantics."""

import pickle
import time

import pytest

from repro.analysis.sanitizers import (
    CollectiveMismatchError,
    DeadlockError,
    FrozenDict,
    FrozenList,
    FrozenSet,
    PayloadAliasError,
    freeze,
)
from repro.parallel import Network, PerfCounters, SpmdError, spmd, single_node
from repro.parallel.comm import CommWorld


def run(nranks, prog, **kw):
    kw.setdefault("counters", PerfCounters())
    kw.setdefault("timeout", 30.0)
    kw.setdefault("sanitize", True)
    return spmd(nranks, prog, **kw)


# -- freeze proxies ----------------------------------------------------------


def test_freeze_preserves_type_and_equality():
    frozen = freeze({"a": [1, 2], "b": {3}})
    assert isinstance(frozen, dict) and frozen == {"a": [1, 2], "b": {3}}
    assert isinstance(frozen["a"], list) and isinstance(frozen["b"], set)


def test_frozen_list_raises_on_every_mutator():
    frozen = freeze([1, 2, 3])
    assert isinstance(frozen, FrozenList)
    for attempt in (
        lambda: frozen.append(4),
        lambda: frozen.extend([4]),
        lambda: frozen.insert(0, 4),
        lambda: frozen.remove(1),
        lambda: frozen.pop(),
        lambda: frozen.sort(),
        lambda: frozen.reverse(),
        lambda: frozen.clear(),
        lambda: frozen.__setitem__(0, 9),
        lambda: frozen.__delitem__(0),
    ):
        with pytest.raises(PayloadAliasError):
            attempt()
    assert frozen == [1, 2, 3]


def test_frozen_dict_and_set_raise():
    fd = freeze({"k": 1})
    assert isinstance(fd, FrozenDict)
    with pytest.raises(PayloadAliasError):
        fd["k"] = 2
    with pytest.raises(PayloadAliasError):
        fd.update(k=2)
    fs = freeze({1, 2})
    assert isinstance(fs, FrozenSet)
    with pytest.raises(PayloadAliasError):
        fs.add(3)
    with pytest.raises(PayloadAliasError):
        fs.discard(1)


def test_freeze_is_recursive():
    frozen = freeze({"outer": [{"inner": [1]}]})
    with pytest.raises(PayloadAliasError):
        frozen["outer"][0]["inner"].append(2)


def test_frozen_containers_pickle_to_plain_types():
    thawed = pickle.loads(pickle.dumps(freeze({"a": [1], "b": {2}})))
    assert type(thawed) is dict
    assert type(thawed["a"]) is list and type(thawed["b"]) is set
    thawed["a"].append(99)  # a thawed copy is mutable again


def test_freeze_numpy_array_read_only():
    np = pytest.importorskip("numpy")
    original = np.arange(4)
    frozen = freeze(original)
    with pytest.raises(ValueError):
        frozen[0] = 9
    original[0] = 7  # the sender's own array stays writable
    assert frozen[0] == 7  # ... and the view shares the buffer


# -- alias sanitizer on the BSP network --------------------------------------


def test_network_alias_sanitizer_freezes_on_node_payloads():
    net = Network(
        2, topology=single_node(2), counters=PerfCounters(), sanitize=True
    )
    payload = {"k": [1, 2, 3]}
    net.post(0, 1, 0, payload)
    ((_, _, received),) = net.exchange()[1]
    assert received == payload
    with pytest.raises(PayloadAliasError):
        received["k"].append(4)
    assert payload == {"k": [1, 2, 3]}  # sender state intact


def test_network_off_node_copies_stay_mutable():
    # Flat topology: 0 and 1 are on different nodes, payload is pickled.
    net = Network(2, counters=PerfCounters(), sanitize=True)
    net.post(0, 1, 0, [1, 2])
    ((_, _, received),) = net.exchange()[1]
    received.append(3)  # a private copy: mutation is legal
    assert received == [1, 2, 3]


# -- alias sanitizer on the communicator -------------------------------------


def test_comm_alias_sanitizer_catches_receiver_mutation():
    def prog(comm):
        if comm.rank == 0:
            comm.send({"cells": [1, 2]}, dest=1)
        else:
            payload = comm.recv(source=0)
            payload["cells"].append(3)  # the bug: mutating an aliased payload

    with pytest.raises(SpmdError) as info:
        run(2, prog, topology=single_node(2))
    assert "PayloadAliasError" in str(info.value)


def test_comm_alias_sanitizer_defensive_copy_passes():
    def prog(comm):
        if comm.rank == 0:
            comm.send({"cells": [1, 2]}, dest=1)
            return None
        payload = dict(comm.recv(source=0))
        payload["mine"] = True  # shallow copy: top-level mutation is fine
        return payload

    results = run(2, prog, topology=single_node(2))
    assert results[1]["mine"] is True


# -- collective-order sanitizer ----------------------------------------------


def test_collective_mismatch_detected():
    def prog(comm):
        if comm.rank == 0:
            comm.bcast("x", root=0)
        else:
            comm.barrier()  # noqa: SPMD101 - deliberately mismatched fixture

    with pytest.raises(SpmdError) as info:
        run(2, prog)
    message = str(info.value)
    assert "CollectiveMismatchError" in message
    assert "bcast" in message and "barrier" in message


def test_matching_collectives_pass_under_sanitizer():
    def prog(comm):
        comm.barrier()
        total = comm.allreduce(comm.rank)
        return total

    assert run(4, prog) == [6, 6, 6, 6]


def test_collective_ledger_scoped_by_communicator_context():
    def prog(comm):
        # Sub-communicators run *different* collectives concurrently; their
        # distinct ctx ids must keep the ledger from cross-matching them.
        sub = comm.split(color=comm.rank % 2)
        if comm.rank % 2 == 0:
            return sub.allreduce(1)
        return sub.allgather(comm.rank)

    results = run(4, prog)
    assert results[0] == 2 and results[1] == [1, 3]


# -- deadlock detector -------------------------------------------------------


def test_deadlock_cycle_reported_instead_of_timeout():
    def prog(comm):
        # Every rank receives from its successor; nobody ever sends.
        comm.recv(source=(comm.rank + 1) % comm.size, tag=7)

    start = time.perf_counter()
    with pytest.raises(SpmdError) as info:
        run(3, prog, timeout=60.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0  # detected, not timed out
    message = str(info.value)
    assert "DeadlockError" in message and "waits for rank" in message


def test_two_rank_recv_recv_deadlock():
    def prog(comm):
        comm.recv(source=1 - comm.rank)

    with pytest.raises(SpmdError) as info:
        run(2, prog, timeout=60.0)
    assert "deadlock detected" in str(info.value)


def test_send_before_recv_is_not_a_deadlock():
    def prog(comm):
        comm.send(comm.rank, dest=1 - comm.rank)
        return comm.recv(source=1 - comm.rank)

    assert run(2, prog) == [1, 0]


def test_sanitizers_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    world = CommWorld(2, counters=PerfCounters())
    assert world.sanitize is False


def test_env_var_enables_sanitizers(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    world = CommWorld(2, counters=PerfCounters())
    assert world.sanitize is True
