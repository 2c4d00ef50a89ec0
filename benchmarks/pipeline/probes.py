"""Layer probes (traced run only): fixed-size calls straight into one layer.

The stage spans say how long a workload spent inside ``ghost_layer``; the
probes say what the layers underneath cost per unit — codec MB/s, star-forest
µs per leaf, network µs per message, mesh build µs per entity — on inputs
that do not change with the workload: the AAA surrogate at ``PROBE_N``
(648 tets) on ``PROBE_PARTS`` parts, and the element-closure batches a real
``ghost_layer`` call puts on its wire.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.mesh import TET, Ent, from_connectivity
from repro.parallel import CodecError, Network, PerfCounters, StarForest
from repro.parallel.codec import (
    decode_element_batch,
    decode_value_batch,
    encode_element_batch,
    encode_value_batch,
)
from repro.partition import distribute, ghost_layer
from repro.partitioners import partition
from repro.workloads import aaa_mesh

PROBE_N = 3
PROBE_PARTS = 4
REPEATS = 5
NETWORK_MESSAGES_PER_PAIR = 20
NETWORK_PAYLOAD = bytes(1024)


class WireTap:
    """Records the pre-encoded buffers a distributed service posts, through
    the network's public ``fault_injector`` hook; passes every message on."""

    def __init__(self) -> None:
        self.blobs: List[bytes] = []

    def on_post(self, src: int, dst: int, tag: int, payload: Any):
        for _tag, item in payload if isinstance(payload, list) else ():
            if isinstance(item, (bytes, bytearray)):
                self.blobs.append(bytes(item))
        return [(src, dst, tag, payload)]

    def on_exchange(self):
        return []

    def end_superstep(self) -> None:
        pass


def _median_seconds(fn: Callable[[], Any]) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _element_batches(dmesh) -> Tuple[List[bytes], List[List[dict]]]:
    """The element-closure frames of one depth-1 ``ghost_layer``."""
    tap = WireTap()
    dmesh.fault_injector = tap
    try:
        ghost_layer(dmesh, depth=1)
    finally:
        dmesh.fault_injector = None
    blobs, batches = [], []
    for blob in tap.blobs:
        try:
            batches.append(decode_element_batch(blob))
        except CodecError:  # a frame of another kind
            continue
        blobs.append(blob)
    if not blobs:
        raise RuntimeError("ghost_layer posted no element batch")
    return blobs, batches


def run_probes(seed: int) -> Dict[str, float]:
    mesh = aaa_mesh(n=PROBE_N, seed=seed)
    dmesh = distribute(
        mesh, partition(mesh, PROBE_PARTS, "rcb"), nparts=PROBE_PARTS,
        counters=PerfCounters(),
    )

    # Star forest: owner -> copy broadcast over the vertex part boundary.
    forest = StarForest(dmesh, name="probe")
    for part in dmesh:
        for ent, copies in part.remotes.items():
            if ent.dim == 0 and part.owns(ent):
                for other_pid, other_ent in copies.items():
                    forest.add_leaf(other_pid, other_ent, part.pid, ent)
    bcast_s = _median_seconds(
        lambda: forest.bcast(
            lambda _pid, ent: float(ent.idx), lambda _pid, _ent, _value: None
        )
    )

    # Codec: element-closure batches off a real wire, plus value batches.
    element_blobs, element_batches = _element_batches(dmesh)
    values = [
        [(Ent(0, i), np.array([float(i), 2.0 * i, 3.0 * i])) for i in range(n)]
        for n in (64, 512)
    ]
    value_blobs = [encode_value_batch(items) for items in values]
    coded_bytes = sum(map(len, element_blobs)) + sum(map(len, value_blobs))

    def encode() -> None:
        for batch in element_batches:
            encode_element_batch(batch)
        for items in values:
            encode_value_batch(items)

    def decode() -> None:
        for blob in element_blobs:
            decode_element_batch(blob)
        for blob in value_blobs:
            decode_value_batch(blob)

    encode_s = _median_seconds(encode)
    decode_s = _median_seconds(decode)

    # Network: byte payloads between every ordered pair of parts.
    network = Network(PROBE_PARTS, counters=PerfCounters())
    pairs = [
        (src, dst)
        for src in range(PROBE_PARTS) for dst in range(PROBE_PARTS) if src != dst
    ]

    def exchange() -> None:
        for src, dst in pairs:
            for _ in range(NETWORK_MESSAGES_PER_PAIR):
                network.post(src, dst, 0, NETWORK_PAYLOAD)
        network.exchange()

    exchange_s = _median_seconds(exchange)

    # Mesh: rebuild the same tets from coordinates + connectivity.
    coords = mesh.coords_view()[: mesh.count(0)]
    tets = mesh.core.verts_matrix(3, mesh.entity_ids(3))
    entities = sum(mesh.count(dim) for dim in range(4))
    build_s = _median_seconds(lambda: from_connectivity(coords, tets, TET))

    return {
        "parallel.sf.bcast_us_per_leaf": 1e6 * bcast_s / forest.nleaves,
        "parallel.codec.encode_mb_per_s": coded_bytes / encode_s / 1e6,
        "parallel.codec.decode_mb_per_s": coded_bytes / decode_s / 1e6,
        "parallel.network.exchange_us_per_msg": (
            1e6 * exchange_s / (len(pairs) * NETWORK_MESSAGES_PER_PAIR)
        ),
        "mesh.create_us_per_entity": 1e6 * build_s / entities,
    }
