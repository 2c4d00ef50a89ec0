"""Golden partitions: the partitioners' output, pinned bit for bit.

Every count the pipeline benchmark pins downstream (messages, wire bytes,
store bytes, cut faces, ParMA's iterations, the heavy-part split) is a
function of the exact assignment the partitioners return, so any rewrite of
their kernels must reproduce it exactly.  Each case hashes the int64 output
with sha256; a drifting hash means the partition changed, not just its speed.
"""

import hashlib

import numpy as np
import pytest

from repro.mesh import rect_tri
from repro.partition import distribute
from repro.partitioners import (
    dual_graph,
    local_partition,
    multilevel_bisect,
    partition,
)
from repro.workloads import aaa_mesh, wing_mesh

@pytest.fixture(scope="module")
def meshes():
    return {"aaa4": aaa_mesh(n=4), "wing8": wing_mesh(8), "rect8": rect_tri(8)}


def _digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<i8").tobytes()
    ).hexdigest()[:16]


def _weights(mesh):
    """Seeded integer element weights, as the pipeline workloads use."""
    rng = np.random.default_rng(7)
    return rng.integers(1, 10, mesh.count(mesh.dim())).astype(float)


#: (mesh, method, nparts, seed, weighted) -> sha256 prefix of the assignment.
PARTITIONS = {
    ("aaa4", "hypergraph", 16, 0, False): "789ed1f0ce2d119a",
    ("aaa4", "hypergraph", 7, 1, True): "1d6ec51f451dc8e5",
    ("aaa4", "graph", 4, 2, False): "4a4b9dcf07223924",
    ("aaa4", "graph", 3, 0, True): "e1db73b893042821",
    ("wing8", "hypergraph", 3, 2, False): "929b979f396015f9",
    ("wing8", "hypergraph", 4, 0, True): "d7d4748a6cafa47a",
    ("wing8", "graph", 7, 1, False): "8c5b88582563f0ac",
    ("wing8", "graph", 16, 3, True): "78dc3965fc43afe3",
    ("rect8", "hypergraph", 4, 1, False): "fb437c5d4ae86472",
    ("rect8", "hypergraph", 7, 3, True): "0848a131598cd766",
    ("rect8", "graph", 3, 0, False): "d6de0fb23f287c4c",
    ("rect8", "graph", 4, 2, True): "928c25fd3903faad",
}


@pytest.mark.parametrize(
    "key", sorted(PARTITIONS), ids=lambda k: "-".join(map(str, k))
)
def test_partition_is_golden(meshes, key):
    name, method, nparts, seed, weighted = key
    mesh = meshes[name]
    weights = _weights(mesh) if weighted else None
    a = partition(mesh, nparts, method, eps=0.05, seed=seed, weights=weights)
    assert _digest(a) == PARTITIONS[key]


#: (mesh, piece fraction, seed) -> digest of ``multilevel_bisect`` called
#: the way ``core.split_off_piece`` calls it (side 1 is the piece).
BISECTIONS = {
    ("aaa4", 0.3, 5): "5363d0600f8700ba",
    ("wing8", 0.18, 3): "2f796ada9a051fb2",
    ("rect8", 0.4, 11): "39edd2f06b924575",
}


@pytest.mark.parametrize(
    "key", sorted(BISECTIONS), ids=lambda k: "-".join(map(str, k))
)
def test_split_off_piece_bisection_is_golden(meshes, key):
    name, fraction, seed = key
    graph = dual_graph(meshes[name])
    side = multilevel_bisect(
        graph.xadj,
        graph.adjncy,
        graph.weights.astype(float),
        ratio=1.0 - fraction,
        seed=seed,
    )
    assert _digest(side) == BISECTIONS[key]


def test_local_partition_is_golden(meshes):
    """Re-pinned once when ``distribute`` became a migration: the parts'
    edges and faces are numbered by vertex-gid tuple, and ``dual_graph``
    walks a part's facets in id order (add182ef7452c2a3 before)."""
    mesh = meshes["wing8"]
    dm = distribute(mesh, partition(mesh, 4, "rcb"))
    local_partition(dm, 3, seed=3)
    dim = dm.element_dim()
    rows = []
    for part in dm:
        ids = part.mesh.entity_ids(dim)
        gids = part.gids_of(dim, ids)
        rows.extend((int(g), part.pid) for g in gids)
    rows.sort()
    assert len(rows) == mesh.count(dim)
    assert _digest(rows) == "5c63be5b938b1bc5"
