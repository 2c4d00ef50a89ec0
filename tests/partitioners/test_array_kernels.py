"""The partitioners' array kernels against plain reference loops.

``contract``, ``_subgraph`` and ``heavy_edge_matching`` must return exactly
what the one-node-at-a-time walks below return -- the golden partitions
depend on it -- including on the degenerate inputs the multilevel driver can
hand them: isolated nodes, a matching that paired nothing, an edgeless graph
and an empty node set.
"""

import numpy as np
import pytest

from repro.partitioners import contract, heavy_edge_matching
from repro.partitioners.bisection import _subgraph


def random_csr(rng, n, m, isolated=0, integer=True):
    """Symmetric CSR graph; ``isolated`` random nodes get no edge at all.

    Each row lists its neighbours in a random order; weights are equal on
    both directions of an edge and are integers, or arbitrary floats.
    """
    labels = rng.permutation(n)
    connected = labels[: n - isolated]
    a = connected[rng.integers(0, len(connected), m)] if len(connected) else []
    b = connected[rng.integers(0, len(connected), m)] if len(connected) else []
    pairs = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
    pairs = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    w = rng.integers(1, 4, len(pairs)).astype(float)
    if not integer:
        w = rng.random(len(pairs)) + 0.1
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    ew = np.concatenate([w, w])
    shuffle = rng.permutation(len(src))
    order = shuffle[np.argsort(src[shuffle], kind="stable")]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
    return xadj, dst[order], ew[order]


def reference_matching(xadj, adjncy, eweights, rng):
    n = len(xadj) - 1
    mate = np.full(n, -1, dtype=np.int64)
    for i in rng.permutation(n):
        if mate[i] != -1:
            continue
        best, best_w = -1, -1.0
        for k in range(xadj[i], xadj[i + 1]):
            j = int(adjncy[k])
            if mate[j] == -1 and j != i and eweights[k] > best_w:
                best, best_w = j, float(eweights[k])
        if best == -1:
            mate[i] = i
        else:
            mate[i], mate[best] = best, i
    return mate


def reference_contract(xadj, adjncy, weights, eweights, mate):
    n = len(weights)
    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if cmap[i] == -1:
            cmap[i] = cmap[mate[i]] = next_id
            next_id += 1
    cweights = np.zeros(next_id, dtype=weights.dtype)
    np.add.at(cweights, cmap, weights)
    accum = {}
    for i in range(n):
        for k in range(xadj[i], xadj[i + 1]):
            key = (int(cmap[i]), int(cmap[adjncy[k]]))
            if key[0] != key[1]:
                accum[key] = accum.get(key, 0.0) + float(eweights[k])
    cxadj = np.zeros(next_id + 1, dtype=np.int64)
    for ci, _cj in accum:
        cxadj[ci + 1] += 1
    np.cumsum(cxadj, out=cxadj)
    keys = sorted(accum)
    cadjncy = np.array([cj for _ci, cj in keys], dtype=np.int64)
    ceweights = np.array([accum[key] for key in keys], dtype=float)
    return cxadj, cadjncy, cweights, ceweights, cmap


def reference_subgraph(xadj, adjncy, eweights, ids):
    remap = -np.ones(len(xadj) - 1, dtype=np.int64)
    remap[ids] = np.arange(len(ids))
    sub_xadj, sub_adjncy, sub_ew = [0], [], []
    for i in ids:
        for k in range(xadj[i], xadj[i + 1]):
            j = remap[int(adjncy[k])]
            if j >= 0:
                sub_adjncy.append(j)
                sub_ew.append(float(eweights[k]) if eweights is not None else 1.0)
        sub_xadj.append(len(sub_adjncy))
    return (
        np.asarray(sub_xadj, dtype=np.int64),
        np.asarray(sub_adjncy, dtype=np.int64),
        np.asarray(sub_ew, dtype=float),
    )


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert np.array_equal(g, w)


GRAPHS = [
    # (n, edge draws, isolated nodes, integer weights)
    (1, 0, 0, True),
    (2, 1, 0, True),
    (12, 0, 0, True),  # empty adjncy
    (20, 30, 5, True),
    (40, 120, 0, True),
    (40, 120, 3, False),
    (200, 600, 17, True),
]


@pytest.mark.parametrize("n, m, isolated, integer", GRAPHS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matching_and_contract_match_reference(n, m, isolated, integer, seed):
    rng = np.random.default_rng(seed)
    xadj, adjncy, ew = random_csr(rng, n, m, isolated, integer)
    weights = rng.integers(1, 5, n).astype(float)
    mate = heavy_edge_matching(xadj, adjncy, ew, np.random.default_rng(seed))
    want = reference_matching(xadj, adjncy, ew, np.random.default_rng(seed))
    assert_same([mate], [want])
    assert np.array_equal(mate[mate], np.arange(n))
    for m_ in (mate, np.arange(n)):  # found pairs; all self-matched
        assert_same(
            contract(xadj, adjncy, weights, ew, m_),
            reference_contract(xadj, adjncy, weights, ew, m_),
        )


def test_contract_integer_node_weights_keep_their_dtype():
    rng = np.random.default_rng(3)
    xadj, adjncy, ew = random_csr(rng, 30, 60, 2)
    weights = rng.integers(1, 5, 30)
    mate = heavy_edge_matching(xadj, adjncy, ew, rng)
    got = contract(xadj, adjncy, weights, ew, mate)
    assert got[2].dtype == weights.dtype
    assert_same(got, reference_contract(xadj, adjncy, weights, ew, mate))


def test_heavy_edge_matching_ties_take_the_first_neighbour():
    # A star whose centre sees four equally heavy leaves: every visiting
    # order pairs the centre with a leaf, and when the centre is visited
    # first, with the first leaf in its row.
    xadj = np.array([0, 4, 5, 6, 7, 8])
    adjncy = np.array([3, 1, 4, 2, 0, 0, 0, 0])
    ew = np.full(8, 2.0)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        first = rng.permutation(5)[0]
        mate = heavy_edge_matching(xadj, adjncy, ew, np.random.default_rng(seed))
        want = reference_matching(xadj, adjncy, ew, np.random.default_rng(seed))
        assert np.array_equal(mate, want)
        if first == 0:
            assert mate[0] == 3
        assert (mate[1:] != np.arange(1, 5)).sum() == 1


@pytest.mark.parametrize("n, m, isolated, integer", GRAPHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_subgraph_matches_reference(n, m, isolated, integer, seed):
    rng = np.random.default_rng(seed)
    xadj, adjncy, ew = random_csr(rng, n, m, isolated, integer)
    for size in sorted({0, 1, n // 2, n}):
        ids = rng.permutation(n)[:size]  # any subset, in any order
        for weights in (ew, None):
            assert_same(
                _subgraph(xadj, adjncy, weights, ids),
                reference_subgraph(xadj, adjncy, weights, ids),
            )
