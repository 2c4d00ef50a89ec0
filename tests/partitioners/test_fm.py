"""FM refinement: what a pass that stops early must still guarantee.

A pass ends after a run of moves that found no new best prefix and rolls
back to the best prefix, so whatever the stopping rule, ``fm_refine`` can
only return a cut at most its input's and a balance within the tolerance or
no worse than the input's.  The heap-pop count of one pinned partition is
the exact measure of the work a pass does: a pass that drains the whole
heap again shows up here with no timing noise.
"""

import heapq

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.partitioners import cut_weight, fm_refine, partition
from repro.workloads import aaa_mesh


@st.composite
def weighted_graphs(draw):
    """A symmetric CSR graph with integer node and edge weights, a side
    assignment (balanced or not) and a target ratio and tolerance."""
    n = draw(st.integers(2, 160))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4 * n,
        )
    )
    edges = {}
    for i, j in pairs:
        if i != j:
            edges[min(i, j), max(i, j)] = draw(st.integers(1, 5))
    rows = [[] for _ in range(n)]
    for (i, j), w in sorted(edges.items()):
        rows[i].append((j, w))
        rows[j].append((i, w))
    xadj = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    adjncy = np.array([j for r in rows for j, _ in r], dtype=np.int64)
    eweights = np.array([w for r in rows for _, w in r], dtype=float)
    weights = np.array(
        draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float
    )
    if draw(st.booleans()):
        side = np.arange(n) % 2  # balanced-ish, cut-heavy
    else:
        side = np.array(
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        )
    ratio = draw(st.sampled_from([0.25, 0.4, 0.5, 0.6]))
    eps = draw(st.sampled_from([0.0, 0.02, 0.05, 0.2]))
    return xadj, adjncy, eweights, weights, side.astype(np.int64), ratio, eps


def balance(weights, side, ratio):
    total = weights.sum()
    return max(
        weights[side == 0].sum() / (total * ratio),
        weights[side == 1].sum() / (total * (1.0 - ratio)),
    )


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_fm_never_worsens_cut_or_balance(case):
    xadj, adjncy, eweights, weights, side, ratio, eps = case
    refined = fm_refine(xadj, adjncy, weights, side, eweights, ratio, eps)
    assert set(np.unique(refined).tolist()) <= {0, 1}
    assert cut_weight(xadj, adjncy, eweights, refined) <= cut_weight(
        xadj, adjncy, eweights, side
    )
    assert balance(weights, refined, ratio) <= max(
        1.0 + eps, balance(weights, side, ratio)
    )


def test_hypergraph_partition_heap_pops_are_pinned(monkeypatch):
    """Pinned when passes began to stop after a run without a new best
    prefix; draining every pass's heap took 195,581 pops.  Re-pinned when
    each pass's first entries became a sorted reserve beside the heap: only
    the entries pushed during a pass are popped from a heap now, so the
    count fell from 30,586 (reserve pops included) to 18,860 with the same
    partition."""
    mesh = aaa_mesh(6)
    pops = [0]
    pop = heapq.heappop

    def counting_pop(heap):
        pops[0] += 1
        return pop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    partition(mesh, 16, "hypergraph")
    assert pops[0] == 18_860
