"""Tests for the partitioning methods: RCB, RIB, FM, multilevel, PHG."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import box_tet, rect_tri
from repro.partitioners import (
    cut_weight,
    dual_graph,
    entity_counts_from_assignment,
    fm_refine,
    imbalance,
    multilevel_bisect,
    partition,
    phg,
    rcb,
    rcb_points,
    recursive_bisection,
    rib_points,
)


def balance_ok(assignment, nparts, eps=0.12):
    sizes = np.bincount(assignment, minlength=nparts)
    return sizes.max() <= np.ceil(len(assignment) / nparts * (1 + eps))


# -- RCB / RIB -----------------------------------------------------------------


def test_rcb_points_exact_split():
    points = np.column_stack([np.arange(8, dtype=float), np.zeros(8)])
    a = rcb_points(points, 2)
    assert (a[:4] == a[0]).all()
    assert (a[4:] == a[4]).all()
    assert a[0] != a[4]


def test_rcb_respects_weights():
    points = np.column_stack([np.arange(4, dtype=float), np.zeros(4)])
    weights = np.array([3.0, 1.0, 1.0, 1.0])
    a = rcb_points(points, 2, weights)
    # The heavy first point alone balances the other three.
    assert (a == np.array([0, 1, 1, 1])).all() or (a == np.array([1, 0, 0, 0])).all()


@settings(max_examples=10, deadline=None)
@given(nparts=st.integers(min_value=1, max_value=7), seed=st.integers(0, 5))
def test_rcb_points_all_parts_used(nparts, seed):
    rng = np.random.default_rng(seed)
    points = rng.random((50, 3))
    a = rcb_points(points, nparts)
    assert set(a.tolist()) == set(range(nparts))
    assert balance_ok(a, nparts, eps=0.3)


def test_rib_points_splits_along_principal_axis():
    rng = np.random.default_rng(0)
    # Elongated diagonal cloud: RIB must cut across the diagonal.
    t = np.linspace(0, 1, 100)
    points = np.column_stack([t, t]) + rng.normal(0, 0.01, (100, 2))
    a = rib_points(points, 2)
    left = points[a == a[0]]
    right = points[a != a[0]]
    assert abs(len(left) - len(right)) <= 2
    assert left[:, 0].mean() != pytest.approx(right[:, 0].mean(), abs=0.05)


def test_rcb_mesh_interface():
    mesh = rect_tri(4)
    a = rcb(mesh, 4)
    assert len(a) == mesh.count(2)
    assert balance_ok(a, 4, eps=0.01)


def test_geometric_invalid_nparts():
    with pytest.raises(ValueError):
        rcb_points(np.zeros((4, 2)), 0)


# -- FM ---------------------------------------------------------------------------


def path_graph(n):
    xadj = [0]
    adjncy = []
    for i in range(n):
        if i > 0:
            adjncy.append(i - 1)
        if i < n - 1:
            adjncy.append(i + 1)
        xadj.append(len(adjncy))
    return np.asarray(xadj), np.asarray(adjncy)


def test_fm_improves_alternating_partition():
    xadj, adjncy = path_graph(16)
    weights = np.ones(16)
    bad = np.arange(16) % 2  # worst possible: cut at every edge
    refined = fm_refine(xadj, adjncy, weights, bad.astype(np.int64))
    before = cut_weight(xadj, adjncy, None, bad)
    after = cut_weight(xadj, adjncy, None, refined)
    assert after < before
    assert after <= 3
    sizes = np.bincount(refined, minlength=2)
    assert sizes.max() <= 16 * 0.5 * 1.05 + 1


def test_fm_keeps_optimal_partition():
    xadj, adjncy = path_graph(10)
    weights = np.ones(10)
    optimal = (np.arange(10) >= 5).astype(np.int64)
    refined = fm_refine(xadj, adjncy, weights, optimal)
    assert cut_weight(xadj, adjncy, None, refined) == 1


def test_fm_respects_balance_tolerance():
    xadj, adjncy = path_graph(20)
    weights = np.ones(20)
    side = (np.arange(20) >= 10).astype(np.int64)
    refined = fm_refine(xadj, adjncy, weights, side, eps=0.05)
    sizes = np.bincount(refined, minlength=2)
    assert sizes.max() <= 10 * 1.05 + 1e-9


# -- multilevel / recursive ---------------------------------------------------------


def test_multilevel_bisect_grid():
    mesh = rect_tri(8)
    graph = dual_graph(mesh)
    side = multilevel_bisect(
        graph.xadj, graph.adjncy, graph.weights.astype(float)
    )
    sizes = np.bincount(side, minlength=2)
    assert sizes.min() > 0
    assert sizes.max() <= graph.n * 0.5 * 1.05 + 1
    # A good bisection of a 2D grid cuts O(sqrt(n)) edges.
    cut = cut_weight(graph.xadj, graph.adjncy, None, side)
    assert cut <= 4 * np.sqrt(graph.n)


@settings(max_examples=6, deadline=None)
@given(nparts=st.integers(min_value=2, max_value=9))
def test_recursive_bisection_part_count_and_balance(nparts):
    mesh = rect_tri(8)
    graph = dual_graph(mesh)
    a = recursive_bisection(
        graph.xadj, graph.adjncy, graph.weights.astype(float), nparts
    )
    assert set(a.tolist()) == set(range(nparts))
    assert balance_ok(a, nparts)


def test_phg_balances_and_cuts():
    mesh = rect_tri(8)
    a = phg(mesh, 4, seed=2)
    assert balance_ok(a, 4)
    graph = dual_graph(mesh)
    # Must beat a random partition's cut by a wide margin.
    rng = np.random.default_rng(0)
    random_cut = graph.edge_cut(rng.integers(0, 4, graph.n))
    assert graph.edge_cut(a) < random_cut / 2


def test_phg_connectivity_refinement_does_not_hurt():
    from repro.partitioners import element_hypergraph

    mesh = rect_tri(8)
    raw = partition(mesh, 4, method="graph", seed=3)
    refined = phg(mesh, 4, seed=3)
    hg = element_hypergraph(mesh)
    assert hg.connectivity_cost(refined) <= hg.connectivity_cost(raw)


def test_partition_facade_methods():
    mesh = rect_tri(6)
    for method in ("hypergraph", "graph", "rcb", "rib"):
        a = partition(mesh, 3, method=method)
        assert len(a) == mesh.count(2)
        assert set(a.tolist()) <= {0, 1, 2}
    with pytest.raises(ValueError):
        partition(mesh, 3, method="magic")
    with pytest.raises(ValueError):
        partition(mesh, 0)


def test_partition_single_part():
    mesh = rect_tri(2)
    assert (partition(mesh, 1) == 0).all()


# -- assignment metrics ----------------------------------------------------------


def test_entity_counts_match_distribution():
    from repro.partition import distribute

    for mesh, nparts, method in [
        (box_tet(2), 3, "rcb"),
        (box_tet(4), 8, "hypergraph"),
    ]:
        a = partition(mesh, nparts, method=method)
        counts = entity_counts_from_assignment(mesh, a)
        dm = distribute(mesh, a)
        assert np.array_equal(counts, dm.entity_counts())


def test_imbalance_metric():
    counts = np.array([[10, 0, 0, 0], [20, 0, 0, 0]])
    imb = imbalance(counts)
    assert imb[0] == pytest.approx(20 / 15 - 1)
    assert imb[1] == 0.0
    fixed = imbalance(counts, base_mean=np.array([10.0, 1, 1, 1]))
    assert fixed[0] == pytest.approx(1.0)


def test_3d_partition_quality_signature():
    """The PHG baseline balances regions but not vertices (T0 signature)."""
    mesh = box_tet(6)
    a = partition(mesh, 8, method="hypergraph", seed=1)
    imb = imbalance(entity_counts_from_assignment(mesh, a))
    assert imb[3] < 0.10  # regions tightly balanced
    assert imb[0] > imb[3]  # vertices worse than regions
