"""Tests for distributed mesh adaptation (coordinated boundary splits)."""

import numpy as np
import pytest

from repro.field import ShockPlaneSize, UniformSize
from repro.mesh import box_tet, rect_tri
from repro.mesh.quality import measure
from repro.mesh.verify import verify
from repro.partition import (
    adapt_distributed,
    coarsen_distributed,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    refine_distributed,
)


def strips(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def total_measure(dm):
    dim = dm.element_dim()
    return sum(
        measure(p.mesh, e) for p in dm for e in p.mesh.entities(dim)
    )


def check_all(dm):
    dm.verify()
    for part in dm:
        if part.mesh.count(0):
            verify(part.mesh, check_classification=False, check_volumes=True)


@pytest.fixture
def dm2d():
    mesh = rect_tri(4)
    return distribute(mesh, strips(mesh, 4))


def test_uniform_refinement_2d(dm2d):
    before = dm2d.entity_counts()[:, 2].copy()
    stats = refine_distributed(dm2d, UniformSize(0.125))
    assert stats.splits > 0
    assert stats.boundary_splits > 0  # interfaces at x=0.25/0.5/0.75 refine
    after = dm2d.entity_counts()[:, 2]
    assert (after > before).all()
    check_all(dm2d)
    assert total_measure(dm2d) == pytest.approx(1.0)


def test_boundary_splits_keep_copies_conforming(dm2d):
    refine_distributed(dm2d, UniformSize(0.125))
    # Every shared edge's endpoints carry identical gids on both sides
    # (dm.verify checks this), and each side's copy has the same length.
    checked = 0
    for part in dm2d:
        for ent, copies in part.remotes.items():
            if ent.dim != 1:
                continue
            a, b = part.mesh.verts_of(ent)
            length = np.linalg.norm(part.mesh.coords(a) - part.mesh.coords(b))
            for other_pid, other_ent in copies.items():
                other = dm2d.part(other_pid)
                oa, ob = other.mesh.verts_of(other_ent)
                other_length = np.linalg.norm(
                    other.mesh.coords(oa) - other.mesh.coords(ob)
                )
                assert length == pytest.approx(other_length)
                checked += 1
    assert checked > 0


def test_shock_on_interface_2d(dm2d):
    shock = ShockPlaneSize([1, 0], 0.25, h_fine=0.06, h_coarse=0.3, width=0.08)
    stats = refine_distributed(dm2d, shock)
    assert stats.boundary_splits > 0
    check_all(dm2d)
    # Parts adjacent to the interface hold most of the new elements.
    counts = dm2d.entity_counts()[:, 2]
    assert counts[0] + counts[1] > counts[2] + counts[3]


def test_refinement_converges(dm2d):
    stats = refine_distributed(dm2d, UniformSize(0.2), max_passes=8)
    assert stats.converged
    from repro.field import edge_size_ratio

    for part in dm2d:
        for edge in part.mesh.entities(1):
            assert edge_size_ratio(part.mesh, UniformSize(0.2), edge) <= 1.5


def test_refinement_3d_interface():
    mesh = box_tet(3)
    dm = distribute(mesh, strips(mesh, 3, axis=2))
    shock = ShockPlaneSize(
        [0, 0, 1], 1 / 3, h_fine=0.16, h_coarse=0.5, width=0.1
    )
    stats = refine_distributed(dm, shock, max_passes=4)
    assert stats.boundary_splits > 0
    check_all(dm)
    assert total_measure(dm) == pytest.approx(1.0)


def test_coarsen_distributed_interior_only():
    mesh = rect_tri(8)
    dm = distribute(mesh, strips(mesh, 2))
    shared_before = {
        part.pid: sorted(part.remotes) for part in dm
    }
    stats = coarsen_distributed(dm, UniformSize(0.4))
    assert stats.collapses > 0
    check_all(dm)
    assert total_measure(dm) == pytest.approx(1.0)
    # The part boundary itself is untouched by interior coarsening.
    for part in dm:
        assert sorted(part.remotes) == shared_before[part.pid]


def test_adapt_distributed_full_cycle():
    mesh = rect_tri(6)
    dm = distribute(mesh, strips(mesh, 3))
    shock = ShockPlaneSize([1, 0], 1 / 3, h_fine=0.05, h_coarse=0.4, width=0.07)
    stats = adapt_distributed(dm, shock, max_passes=6)
    assert stats.splits > 0
    assert stats.collapses >= 0
    check_all(dm)
    assert total_measure(dm) == pytest.approx(1.0)


def test_refine_rejects_ghosts(dm2d):
    ghost_layer(dm2d)
    with pytest.raises(ValueError):
        refine_distributed(dm2d, UniformSize(0.1))
    delete_ghosts(dm2d)
    refine_distributed(dm2d, UniformSize(0.25))
    check_all(dm2d)


def test_migration_after_distributed_refinement(dm2d):
    """The adapted distributed mesh remains fully operational."""
    refine_distributed(dm2d, UniformSize(0.125))
    part0 = dm2d.part(0)
    elements = sorted(part0.mesh.entities(2))[:5]
    migrate(dm2d, {0: {e: 1 for e in elements}})
    check_all(dm2d)
    assert total_measure(dm2d) == pytest.approx(1.0)


def test_parma_after_distributed_refinement():
    """ParMA balances the imbalance distributed refinement created."""
    from repro.core import ParMA, imbalance_of

    mesh = rect_tri(6)
    dm = distribute(mesh, strips(mesh, 3))
    shock = ShockPlaneSize([1, 0], 0.15, h_fine=0.04, h_coarse=0.35, width=0.06)
    refine_distributed(dm, shock, max_passes=6)
    before = imbalance_of(dm.entity_counts(), 2)
    assert before > 1.2  # refinement concentrated in part 0
    ParMA(dm).rebalance_spikes("Face", tol=0.08)
    after = imbalance_of(dm.entity_counts(), 2)
    assert after < before
    check_all(dm)


def test_classification_preserved_by_boundary_split(dm2d):
    refine_distributed(dm2d, UniformSize(0.2))
    model = dm2d.model
    for part in dm2d:
        for v in part.mesh.entities(0):
            gent = part.mesh.classification(v)
            assert gent is not None
            if gent.dim < 2:
                # Boundary-classified vertices actually lie on the shape.
                shape = model.shape(gent)
                assert shape.contains(part.mesh.coords(v), tol=1e-9)


# -- conformity across parts ---------------------------------------------------


def assert_conforming(dm):
    """Every facet identity bounds two elements over all parts, or one and
    lies on the model boundary: no crack between parts."""
    dim = dm.element_dim()
    keys, users, low = [], [], []
    for part in dm:
        mesh = part.mesh
        facets = mesh.entity_ids(dim - 1)
        keys.append(part.entity_keys(dim - 1, facets))
        users.append(mesh.core.nup[dim - 1][facets])
        codes = mesh.core.gclass[dim - 1][facets]
        low.append((codes >= 0) & (mesh.class_pairs()[codes, 0] < dim))
    _uniq, inverse = np.unique(
        np.concatenate(keys), axis=0, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    total = np.bincount(inverse, weights=np.concatenate(users))
    boundary = np.bincount(inverse, weights=np.concatenate(low)) > 0
    assert ((total == 2) | ((total == 1) & boundary)).all()


def wing_case(nparts, n=4):
    from repro.partitioners import partition
    from repro.workloads import shock_size, wing_mesh

    mesh = wing_mesh(n)
    dm = distribute(mesh, partition(mesh, nparts, "rcb"), nparts=nparts)
    return mesh, dm, shock_size(1.0 / n, refinement=2.0)


@pytest.mark.parametrize("nparts", [1, 2, 4, 8])
def test_refine_distributed_conforms_at_part_counts(nparts):
    from repro.adapt import refine_pass

    mesh, dm, size = wing_case(nparts)
    volume = sum(measure(mesh, e) for e in mesh.entities(3))
    stats = refine_distributed(dm, size, max_passes=2)
    assert stats.splits > 0
    assert stats.boundary_splits > 0 or nparts == 1
    check_all(dm)
    assert_conforming(dm)
    assert total_measure(dm) == pytest.approx(volume)
    held = sum(part.mesh.count(3) for part in dm)
    assert held == dm.total_owned(3)
    if nparts == 1:
        # One part has no shared edge: the serial pass, split for split.
        serial = sum(refine_pass(mesh, size) for _ in range(2))
        assert serial == stats.splits
        assert mesh.entity_counts() == dm.part(0).mesh.entity_counts()


def test_shared_faces_split_alike_on_every_holder():
    """Two holders of a shared face split its edges in one (split-key)
    order, so they triangulate it alike; ordering commanded splits by local
    handle left one-sided faces in the middle of the domain."""
    from repro.core import ParMA

    _mesh, dm, size = wing_case(2, n=3)
    ParMA(dm).predictive_balance(size)
    stats = refine_distributed(dm, size, max_passes=1)
    assert stats.boundary_splits > 0
    dm.verify()
    assert_conforming(dm)
