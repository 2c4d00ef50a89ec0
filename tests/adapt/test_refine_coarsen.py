"""Tests for the edge split/collapse/swap primitives."""

import numpy as np
import pytest

from repro.adapt import (
    can_collapse_classification,
    collapse_edge,
    split_edge,
    swap_edge,
    swap_pass,
)
from repro.mesh import Ent, Mesh, TRI, box_tet, rect_tri
from repro.mesh.quality import measure
from repro.mesh.verify import verify


def test_split_interior_edge_2d():
    mesh = rect_tri(2)
    interior = next(
        e for e in mesh.entities(1) if mesh.classification(e).dim == 2
    )
    nf = mesh.count(2)
    mid = split_edge(mesh, interior)
    assert mesh.count(2) == nf + 2
    verify(mesh, check_volumes=True)
    assert mesh.classification(mid).dim == 2


def test_split_boundary_edge_2d_snaps_and_classifies():
    mesh = rect_tri(2)
    bottom = next(
        e for e in mesh.entities(1)
        if mesh.classification(e) == mesh.model.find(1, 0)
    )
    nf = mesh.count(2)
    mid = split_edge(mesh, bottom)
    assert mesh.count(2) == nf + 1  # boundary edge has one face
    assert mesh.classification(mid) == mesh.model.find(1, 0)
    assert mesh.coords(mid)[1] == 0.0  # snapped onto the bottom edge
    verify(mesh, check_volumes=True)


def test_split_preserves_area():
    mesh = rect_tri(3)
    before = sum(measure(mesh, f) for f in mesh.entities(2))
    for _ in range(5):
        edge = next(mesh.entities(1))
        split_edge(mesh, edge)
    after = sum(measure(mesh, f) for f in mesh.entities(2))
    assert after == pytest.approx(before)


def test_split_edge_3d():
    mesh = box_tet(2)
    nr = mesh.count(3)
    interior = next(
        e for e in mesh.entities(1) if mesh.classification(e).dim == 3
    )
    adjacent = len(mesh.adjacent(interior, 3))
    split_edge(mesh, interior)
    assert mesh.count(3) == nr + adjacent
    verify(mesh, check_volumes=True)


def test_split_propagates_ancestry():
    mesh = rect_tri(2)
    tag = mesh.tag("anc")
    for f in mesh.entities(2):
        tag.set(f, 42)
    edge = next(e for e in mesh.entities(1) if mesh.classification(e).dim == 2)
    split_edge(mesh, edge, ancestry_tag="anc")
    for f in mesh.entities(2):
        assert tag.get(f) == 42


def test_split_validation():
    mesh = rect_tri(1)
    with pytest.raises(ValueError):
        split_edge(mesh, next(mesh.entities(2)))
    with pytest.raises(KeyError):
        split_edge(mesh, Ent(1, 10_000))


def test_split_single_triangle_keeps_far_vertex():
    mesh = Mesh()
    a = mesh.create_vertex([0, 0])
    b = mesh.create_vertex([1, 0])
    c = mesh.create_vertex([0, 1])
    tri = mesh.create(TRI, [a, b, c])
    edge = mesh.find(1, [a, b])
    split_edge(mesh, edge, snap=False)
    assert mesh.count(2) == 2
    assert mesh.has(c)
    verify(mesh, check_classification=False, check_volumes=True)


# -- collapse --------------------------------------------------------------------


def test_collapse_interior_edge_reduces_elements():
    mesh = rect_tri(4)
    before = mesh.count(2)
    interior = next(
        e
        for e in mesh.entities(1)
        if mesh.classification(e).dim == 2
        and all(mesh.classification(v).dim == 2 for v in mesh.verts_of(e))
    )
    assert collapse_edge(mesh, interior)
    assert mesh.count(2) == before - 2
    verify(mesh, check_volumes=True)


def test_collapse_preserves_area():
    mesh = rect_tri(4)
    before = sum(measure(mesh, f) for f in mesh.entities(2))
    interior = next(
        e
        for e in mesh.entities(1)
        if all(mesh.classification(v).dim == 2 for v in mesh.verts_of(e))
    )
    assert collapse_edge(mesh, interior)
    after = sum(measure(mesh, f) for f in mesh.entities(2))
    assert after == pytest.approx(before)


def test_collapse_rejects_model_vertex_removal():
    mesh = rect_tri(1)
    # Every vertex is a model corner: no edge may collapse.
    for edge in mesh.entities(1):
        assert not collapse_edge(mesh, edge)
    verify(mesh)


def test_collapse_classification_rules():
    mesh = rect_tri(3)
    corner = next(
        v for v in mesh.entities(0) if mesh.classification(v).dim == 0
    )
    interior = next(
        v for v in mesh.entities(0) if mesh.classification(v).dim == 2
    )
    bedge = next(
        v for v in mesh.entities(0) if mesh.classification(v).dim == 1
    )
    assert not can_collapse_classification(mesh, corner, interior)
    assert can_collapse_classification(mesh, interior, corner)
    assert can_collapse_classification(mesh, interior, bedge)
    # Boundary vertex onto interior vertex would pull the boundary inward.
    assert not can_collapse_classification(mesh, bedge, interior)


def test_collapse_boundary_edge_along_model_edge():
    mesh = rect_tri(4)
    # An edge along the bottom between two bottom-classified vertices.
    bottom = mesh.model.find(1, 0)
    edge = next(
        e
        for e in mesh.entities(1)
        if mesh.classification(e) == bottom
        and all(mesh.classification(v) == bottom for v in mesh.verts_of(e))
    )
    assert collapse_edge(mesh, edge)
    verify(mesh, check_volumes=True)


def test_collapse_3d():
    mesh = box_tet(3)
    before = mesh.count(3)
    interior = next(
        e
        for e in mesh.entities(1)
        if all(mesh.classification(v).dim == 3 for v in mesh.verts_of(e))
    )
    assert collapse_edge(mesh, interior)
    assert mesh.count(3) < before
    verify(mesh, check_volumes=True)


def test_collapse_keep_endpoint():
    mesh = rect_tri(4)
    interior = next(
        e
        for e in mesh.entities(1)
        if all(mesh.classification(v).dim == 2 for v in mesh.verts_of(e))
    )
    a, b = mesh.verts_of(interior)
    assert collapse_edge(mesh, interior, keep=b)
    assert mesh.has(b)
    assert not mesh.has(a)
    with pytest.raises(ValueError):
        collapse_edge(mesh, interior)  # already dead


# -- swap -----------------------------------------------------------------------


def test_swap_improves_bad_pair():
    # Two skinny triangles over a flat quad; swapping the diagonal helps.
    mesh = Mesh()
    from repro.gmodel import rect_model

    mesh.model = rect_model((0.0, 0.0), (4.0, 1.0))
    a = mesh.create_vertex([0, 0.45])
    b = mesh.create_vertex([4, 0.55])
    c = mesh.create_vertex([2, 1.0])
    d = mesh.create_vertex([2, 0.0])
    t1 = mesh.create(TRI, [a, b, c])
    t2 = mesh.create(TRI, [b, a, d])
    mesh.classify_against(mesh.model)
    diagonal = mesh.find(1, [a, b])
    assert swap_edge(mesh, diagonal)
    assert mesh.find(1, [c, d]) is not None
    assert mesh.find(1, [a, b]) is None
    verify(mesh, check_volumes=True)


def test_swap_rejects_boundary_and_good_edges():
    mesh = rect_tri(2)
    boundary = next(
        e for e in mesh.entities(1) if mesh.classification(e).dim == 1
    )
    assert not swap_edge(mesh, boundary)


def test_swap_pass_never_reduces_worst_quality():
    from repro.mesh import delaunay_rect, worst_quality

    mesh = delaunay_rect(6, jitter=0.45, seed=5)
    before = worst_quality(mesh)
    swap_pass(mesh)
    verify(mesh, check_volumes=True)
    assert worst_quality(mesh) >= before - 1e-12


def reversed_copy(mesh):
    """The same entities, orientations and classification with every
    dimension's handle order reversed."""
    from repro.mesh.build import land_rows, land_vertices

    copy = Mesh(mesh.model)
    n = mesh.count(0)
    land_vertices(copy, mesh.coords_view()[:n][::-1])
    for d in range(1, mesh.dim() + 1):
        ids = mesh.entity_ids(d)[::-1]
        rows = mesh.core.verts[d][ids]
        rows = np.where(rows >= 0, n - 1 - rows, -1)
        land_rows(copy, d, mesh.core.etype[d][ids], rows)
    copy.classify_against()
    return copy


@pytest.mark.parametrize("build", [rect_tri, box_tet])
def test_coarsen_is_handle_free(build):
    """One geometry held under two handle orders collapses to one geometry:
    equal size ratios are ordered by midpoint, never by edge handle."""
    from repro.adapt import coarsen_pass
    from repro.field import UniformSize
    from tests.adapt.test_batch_refine import geometry

    mesh = build(3)
    flipped = reversed_copy(mesh)
    assert geometry(mesh) == geometry(flipped)
    size = UniformSize(1.5)
    assert coarsen_pass(mesh, size) == coarsen_pass(flipped, size) > 0
    assert geometry(mesh) == geometry(flipped)
