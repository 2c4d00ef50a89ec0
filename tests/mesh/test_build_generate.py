"""Tests for bulk construction and the mesh generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gmodel import box_model, rect_model
from repro.mesh import (
    HEX,
    TET,
    TRI,
    Ent,
    Mesh,
    box_hex,
    box_tet,
    delaunay_rect,
    from_connectivity,
    rect_quad,
    rect_tri,
)
from repro.mesh.quality import measure, worst_quality
from repro.mesh.verify import verify


def test_from_connectivity_matches_incremental_path():
    coords = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    cells = np.array([[0, 1, 2], [0, 2, 3]])
    bulk = from_connectivity(coords, cells, TRI)

    incr = Mesh()
    v = [incr.create_vertex(p) for p in coords]
    for cell in cells:
        incr.create(TRI, [v[i] for i in cell])

    assert bulk.entity_counts() == incr.entity_counts()
    for dim in range(3):
        bulk_sets = {
            tuple(sorted(x.idx for x in bulk.verts_of(e)))
            for e in bulk.entities(dim)
        }
        incr_sets = {
            tuple(sorted(x.idx for x in incr.verts_of(e)))
            for e in incr.entities(dim)
        }
        assert bulk_sets == incr_sets
    verify(bulk, check_classification=False)


def test_from_connectivity_tet_matches_incremental():
    coords = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    bulk = from_connectivity(coords, cells, TET)
    incr = Mesh()
    v = [incr.create_vertex(p) for p in coords]
    for cell in cells:
        incr.create(TET, [v[i] for i in cell])
    assert bulk.entity_counts() == incr.entity_counts()
    verify(bulk, check_classification=False)


@pytest.mark.parametrize("kind", ["prism", "pyramid", "hex"])
def test_from_connectivity_mixed_face_cells_match_incremental(kind):
    # Cells whose faces mix triangles and quads take the same bulk path
    # (one padded face block), not a per-element fallback.
    from repro.mesh import PRISM, PYRAMID, extrude_to_prisms

    if kind == "prism":
        source, etype = extrude_to_prisms(rect_tri(2), 2, 0.5), PRISM
    elif kind == "hex":
        source, etype = box_hex(2), HEX
    else:
        source, etype = Mesh(), PYRAMID
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (.5, .5, 1), (.5, .5, -1)]
        v = [source.create_vertex(p) for p in pts]
        source.create(PYRAMID, v[:5])
        source.create(PYRAMID, [v[0], v[3], v[2], v[1], v[5]])
    coords = source.coords_view()[: source.count(0)]
    cells = source.core.verts_matrix(3, source.entity_ids(3))
    bulk = from_connectivity(coords, cells, etype)
    assert bulk.entity_counts() == source.entity_counts()
    for dim in range(1, 4):
        assert {
            (bulk.etype(e), tuple(sorted(x.idx for x in bulk.verts_of(e))))
            for e in bulk.entities(dim)
        } == {
            (source.etype(e), tuple(sorted(x.idx for x in source.verts_of(e))))
            for e in source.entities(dim)
        }
    verify(bulk, check_classification=False)


def test_from_connectivity_validates_shape():
    coords = np.zeros((3, 2))
    with pytest.raises(ValueError):
        from_connectivity(coords, np.array([[0, 1]]), TRI)
    with pytest.raises(ValueError):
        from_connectivity(coords, np.array([[0, 1, 5]]), TRI)


def test_from_connectivity_empty_elements():
    mesh = from_connectivity(np.zeros((4, 2)), np.zeros((0, 3), dtype=int), TRI)
    assert mesh.count(0) == 4
    assert mesh.count(2) == 0


def test_classify_requires_model():
    coords = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    with pytest.raises(ValueError):
        from_connectivity(coords, np.array([[0, 1, 2]]), TRI, classify=True)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=5), m=st.integers(min_value=1, max_value=5))
def test_rect_tri_counts(n, m):
    """Structured counts follow Euler's formula for a disk (V - E + F = 1)."""
    mesh = rect_tri(n, m)
    nv, ne, nf, _ = mesh.entity_counts()
    assert nv == (n + 1) * (m + 1)
    assert nf == 2 * n * m
    assert nv - ne + nf == 1
    verify(mesh, check_volumes=True)


def test_rect_tri_classification_boundary():
    mesh = rect_tri(3)
    model = mesh.model
    corners = [v for v in mesh.entities(0) if mesh.classification(v).dim == 0]
    assert len(corners) == 4
    boundary_edges = [
        e for e in mesh.entities(1) if mesh.classification(e).dim == 1
    ]
    assert len(boundary_edges) == 4 * 3
    interior = [f for f in mesh.entities(2)
                if mesh.classification(f) != model.find(2, 0)]
    assert interior == []


def test_rect_quad_counts():
    mesh = rect_quad(3, 2)
    nv, ne, nf, _ = mesh.entity_counts()
    assert nv == 4 * 3
    assert nf == 6
    assert nv - ne + nf == 1
    verify(mesh)


@settings(max_examples=6, deadline=None)
@given(n=st.integers(min_value=1, max_value=3))
def test_box_tet_counts(n):
    mesh = box_tet(n)
    nv, ne, nf, nr = mesh.entity_counts()
    assert nv == (n + 1) ** 3
    assert nr == 6 * n ** 3
    # Euler characteristic of a ball: V - E + F - R = 1.
    assert nv - ne + nf - nr == 1
    verify(mesh)


def test_box_tet_positive_volumes():
    mesh = box_tet(2)
    for region in mesh.entities(3):
        assert measure(mesh, region) > 0
    assert worst_quality(mesh) > 0.1


def test_box_tet_volume_sums_to_domain():
    mesh = box_tet(2, lo=(0, 0, 0), hi=(2, 1, 1))
    total = sum(measure(mesh, r) for r in mesh.entities(3))
    assert total == pytest.approx(2.0)


def test_box_tet_classification():
    mesh = box_tet(2)
    model = mesh.model
    assert sum(1 for v in mesh.entities(0)
               if mesh.classification(v).dim == 0) == 8
    face_verts = [v for v in mesh.entities(0)
                  if mesh.classification(v).dim == 2]
    assert len(face_verts) == 6  # one interior grid point per box face
    verify(mesh)


def test_box_hex_counts():
    mesh = box_hex(2)
    nv, ne, nf, nr = mesh.entity_counts()
    assert nv == 27
    assert nr == 8
    assert ne == 54
    assert nf == 36
    assert nv - ne + nf - nr == 1
    verify(mesh)


def test_delaunay_rect_is_valid_and_classified():
    mesh = delaunay_rect(5, seed=3)
    verify(mesh, check_volumes=True)
    area = sum(measure(mesh, f) for f in mesh.entities(2))
    assert area == pytest.approx(1.0)


def test_delaunay_rect_deterministic_by_seed():
    a = delaunay_rect(4, seed=7)
    b = delaunay_rect(4, seed=7)
    assert a.entity_counts() == b.entity_counts()
    assert np.allclose(a.coords_view(), b.coords_view())


def test_generators_reject_degenerate_sizes():
    with pytest.raises(ValueError):
        rect_tri(0)
    with pytest.raises(ValueError):
        box_tet(1, 0)
    with pytest.raises(ValueError):
        delaunay_rect(1)


def test_custom_domain_bounds():
    mesh = rect_tri(2, lo=(-1.0, -2.0), hi=(3.0, 2.0))
    coords = np.asarray([mesh.coords(v) for v in mesh.entities(0)])
    assert coords[:, 0].min() == -1.0
    assert coords[:, 0].max() == 3.0
    assert coords[:, 1].min() == -2.0
    verify(mesh)
