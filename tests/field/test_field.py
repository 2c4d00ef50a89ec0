"""Tests for the Field container and manager."""

import numpy as np
import pytest

from repro.field import Field
from repro.mesh import Ent, rect_tri


@pytest.fixture
def mesh():
    return rect_tri(2)


def test_scalar_roundtrip(mesh):
    f = Field(mesh, "p")
    v = next(mesh.entities(0))
    f.set(v, 3.0)
    assert f.get_scalar(v) == 3.0
    assert f.get(v).shape == (1,)


def test_vector_field(mesh):
    f = Field(mesh, "vel", shape=3)
    v = next(mesh.entities(0))
    f.set(v, [1.0, 2.0, 3.0])
    assert np.allclose(f.get(v), [1, 2, 3])


def test_tensor_field(mesh):
    f = Field(mesh, "stress", shape=(2, 2))
    v = next(mesh.entities(0))
    f.set(v, [[1, 2], [3, 4]])
    assert f.get(v).shape == (2, 2)


def test_shape_mismatch_rejected(mesh):
    f = Field(mesh, "vel", shape=3)
    v = next(mesh.entities(0))
    with pytest.raises(ValueError):
        f.set(v, [1.0, 2.0])


def test_wrong_entity_dim_rejected(mesh):
    f = Field(mesh, "p", entity_dim=0)
    face = next(mesh.entities(2))
    with pytest.raises(ValueError):
        f.set(face, 1.0)


def test_dead_entity_rejected(mesh):
    f = Field(mesh, "p")
    with pytest.raises(KeyError):
        f.set(Ent(0, 10_000), 1.0)


def test_get_missing_raises(mesh):
    f = Field(mesh, "p")
    v = next(mesh.entities(0))
    with pytest.raises(KeyError):
        f.get(v)
    assert not f.has(v)


def test_values_are_copied(mesh):
    f = Field(mesh, "vel", shape=2)
    v = next(mesh.entities(0))
    src = np.array([1.0, 2.0])
    f.set(v, src)
    src[0] = 99.0
    assert f.get(v)[0] == 1.0
    out = f.get(v)
    out[1] = 99.0
    assert f.get(v)[1] == 2.0


def test_zero_all_and_len(mesh):
    f = Field(mesh, "p")
    f.zero_all()
    assert len(f) == mesh.count(0)
    assert f.norm("max") == 0.0


def test_set_from_coords(mesh):
    f = Field(mesh, "x")
    f.set_from_coords(lambda x: x[0])
    total = sum(f.get_scalar(v) for v in mesh.entities(0))
    # 9 grid vertices with x in {0, .5, 1} three times each.
    assert total == pytest.approx(4.5)


def test_set_all_with_entity_fn(mesh):
    f = Field(mesh, "area", entity_dim=2)
    f.set_all(lambda e: float(e.idx))
    assert f.get_scalar(next(mesh.entities(2))) == 0.0
    assert len(f) == mesh.count(2)


def test_region_field_on_face_mesh_rejected_entities(mesh):
    f = Field(mesh, "m", entity_dim=3)
    assert len(f) == 0  # fine to create; there are just no entities
    f.zero_all()
    assert len(f) == 0


def test_norms(mesh):
    f = Field(mesh, "p")
    verts = list(mesh.entities(0))
    f.set(verts[0], 3.0)
    f.set(verts[1], 4.0)
    assert f.norm("l2") == pytest.approx(5.0)
    assert f.norm("max") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        f.norm("l7")


def test_get_scalar_rejects_vector_field(mesh):
    f = Field(mesh, "v", shape=2)
    v = next(mesh.entities(0))
    f.set(v, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.get_scalar(v)

