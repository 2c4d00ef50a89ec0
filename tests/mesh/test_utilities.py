"""Tests for the three common utilities (iterator, set, tag) and IO."""

import numpy as np
import pytest

from repro.mesh import TRI, Ent, Mesh, rect_tri
from repro.mesh.iterator import boundary_entities, classified_on, count, iterate
from repro.mesh.io import load_native, save_native, write_vtk
from repro.mesh.sets import EntitySet, SetManager
from repro.mesh.tag import Tag, TagManager


# -- tags --------------------------------------------------------------------


def test_tag_set_get_default():
    tag = Tag("w")
    e = Ent(2, 0)
    assert tag.get(e) is None
    assert tag.get(e, 7) == 7
    tag.set(e, 3.5)
    assert tag.get(e) == 3.5
    assert tag.has(e)
    assert e in tag


def test_tag_getitem_raises_on_missing():
    tag = Tag("w")
    with pytest.raises(KeyError):
        tag[Ent(0, 0)]


def test_tag_setitem_and_len():
    tag = Tag("w")
    tag[Ent(0, 0)] = 1
    tag[Ent(0, 1)] = 2
    assert len(tag) == 2
    tag.remove(Ent(0, 0))
    assert len(tag) == 1
    tag.clear()
    assert len(tag) == 0


def test_tag_items_sorted():
    tag = Tag("w")
    tag[Ent(1, 5)] = "b"
    tag[Ent(0, 2)] = "a"
    assert list(tag.items()) == [(Ent(0, 2), "a"), (Ent(1, 5), "b")]


def test_tag_manager_create_is_idempotent():
    mgr = TagManager()
    a = mgr.create("x")
    b = mgr.create("x")
    assert a is b
    assert "x" in mgr
    assert list(mgr.names()) == ["x"]


def test_tag_manager_delete_and_find():
    mgr = TagManager()
    mgr.create("x")
    assert mgr.find("x") is not None
    mgr.delete("x")
    assert mgr.find("x") is None
    mgr.delete("x")  # idempotent


def test_tag_manager_drop_entity():
    mgr = TagManager()
    t1, t2 = mgr.create("a"), mgr.create("b")
    e = Ent(0, 0)
    t1.set(e, 1)
    t2.set(e, 2)
    mgr.drop_entity(e)
    assert not t1.has(e) and not t2.has(e)


# -- sets ----------------------------------------------------------------------


def test_unordered_set_sorted_iteration():
    s = EntitySet("s")
    s.add(Ent(1, 3))
    s.add(Ent(0, 9))
    s.add(Ent(1, 3))  # duplicate ignored
    assert list(s) == [Ent(0, 9), Ent(1, 3)]
    assert len(s) == 2


def test_ordered_set_preserves_insertion():
    s = EntitySet("s", ordered=True)
    s.add(Ent(1, 3))
    s.add(Ent(0, 9))
    assert list(s) == [Ent(1, 3), Ent(0, 9)]


def test_set_remove_and_contains():
    s = EntitySet("s", ordered=True)
    e = Ent(2, 1)
    s.add(e)
    assert e in s
    s.remove(e)
    assert e not in s
    s.remove(e)  # idempotent


def test_set_manager():
    mgr = SetManager()
    a = mgr.create("g", ordered=True)
    assert mgr.create("g") is a  # ordered flag only applies at creation
    assert a.ordered
    e = Ent(0, 0)
    a.add(e)
    mgr.drop_entity(e)
    assert e not in a
    mgr.delete("g")
    assert mgr.find("g") is None


# -- iterators -------------------------------------------------------------------


def test_iterate_all_faces():
    mesh = rect_tri(2)
    assert count(iterate(mesh, 2)) == mesh.count(2)


def test_iterate_with_type_filter():
    mesh = rect_tri(2)
    assert count(iterate(mesh, 2, etype=TRI)) == mesh.count(2)
    from repro.mesh import QUAD

    assert count(iterate(mesh, 2, etype=QUAD)) == 0


def test_iterate_with_predicate():
    mesh = rect_tri(2)
    left = list(
        iterate(mesh, 0, where=lambda v: mesh.coords(v)[0] == 0.0)
    )
    assert len(left) == 3


def test_classified_on_model_edge():
    mesh = rect_tri(3)
    bottom = mesh.model.find(1, 0)
    edges = list(classified_on(mesh, 1, bottom))
    assert len(edges) == 3
    verts = list(classified_on(mesh, 0, bottom))
    assert len(verts) == 2  # interior vertices of the bottom edge only
    with_corners = list(classified_on(mesh, 0, bottom, closure=True))
    assert len(with_corners) == 4


def test_boundary_entities():
    mesh = rect_tri(2)
    bverts = list(boundary_entities(mesh, 0))
    assert len(bverts) == 8  # all but the single interior vertex
    bfaces = list(boundary_entities(mesh, 2))
    assert bfaces == []  # faces classify on the model face (same dim)


# -- IO -----------------------------------------------------------------------


def test_write_vtk(tmp_path):
    mesh = rect_tri(2)
    out = write_vtk(mesh, tmp_path / "mesh.vtk")
    text = out.read_text()
    assert "POINTS 9 double" in text
    assert "CELLS 8" in text
    assert text.count("\n5\n") + text.strip().endswith("5") >= 1  # VTK tri type


def test_write_vtk_with_cell_data(tmp_path):
    mesh = rect_tri(1)
    values = {f: float(i) for i, f in enumerate(mesh.entities(2))}
    text = write_vtk(mesh, tmp_path / "m.vtk", {"load": values}).read_text()
    assert "CELL_DATA 2" in text
    assert "SCALARS load double 1" in text


def test_native_roundtrip(tmp_path):
    mesh = rect_tri(3)
    path = save_native(mesh, tmp_path / "m.npz")
    loaded = load_native(path, model=mesh.model)
    assert loaded.entity_counts() == mesh.entity_counts()
    assert np.allclose(
        loaded.coords_view()[: loaded.count(0)],
        mesh.coords_view()[: mesh.count(0)],
    )
    # Classification restored.
    corners = [
        v for v in loaded.entities(0) if loaded.classification(v).dim == 0
    ]
    assert len(corners) == 4


def test_native_roundtrip_keeps_saved_vertex_classification(tmp_path):
    """``load_native`` lands the saved vertex classes, not re-located ones."""
    mesh = rect_tri(3)
    model = mesh.model
    # An interior vertex away from the bottom side, so that every entity
    # around it still has a covering model entity.
    interior = max(
        (v for v in mesh.entities(0) if mesh.classification(v).dim == 2),
        key=lambda v: mesh.coords(v)[1],
    )
    mesh.set_classification(interior, model.find(1, 0))
    loaded = load_native(save_native(mesh, tmp_path / "m.npz"), model)
    for v in mesh.entities(0):
        assert loaded.classification(v) == mesh.classification(v)
    assert loaded.classification(interior) == model.find(1, 0)


def test_native_roundtrip_without_model(tmp_path):
    mesh = rect_tri(2, classify=False)
    path = save_native(mesh, tmp_path / "m.npz")
    loaded = load_native(path)
    assert loaded.entity_counts() == mesh.entity_counts()
    assert loaded.classification(Ent(0, 0)) is None


def test_write_vtk_3d(tmp_path):
    from repro.mesh import box_tet

    mesh = box_tet(1)
    text = write_vtk(mesh, tmp_path / "m3.vtk").read_text()
    assert "POINTS 8 double" in text
    assert "CELLS 6" in text
    lines = text.splitlines()
    types_at = lines.index("CELL_TYPES 6")
    assert lines[types_at + 1 : types_at + 7] == ["10"] * 6  # VTK_TETRA


def test_write_vtk_after_modification(tmp_path):
    """Dead entity slots must not leak into the export."""
    from repro.adapt import split_edge

    mesh = rect_tri(2)
    split_edge(mesh, next(mesh.entities(1)))
    text = write_vtk(mesh, tmp_path / "m.vtk").read_text()
    assert f"POINTS {mesh.count(0)} double" in text
    assert f"CELLS {mesh.count(2)}" in text
    # Connectivity references only exported (dense) point indices.
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("CELLS")) + 1
    for line in lines[start : start + mesh.count(2)]:
        ids = [int(x) for x in line.split()][1:]
        assert all(0 <= i < mesh.count(0) for i in ids)
