"""The batched split kernel against one split at a time.

``refine_pass`` splits every marked edge in rounds of local maxima; the
reference here is the loop it replaced — one ``split_edge`` per edge, in the
same ``split_order`` — kept inside the test.  Handles differ between the two
(rounds allocate in a different order), so meshes are compared by geometry:
the set of elements as sets of vertex coordinates, plus each vertex's
classification.
"""

import numpy as np
import pytest

from repro.adapt import refine_pass, seed_ancestry, split_edge
from repro.adapt.refine import split_edges, split_order
from repro.field import ShockPlaneSize, UniformSize
from repro.field.sizefield import edge_size_ratios
from repro.mesh import EDGE, Ent, box_tet, rect_tri
from repro.mesh.verify import verify
from tests.mesh.test_classify_closure import cylinder_tets, mixed_prisms


def sequential_pass(mesh, size, ratio=1.5, ancestry_tag=None, max_splits=None):
    """The reference: mark, order by the split key, split one at a time."""
    edges = mesh.entity_ids(1).astype(np.int64)
    ratios = edge_size_ratios(mesh, size, edges)
    over = ratios > ratio
    order = edges[over][split_order(mesh, edges[over], ratios[over])]
    for idx in order[:max_splits].tolist():
        split_edge(mesh, Ent(1, idx), ancestry_tag=ancestry_tag)
    return len(order[:max_splits])


def geometry(mesh, tag=None):
    """``{element: tag value}`` with elements as frozensets of vertex
    coordinates, and ``{vertex coordinates: classification}``."""
    coords = mesh.coords_view()
    dim = mesh.dim()
    tag = mesh.tags.find(tag) if tag else None
    elements = {}
    for e in mesh.entities(dim):
        key = frozenset(tuple(coords[v.idx]) for v in mesh.verts_of(e))
        elements[key] = tag.get(e) if tag is not None else None
    verts = {tuple(coords[v.idx]): mesh.classification(v) for v in mesh.entities(0)}
    return elements, verts


CASES = {
    "rect_tri": (
        lambda: rect_tri(4),
        ShockPlaneSize([1, 0.3], 0.45, h_fine=0.05, h_coarse=0.3, width=0.1),
    ),
    "box_tet": (
        lambda: box_tet(3),
        ShockPlaneSize([1, 0.5, 0.2], 0.6, h_fine=0.12, h_coarse=0.5, width=0.15),
    ),
    # Curved wall: boundary midpoints snap onto the cylinder.
    "cylinder": (cylinder_tets, UniformSize(0.35)),
    "prisms": (mixed_prisms, UniformSize(0.3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_pass_equals_sequential_loop(case):
    build, size = CASES[case]
    batch, reference = build(), build()
    for mesh in (batch, reference):
        seed_ancestry(mesh, "anc")
    for _pass in range(3):
        splits = refine_pass(batch, size, ancestry_tag="anc")
        assert splits > 0
        assert splits == sequential_pass(reference, size, ancestry_tag="anc")
        assert geometry(batch, "anc") == geometry(reference, "anc")
        assert batch.entity_counts() == reference.entity_counts()
    if case != "prisms":
        verify(batch, check_volumes=True)


@pytest.mark.parametrize("case", ["rect_tri", "box_tet"])
def test_max_splits_keeps_the_first_edges_by_key(case):
    build, size = CASES[case]
    batch, reference = build(), build()
    assert refine_pass(batch, size, max_splits=7) == 7
    assert sequential_pass(reference, size, max_splits=7) == 7
    assert geometry(batch) == geometry(reference)


def test_split_order_is_handle_free():
    """The same edges listed in two handle orders get one split order."""
    mesh = box_tet(2)
    edges = mesh.entity_ids(1).astype(np.int64)
    ratios = edge_size_ratios(mesh, UniformSize(0.3), edges)
    order = edges[split_order(mesh, edges, ratios)]
    flipped = edges[::-1]
    again = flipped[split_order(mesh, flipped, ratios[::-1])]
    assert order.tolist() == again.tolist()


def test_split_edges_rejects_bad_batches():
    mesh = rect_tri(2)
    edge = int(mesh.entity_ids(1)[0])
    with pytest.raises(ValueError):
        split_edges(mesh, [edge, edge])
    with pytest.raises(KeyError):
        split_edges(mesh, [10_000])
    assert len(split_edges(mesh, [])) == 0
    # An edge no element uses: rejected before anything is written.
    tip = mesh.create_vertex([2.0, 2.0])
    dangling = mesh.create(EDGE, [Ent(0, 0), tip])
    counts = mesh.entity_counts()
    for batch in ([dangling.idx], [edge, dangling.idx]):
        with pytest.raises(ValueError, match="bounds no elements"):
            split_edges(mesh, batch)
        assert mesh.entity_counts() == counts


def marked_edges(mesh, size, ratio=1.5):
    """Edges over ``ratio`` in split order."""
    edges = mesh.entity_ids(1).astype(np.int64)
    ratios = edge_size_ratios(mesh, size, edges)
    over = ratios > ratio
    return edges[over][split_order(mesh, edges[over], ratios[over])]


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_call_equals_two_calls_in_turn(case):
    """``split_edges(A ++ B)`` leaves what ``split_edges(A)`` then
    ``split_edges(B)`` leave — the property distributed refinement's one
    call per part rests on (interior edges, then commanded shared ones)."""
    build, size = CASES[case]
    once, twice = build(), build()
    for mesh in (once, twice):
        seed_ancestry(mesh, "anc")
    edges = marked_edges(once, size)
    # Interleave the halves so A and B share elements.
    a, b = edges[::2], edges[1::2]
    assert len(a) and len(b)
    split_edges(once, np.concatenate((a, b)), ancestry_tag="anc")
    split_edges(twice, a, ancestry_tag="anc")
    split_edges(twice, b, ancestry_tag="anc")
    assert geometry(once, "anc") == geometry(twice, "anc")
    assert once.entity_counts() == twice.entity_counts()


def test_split_edges_writes_the_mesh_once(monkeypatch):
    """However many conflict rounds a call needs, it lands the midpoints
    once, each dimension's rows once and classifies once."""
    import repro.adapt.refine as refine
    from repro.mesh.mesh import Mesh

    mesh = box_tet(2)
    # Every edge of one tet: they pairwise share it, so one wins per round.
    edges = [e.idx for e in mesh.adjacent(next(mesh.entities(3)), 1)]
    calls = []

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((name, args[1]) if name == "land_rows" else name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("_batch_edges", "land_vertices", "land_rows"):
        count(refine, name)
    count(Mesh, "classify_closure")
    split_edges(mesh, edges)
    # One join per round, and the last finds no batch edge left.
    assert calls.count("_batch_edges") - 1 >= 2
    assert [c for c in calls if c != "_batch_edges"] == [
        "land_vertices", ("land_rows", 1), ("land_rows", 2), ("land_rows", 3),
        "classify_closure",
    ]
    verify(mesh, check_volumes=True)
