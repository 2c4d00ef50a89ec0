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
from repro.mesh import Ent, box_tet, rect_tri
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
