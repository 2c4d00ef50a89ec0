"""Depth-k overlap semantics: exact regions, Overlap config."""

import pytest

from repro.field import UniformSize
from repro.mesh import box_tet, rect_tri
from repro.partition import Overlap, distribute, ghost_layer, refine_distributed
from repro.partitioners import partition


def strip(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def blocks(mesh, per_axis=2):
    """A per_axis × per_axis block partition — rings wrap part corners."""
    assignment = []
    for e in mesh.entities(mesh.dim()):
        c = mesh.centroid(e)
        ix = min(int(c[0] * per_axis), per_axis - 1)
        iy = min(int(c[1] * per_axis), per_axis - 1)
        assignment.append(ix * per_axis + iy)
    return assignment


def element_key(mesh, e):
    """Partition-independent element identity: its rounded centroid."""
    return tuple(round(float(c), 9) for c in mesh.centroid(e))


def expected_regions(mesh, assignment, nparts, depth, bridge_dim):
    """Serial reference: expand each part's elements ``depth`` rings.

    One ring adds every element sharing a bridge-dim entity with the
    current region.  Returns per part the *ghost* element key set (the
    expanded region minus the part's own elements).
    """
    dim = mesh.dim()
    elements = list(mesh.entities(dim))
    own = {pid: set() for pid in range(nparts)}
    for e, pid in zip(elements, assignment):
        own[pid].add(e)
    regions = {}
    for pid in range(nparts):
        region = set(own[pid])
        for _ring in range(depth):
            front = set()
            for e in region:
                front.update(mesh.adjacent(e, bridge_dim))
            grown = set(region)
            for b in front:
                grown.update(mesh.adjacent(b, dim))
            region = grown
        regions[pid] = {
            element_key(mesh, e) for e in region if e not in own[pid]
        }
    return regions


def actual_regions(dm):
    """Per part, the key set of its ghost elements."""
    dim = dm.element_dim()
    out = {}
    for part in dm:
        out[part.pid] = {
            element_key(part.mesh, g)
            for g in part.ghosts
            if g.dim == dim
        }
    return out


def rcb(mesh, nparts):
    return list(partition(mesh, nparts, "rcb"))


@pytest.mark.parametrize("depth", (1, 2, 3))
@pytest.mark.parametrize(
    "make_mesh,maker,nparts,bridge_dim",
    (
        (lambda: rect_tri(8), lambda mesh: strip(mesh, 4), 4, 0),
        (lambda: rect_tri(8), lambda mesh: strip(mesh, 8), 8, 0),
        (lambda: rect_tri(8), lambda mesh: blocks(mesh, 2), 4, 0),
        (lambda: box_tet(3), lambda mesh: rcb(mesh, 4), 4, 0),
        (lambda: box_tet(3), lambda mesh: rcb(mesh, 4), 4, 1),
        (lambda: box_tet(3), lambda mesh: rcb(mesh, 4), 4, 2),
    ),
    ids=("strip4", "strip8", "blocks2x2", "box-rcb4-b0", "box-rcb4-b1",
         "box-rcb4-b2"),
)
def test_depth_k_region_is_exact(make_mesh, maker, nparts, bridge_dim, depth):
    """The distributed overlap equals the serial ring expansion, exactly.

    The 2×2 block partition is the hard case in 2-D: the second ring wraps
    part corners onto diagonal neighbors the first ring never talked to,
    which only the referral to the other holders reaches.  The 3-D RCB
    cases cross edge- and face-bridged rings between four tet parts.
    """
    mesh = make_mesh()
    assignment = maker(mesh)
    dm = distribute(mesh, assignment, nparts=nparts)
    stats = ghost_layer(
        dm, overlap=Overlap(depth=depth, bridge_dim=bridge_dim)
    )
    dm.verify()
    assert stats.layers == depth
    expected = expected_regions(mesh, assignment, nparts, depth, bridge_dim)
    assert actual_regions(dm) == expected


def ghost_gids(dm):
    """Per part and dimension, the sorted identities of its ghosts: the gids
    of vertices and elements, the keys (sorted vertex gids) of edges and
    faces."""
    top = dm.element_dim()
    out = {}
    for part in dm:
        out[part.pid] = []
        for d in range(top + 1):
            ids = part.ghost_ids(d)
            if d in (0, top):
                out[part.pid].append(sorted(part.gids_of(d, ids).tolist()))
            else:
                out[part.pid].append(
                    sorted(map(tuple, part.entity_keys(d, ids).tolist()))
                )
    return out


@pytest.mark.parametrize("maker", (lambda: rect_tri(8), lambda: box_tet(3)),
                         ids=("2d", "3d"))
def test_deepening_a_ghosted_mesh_equals_a_clean_call(maker):
    """Depth 1, then depth 2, ends with exactly the ghosts of one clean
    depth-2 call: ring 1 grows from every element ring 0 shipped, whether
    the receiver held it already or not."""
    mesh = maker()
    assignment = partition(mesh, 4, "rcb")
    deepened, clean = (distribute(mesh, assignment, nparts=4) for _ in range(2))
    ghost_layer(deepened, depth=1)
    ghost_layer(deepened, depth=2)
    ghost_layer(clean, depth=2)
    deepened.verify()
    assert ghost_gids(deepened) == ghost_gids(clean)
    dim = mesh.dim()
    assert sum(len(p.ghost_ids(dim)) for p in clean) == (152 if dim == 2 else 468)


@pytest.mark.parametrize("depth", (1, 2, 3))
def test_ring_zero_is_one_superstep_and_later_rings_two(depth):
    """Ring 0 is pushed from the owners' links (the bcast alone); every
    later ring refers its front to the other holders and ships."""
    mesh = rect_tri(6)
    dm = distribute(mesh, blocks(mesh, 2))
    assert ghost_layer(dm, depth=depth).supersteps == 1 + 2 * (depth - 1)


@pytest.mark.parametrize("nparts", (1, 2), ids=("one-part", "no-links"))
def test_depth_one_costs_one_superstep_with_nothing_shared(nparts):
    """A one-part mesh, and two parts that share nothing (part 1 is empty):
    no ghost, and still exactly the one superstep of the bcast."""
    mesh = rect_tri(4)
    dm = distribute(mesh, [0] * mesh.count(2), nparts=nparts)
    assert all(not len(part.links(0)[0]) for part in dm)
    stats = ghost_layer(dm, depth=1)
    assert stats.ghosts_created == 0
    assert stats.supersteps == 1 and stats.messages == 0


def test_depth_zero_is_a_noop():
    mesh = rect_tri(4)
    dm = distribute(mesh, strip(mesh, 2))
    stats = ghost_layer(dm, overlap=Overlap(depth=0))
    assert stats.ghosts_created == 0 and stats.supersteps == 0
    assert all(not part.ghosts for part in dm)


def test_overlap_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Overlap(depth=-1)
    with pytest.raises(ValueError):
        Overlap(bridge_dim=3)
    ov = Overlap(depth=2, bridge_dim=1)
    assert Overlap.coerce(ov) is ov
    assert ov.to_dict() == {"depth": 2, "bridge_dim": 1}
    assert Overlap.coerce(ov.to_dict()) == ov
    # Manifests written before the knob was dropped still load.
    assert Overlap.from_dict({**ov.to_dict(), "include_closure": False}) == ov
    with pytest.raises(TypeError):
        Overlap(include_closure=False)
    with pytest.raises(TypeError):
        Overlap.coerce(2)
    # Overlap above the element dimension is caught at the mesh.
    mesh = rect_tri(2)
    dm = distribute(mesh, strip(mesh, 2))
    with pytest.raises(ValueError):
        ghost_layer(dm, overlap=Overlap(bridge_dim=2))


def test_argument_spellings_are_exclusive():
    mesh = rect_tri(2)
    dm = distribute(mesh, strip(mesh, 2))
    with pytest.raises(ValueError):
        ghost_layer(dm, overlap=Overlap(), depth=1)
    # The pre-Overlap spellings are gone, not silently rebound to ``tags``.
    with pytest.raises(TypeError):
        ghost_layer(dm, 0, 2)
    with pytest.raises(TypeError):
        ghost_layer(dm, bridge_dim=0)


@pytest.mark.parametrize("bridge_dim", (1, 2))
def test_deep_rings_cross_refined_edges_and_faces(bridge_dim):
    """Refinement creates edges and faces nobody numbers; a depth-2 ring
    bridged by them still finds each front entity at its home by key."""
    mesh = box_tet(3)
    assignment = partition(mesh, 4, "rcb")
    deep, shallow = (distribute(mesh, assignment, nparts=4) for _ in range(2))
    for dm in (deep, shallow):
        refine_distributed(dm, UniformSize(0.25), max_passes=1)
    ghost_layer(shallow, overlap=Overlap(depth=1, bridge_dim=bridge_dim))
    ghost_layer(deep, overlap=Overlap(depth=2, bridge_dim=bridge_dim))
    deep.verify()
    for got, ring0 in zip(deep, shallow):
        ghosts, first = (
            set(map(tuple, part.entity_keys(3, part.ghost_ids(3)).tolist()))
            for part in (got, ring0)
        )
        assert first and ghosts > first, got.pid
