"""Differential test: per-part ghosting and migration against per-pair ones.

The oracle below is the transport ``ghost_layer`` and ``migrate`` used to
run: every ring *pulled* with a request round (a part asks each co-holder of
a bridge entity on its front for the elements around it, naming the ones
it holds, a ghost front entity's home refers the request to the entity's
other holders, and each holder queues them one ``Mesh.adjacent`` walk at a
time), and one ``_pack_block`` per sending part *pair* and one
``_land_block`` per receiving part *pair*; its migration relinks with
``rebuild_links``.  The program now pushes every ring from the owners,
packs once per sending part and lands once per receiving part.  Every case
runs both on two copies of one distributed mesh.

Migration and depth-1 ghosting must end with every part identical — every
``MeshCore`` column (live prefix, free-lists included), coordinates,
lookups, classification table, gids and entity keys, ghost homes, links and
tags — and with byte-identical element frames on the wire, read through the
network's ``fault_injector.on_post`` hook.  Only the arrays' spare capacity
may differ: a per-part landing grows them once where the per-pair one grew
them step by step, and nothing reads past a column's live prefix (or an
upward row past its count).

From ring 1 on, the push queues each ring in another order, so its frames
and the ghosts' local numbering differ.  Deeper calls must agree on the
ghost counts, the multiset of shipped ``(sender, receiver, element gid)``
and, per part, every ghost's identity, home and tag values.
"""

from collections import Counter

from typing import Any, Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.mesh import Ent, box_tet, extrude_to_prisms, rect_tri
from repro.mesh.build import land_rows, land_vertices
from repro.mesh.core import VERT_WIDTH, first_occurrence_unique
from repro.parallel import CodecError, PerfCounters
from repro.parallel.codec import (
    EXTRA_HOME,
    EXTRA_TAGS,
    ElementBlock,
    decode_element_block,
    ragged_matrix,
)
from repro.parallel.sf import BUNDLES, StarForest
from repro.partition import distribute, ghost_layer, migrate, migration
from repro.partition.ghosting import Overlap
from repro.partitioners import partition
from repro.workloads import aaa_mesh

# -- the oracle: pull ring 0, per-pair pack and land -----------------------------


def _interner(stream: np.ndarray):
    uniq, first = np.unique(stream, return_index=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], lambda values: rank[np.searchsorted(uniq, values)]


def _opt_refs(ref, values: np.ndarray) -> np.ndarray:
    out = np.zeros(len(values), dtype=np.int64)
    has = values >= 0
    out[has] = ref(values[has]) + 1
    return out


def _owner_column(part, dims, ids):
    """``(owner pids, owner handles)`` of entities, one ``Part.owner`` and
    one ``Part.copies`` read each."""
    pairs = []
    for d, idx in zip(dims, ids):
        ent = Ent(int(d), int(idx))
        owner = part.owner(ent)
        pids, rids = part.copies(ent)
        pairs.append((owner, int(idx) if owner == part.pid
                      else int(rids[pids.tolist().index(owner)])))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T


def _pack_block(
    part, dim, elems, home=False, tags=(), owners=False
) -> ElementBlock:
    """One part pair's closure block, packed alone; ``owners`` adds the
    owner columns of its vertex and intermediate tables (migration)."""
    mesh = part.mesh
    core = mesh.core
    elems = np.asarray(elems, dtype=np.int64)
    n = len(elems)
    ones = np.ones(n, dtype=np.int64)
    streams = migration._closure_streams(core, dim, elems)
    ev_flat, ev_n = streams[0]
    ev_n = ev_n.astype(np.int64)
    vert_ids, vref = _interner(ev_flat)
    vert_class = core.gclass[0][vert_ids].astype(np.int64)
    elem_class = core.gclass[dim][elems].astype(np.int64)
    mid_dims = range(1, dim)
    face_base = core.top[1]
    mid_stream = migration._interleave([
        (streams[d][0] + (face_base if d == 2 else 0), streams[d][1])
        for d in mid_dims
    ]) if mid_dims else np.empty(0, dtype=np.int64)
    b_mcounts = sum((streams[d][1] for d in mid_dims), np.zeros(n, dtype=np.int64))
    mid_codes, mref = _interner(mid_stream)
    mid_dim = 1 + (mid_codes >= face_base)
    mid_ids = mid_codes - face_base * (mid_dim == 2)
    mid_etype = np.zeros(len(mid_ids), dtype=np.int64)
    mid_nverts = np.zeros(len(mid_ids), dtype=np.int64)
    mid_class = np.full(len(mid_ids), -1, dtype=np.int64)
    mid_verts = np.full((len(mid_ids), VERT_WIDTH[max(dim - 1, 1)]), -1, np.int64)
    for d in mid_dims:
        rows = np.nonzero(mid_dim == d)[0]
        ids = mid_ids[rows]
        mid_etype[rows] = core.etype[d][ids]
        mid_nverts[rows] = core.nverts[d][ids]
        mid_class[rows] = core.gclass[d][ids]
        mid_verts[rows, : VERT_WIDTH[d]] = core.verts[d][ids]
    mid_vflat = mid_verts[np.arange(mid_verts.shape[1]) < mid_nverts[:, None]]
    gid0 = part.gid_array(0)
    elem_gid = part.gids_of(dim, elems)
    b_mrefs = mref(mid_stream)
    b_vrefs = vref(ev_flat)
    pool_stream = migration._interleave([
        (gid0[ev_flat], ev_n), (elem_gid, ones),
    ])
    gids, gref = _interner(pool_stream)
    class_stream = migration._interleave([
        (vert_class[b_vrefs], ev_n), (mid_class[b_mrefs], b_mcounts),
        (elem_class, ones),
    ])
    class_table, class_ref = _interner(class_stream[class_stream >= 0])

    def cref(codes):
        return _opt_refs(class_ref, codes)

    present = [name for name in tags if mesh.tags.find(name) is not None]
    extras = (EXTRA_HOME if home else 0) | (EXTRA_TAGS if tags else 0)
    empty = np.empty(0, dtype=np.int64)
    owner_pid = owner_idx = empty
    if owners:
        owner_pid, owner_idx = _owner_column(
            part, np.concatenate((np.zeros(len(vert_ids), np.int64), mid_dim)),
            np.concatenate((vert_ids, mid_ids)),
        )
    return ElementBlock(
        classes=mesh.class_pairs()[class_table],
        gids=gids,
        vert_gref=gref(gid0[vert_ids]),
        vert_cref=cref(vert_class),
        vert_coords=mesh.coords_view()[vert_ids],
        mid_dim=mid_dim,
        mid_etype=mid_etype,
        mid_cref=cref(mid_class),
        mid_nverts=mid_nverts,
        mid_vrefs=gref(gid0[mid_vflat]),
        b_vcounts=ev_n,
        b_vrefs=b_vrefs,
        b_mcounts=b_mcounts,
        b_mrefs=b_mrefs,
        e_dim=np.full(n, dim, dtype=np.int64),
        e_etype=core.etype[dim][elems].astype(np.int64),
        e_gref=gref(elem_gid),
        e_cref=cref(elem_class),
        e_nverts=ev_n,
        e_vrefs=gref(gid0[ev_flat]),
        extras=np.full(n, extras, dtype=np.int64),
        home_pid=np.full(n, part.pid, dtype=np.int64) if home else empty,
        home_idx=elems if home else empty,
        tags=[
            {name: mesh.tag(name).get(Ent(dim, idx)) for name in present}
            for idx in elems.tolist()
        ] if tags else [],
        owner_pid=owner_pid,
        owner_idx=owner_idx,
    )


def _land_block(part, block, keep=None):
    """One part pair's block, landed alone."""
    mesh = part.mesh
    n = len(block)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    created = [np.empty(0, dtype=np.int64) for _ in range(4)]
    if not keep.any():
        return np.empty(0, dtype=np.int64), created
    dim = int(np.unique(block.e_dim[keep])[0])
    codes = np.concatenate(([-1], mesh.class_codes(block.classes)))
    pool = block.gids
    vrows = first_occurrence_unique(
        block.b_vrefs[np.repeat(keep, block.b_vcounts)]
    )
    vgids = pool[block.vert_gref[vrows]]
    by_gid = part._by_gid[0]
    local = np.fromiter(
        (by_gid.get(g, -1) for g in vgids.tolist()), dtype=np.int64,
        count=len(vgids),
    )
    new = local < 0
    created[0] = land_vertices(
        mesh, block.vert_coords[vrows[new]], codes[block.vert_cref[vrows[new]]]
    ).astype(np.int64)
    part.set_gids(0, created[0], vgids[new])
    local[new] = created[0]
    vert_of = np.full(len(pool), -1, dtype=np.int64)
    vert_of[block.vert_gref[vrows]] = local

    def local_verts(vref_mat):
        used = vref_mat >= 0
        return np.where(used, vert_of[vref_mat], 0)

    mrows = np.unique(block.b_mrefs[np.repeat(keep, block.b_mcounts)])
    if len(mrows):
        vref_mat = ragged_matrix(block.mid_vrefs, block.mid_nverts, -1)[mrows]
        gid_mat = np.where(vref_mat >= 0, pool[vref_mat], -1)
        order = np.lexsort(
            tuple(gid_mat[:, k] for k in range(gid_mat.shape[1] - 1, -1, -1))
            + (block.mid_dim[mrows],)
        )
        mrows = mrows[order]
        mid_verts = local_verts(vref_mat[order])
        for d in range(1, dim):
            rows = np.nonzero(block.mid_dim[mrows] == d)[0]
            if not len(rows):
                continue
            sel = mrows[rows]
            ids, fresh = land_rows(
                mesh, d, block.mid_etype[sel], mid_verts[rows],
                codes[block.mid_cref[sel]],
            )
            created[d] = ids[fresh]
    elem_verts = local_verts(
        ragged_matrix(block.e_vrefs, block.e_nverts, -1)[keep]
    )
    ids, fresh = land_rows(
        mesh, dim, block.e_etype[keep], elem_verts, codes[block.e_cref[keep]]
    )
    part.set_gids(dim, ids, pool[block.e_gref[keep]])
    created[dim] = ids[fresh]
    return ids, created


def _land_ghost_block(part, block, per_dim) -> List[Ent]:
    dim = int(block.e_dim[0])
    held = part._by_gid[dim]
    keep = np.fromiter(
        (gid not in held for gid in block.gids[block.e_gref].tolist()),
        dtype=bool, count=len(block),
    )
    if not keep.any():
        return []
    ids, created = _land_block(part, block, keep)
    home_pid = block.home_pid[keep]
    for d in range(4):
        per_dim[d] += len(created[d])
        if d != dim:
            part.add_ghosts(d, created[d], home_pid[0], -1)
    fresh = np.isin(ids, created[dim])
    part.add_ghosts(dim, ids[fresh], home_pid[fresh], block.home_idx[keep][fresh])
    if block.tags:
        tags = [t for t, kept in zip(block.tags, keep.tolist()) if kept]
        for idx, values in zip(ids.tolist(), tags):
            for name, value in values.items():
                if value is not None:
                    part.mesh.tag(name).set(Ent(dim, idx), value)
    return [Ent(dim, idx) for idx in ids.tolist()]


def _queue_adjacent(part, ent, dim, requester, have, queues, seen) -> None:
    key = (part.pid, requester)
    bucket = seen.setdefault(key, set())
    queue = queues.setdefault(key, [])
    for element in part.mesh.adjacent(ent, dim):
        if part.is_ghost(element) or element in bucket:
            continue
        bucket.add(element)
        if part.gid(element) in have:
            continue
        queue.append(element)


def _ring_forest(dmesh, bdim, ring, prev_new) -> StarForest:
    dim = dmesh.element_dim()
    router = dmesh.router()
    first = ring == 0
    if first:
        for part in dmesh:
            _ids, pids, rids = part.links(bdim)
            for dest, rid in zip(pids.tolist(), rids.tolist()):
                router.post(part.pid, dest, 10, ("bridge", Ent(bdim, rid), ()))
    else:
        for part in dmesh:
            front: Set[Ent] = set()
            for element in prev_new.get(part.pid, []):
                front.update(part.mesh.adjacent(element, bdim))
            for b in sorted(front):
                have = tuple(sorted(
                    part.gid(e) for e in part.mesh.adjacent(b, dim)
                ))
                if part.is_ghost(b):
                    router.post(
                        part.pid, part.owner(b), 10,
                        ("front", part.entity_key(b), have),
                    )
                    continue
                pids, rids = part.copies(b)
                for dest, rid in zip(pids.tolist(), rids.tolist()):
                    router.post(
                        part.pid, dest, 10, ("bridge", Ent(bdim, rid), have)
                    )
    requests = router.exchange()
    queues: Dict[Tuple[int, int], List[Ent]] = {}
    seen: Dict[Tuple[int, int], Set[Ent]] = {}
    if not first:
        router = dmesh.router()
    for pid in sorted(requests):
        part = dmesh.part(pid)
        for src, _tag, (kind, ref, have) in requests[pid]:
            if kind == "bridge":
                ent = ref
                if not part.mesh.has(ent):
                    continue
            else:
                ent = part.by_key(bdim, ref)
                if ent is None:
                    continue
                pids, rids = part.copies(ent)
                for q_pid, rid in zip(pids.tolist(), rids.tolist()):
                    if q_pid != src:
                        router.post(
                            part.pid, q_pid, 12,
                            ("refer", Ent(bdim, rid), src, have),
                        )
            _queue_adjacent(part, ent, dim, src, frozenset(have), queues, seen)
    if not first:
        referrals = router.exchange()
        for pid in sorted(referrals):
            part = dmesh.part(pid)
            for _src, _tag, (_kind, ent, requester, have) in referrals[pid]:
                if not part.mesh.has(ent) or part.is_ghost(ent):
                    continue
                _queue_adjacent(
                    part, ent, dim, requester, frozenset(have), queues, seen
                )
    forest = StarForest(dmesh, name=f"ghost.ring{ring}")
    for (owner, requester) in sorted(queues):
        for ordinal, element in enumerate(queues[(owner, requester)]):
            forest.add_leaf(requester, (owner, ordinal), owner, element)
    return forest


def oracle_ghost_layer(dmesh, depth=1, bridge_dim=0, tags=()) -> Tuple[int, List[int]]:
    dim = dmesh.element_dim()
    per_dim = [0, 0, 0, 0]
    total = 0
    prev_new: Dict[int, List[Ent]] = {}
    for ring in range(depth):
        forest = _ring_forest(dmesh, bridge_dim, ring, prev_new)
        prev_new = {}

        def pack(owner, _requester, elements):
            return _pack_block(
                dmesh.part(owner), dim,
                np.fromiter((e.idx for e in elements), np.int64, len(elements)),
                home=True, tags=tags,
            )

        def land(requester, _owner, block):
            nonlocal total
            fresh = _land_ghost_block(dmesh.part(requester), block, per_dim)
            total += len(fresh)
            prev_new.setdefault(requester, []).extend(fresh)

        forest.bcast(batch_data=pack, batch_set=land, datatype=BUNDLES)
    return total, per_dim


def oracle_migrate(dmesh, plan) -> Tuple[int, List[int]]:
    dim = dmesh.element_dim()
    moved = 0
    packed = [0, 0, 0, 0]
    blocks = {}
    removals = {}
    forest = StarForest(dmesh, name="migrate")
    for pid in sorted(plan):
        part = dmesh.part(pid)
        queues: Dict[int, List[int]] = {}
        leaving = []
        for element in sorted(plan[pid]):
            dest = plan[pid][element]
            if dest == pid:
                continue
            queue = queues.setdefault(dest, [])
            forest.add_leaf(dest, (pid, len(queue)), pid, element)
            queue.append(element.idx)
            leaving.append(element.idx)
        for dest, queue in queues.items():
            block = _pack_block(part, dim, np.asarray(queue), owners=True)
            blocks[(pid, dest)] = block
            packed[0] += int(block.b_vcounts.sum())
            mids = np.bincount(block.mid_dim[block.b_mrefs], minlength=4)
            for d in range(1, dim):
                packed[d] += int(mids[d])
            packed[dim] += len(queue)
        if leaving:
            removals[pid] = np.asarray(leaving)
            moved += len(leaving)
    forest.bcast(
        batch_data=lambda rpid, lpid, _e: blocks[(rpid, lpid)],
        batch_set=lambda lpid, _rpid, block: _land_block(dmesh.part(lpid), block),
        datatype=BUNDLES,
    )
    for pid, leaving in removals.items():
        migration._remove_elements(dmesh.part(pid), dim, leaving)
    migration.rebuild_links(dmesh)
    return moved, packed


# -- harness ---------------------------------------------------------------------


class ElementTap:
    """Records the element frames a call posts, through ``on_post``."""

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        #: ``(sender, receiver, element gid)`` of every bundle posted.
        self.shipped: List[Tuple[int, int, int]] = []

    def on_post(self, src: int, dst: int, tag: int, payload: Any):
        for _tag, item in payload if isinstance(payload, list) else ():
            if isinstance(item, (bytes, bytearray)):
                try:
                    block = decode_element_block(item)
                except CodecError:
                    continue
                self.frames.append(bytes(item))
                self.shipped.extend(
                    (src, dst, gid)
                    for gid in block.gids[block.e_gref].tolist()
                )
        return [(src, dst, tag, payload)]

    def on_exchange(self):
        return []

    def end_superstep(self) -> None:
        pass


def tapped(dmesh, fn, *args, **kwargs):
    result, tap = tapped_all(dmesh, fn, *args, **kwargs)
    return result, tap.frames


def tapped_all(dmesh, fn, *args, **kwargs):
    tap = ElementTap()
    dmesh.fault_injector = tap
    try:
        result = fn(dmesh, *args, **kwargs)
    finally:
        dmesh.fault_injector = None
    return result, tap


def part_state(part) -> Dict[str, Any]:
    """Everything a landing writes on one part, as plain Python."""
    mesh = part.mesh
    core = mesh.core
    state: Dict[str, Any] = {
        "top": list(core.top),
        "n_alive": list(core.n_alive),
        "free": [list(free) for free in core.free],
        "coords": mesh.coords_view().tolist(),
        "lookup": [dict(lookup) for lookup in mesh._lookup],
        "classes": mesh.class_pairs().tolist(),
        "tags": {
            name: sorted(tag._data.items())
            for name, tag in mesh.tags._tags.items()
        },
    }
    for d in range(4):
        top = core.top[d]
        for name in ("etype", "alive", "nverts", "verts", "ndown", "down",
                     "nup", "gclass"):
            state[f"{name}{d}"] = getattr(core, name)[d][:top].tolist()
        state[f"up{d}"] = [
            row[:count].tolist()
            for row, count in zip(core.up[d][:top], core.nup[d][:top])
        ]
        state[f"gid{d}"] = part.gid_array(d)[:top].tolist()
        state[f"by_gid{d}"] = sorted(part._by_gid[d].items())
        state[f"key{d}"] = part.entity_keys(d, core.live_ids(d)).tolist()
        state[f"links{d}"] = [col.tolist() for col in part.links(d)]
        ghosts = part.ghost_ids(d)
        state[f"ghosts{d}"] = [ghosts.tolist()] + part.homes(d, ghosts).tolist()
    return state


def ghost_state(part, top: int) -> Dict[str, Any]:
    """What ghosting leaves on one part, independent of local numbering:
    the live counts and, per dimension, every ghost's identity (the gid of
    a vertex or element, the key of an edge or face) with its home and its
    tag values."""
    mesh = part.mesh
    state: Dict[str, Any] = {"n_alive": list(mesh.core.n_alive)}
    for d in range(top + 1):
        ids = part.ghost_ids(d)
        if d in (0, top):
            identity = part.gids_of(d, ids).tolist()
        else:
            identity = list(map(tuple, part.entity_keys(d, ids).tolist()))
        state[f"ghosts{d}"] = sorted(
            (ident, *home, sorted(
                (name, repr(tag.get(Ent(d, idx))))
                for name, tag in mesh.tags._tags.items()
                if tag.has(Ent(d, idx))
            ))
            for ident, idx, home in zip(
                identity, ids.tolist(), part.homes(d, ids).T.tolist()
            )
        )
    return state


def assert_same_parts(got, want) -> None:
    for part, oracle in zip(got, want):
        mine, theirs = part_state(part), part_state(oracle)
        for key in theirs:
            assert mine[key] == theirs[key], f"part {part.pid}: {key} differs"


MESHES = {
    "rect_tri": lambda: rect_tri(6),
    "box_tet": lambda: box_tet(3),
    "aaa": lambda: aaa_mesh(n=2, seed=0),
    # Mixed faces: triangles and quads, so bundles list ragged closures.
    "prism": lambda: extrude_to_prisms(rect_tri(4), 2, 0.5),
}
_CACHE: Dict[str, Any] = {}


def twins(kind: str, nparts: int):
    """Two identical distributions of one mesh: one per implementation."""
    if kind not in _CACHE:
        _CACHE[kind] = MESHES[kind]()
    mesh = _CACHE[kind]
    assignment = partition(mesh, nparts, "rcb")
    return tuple(
        distribute(mesh, assignment, nparts=nparts, counters=PerfCounters())
        for _ in range(2)
    )


def check_ghosts(got, want, **kwargs) -> None:
    depth = kwargs.get("depth", 1)
    stats, tap = tapped_all(got, ghost_layer, overlap=Overlap(
        depth=depth, bridge_dim=kwargs.get("bridge_dim", 0)
    ), tags=kwargs.get("tags", ()))
    (total, per_dim), oracle = tapped_all(want, oracle_ghost_layer, **kwargs)
    assert stats.ghosts_created == total
    assert list(stats.per_dimension) == per_dim
    assert tap.frames
    if depth == 1:
        assert tap.frames == oracle.frames
        assert_same_parts(got, want)
        return
    assert Counter(tap.shipped) == Counter(oracle.shipped)
    top = got.element_dim()
    for part, oracle_part in zip(got, want):
        assert ghost_state(part, top) == ghost_state(oracle_part, top), (
            f"part {part.pid}: ghosts differ"
        )


# -- cases -----------------------------------------------------------------------


@pytest.mark.parametrize("nparts", (2, 4, 8))
@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("depth", (1, 2))
@pytest.mark.parametrize("bridge_dim", (0, 1, 2))
def test_ghost_layer_equals_the_pull_oracle(kind, nparts, depth, bridge_dim):
    got, want = twins(kind, nparts)
    if bridge_dim >= got.element_dim():
        pytest.skip("no such bridge below the element dimension")
    check_ghosts(got, want, depth=depth, bridge_dim=bridge_dim)
    got.verify()


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_each_ghost_is_shipped_once(kind, depth):
    """On a clean call, the element bundles on the wire are exactly the
    ghosts created: no ring ships an element twice, or one the receiver
    holds."""
    dm, _twin = twins(kind, 4)
    stats, tap = tapped_all(dm, ghost_layer, depth=depth)
    assert len(tap.shipped) == stats.ghosts_created > 0
    assert len(set(tap.shipped)) == len(tap.shipped)


@pytest.mark.parametrize("kind", ("rect_tri", "box_tet"))
def test_tags_travel_the_same(kind):
    got, want = twins(kind, 4)
    dim = got.element_dim()
    for dm in (got, want):
        for part in dm:
            tag = part.mesh.tag("w")
            for idx in part.mesh.entity_ids(dim).tolist()[::3]:
                tag.set(Ent(dim, idx), {"gid": part.gid(Ent(dim, idx))})
    check_ghosts(got, want, depth=2, tags=("w", "absent"))


@pytest.mark.parametrize("kind", ("rect_tri", "box_tet", "aaa", "prism"))
def test_repeat_depth_one_on_a_ghosted_mesh(kind):
    got, want = twins(kind, 4)
    check_ghosts(got, want, depth=1)
    # Every bundle of the second call is an element the part already holds.
    check_ghosts(got, want, depth=1)


@pytest.mark.parametrize("kind", ("rect_tri", "box_tet", "aaa", "prism"))
def test_migrate_from_three_sources_into_holes(kind):
    got, want = twins(kind, 4)
    dim = got.element_dim()
    # Part 0 gives away every fourth element: its slots go on free-lists.
    ids = got.part(0).mesh.entity_ids(dim).tolist()
    plans = [{0: {Ent(dim, idx): 1 for idx in ids[::4]}}]
    # Then parts 1, 2 and 3 all send into part 0.
    plans.append({
        pid: {
            Ent(dim, idx): 0
            for idx in got.part(pid).mesh.entity_ids(dim).tolist()[::5]
        }
        for pid in (1, 2, 3)
    })
    for plan in plans:
        holes = list(got.part(0).mesh.core.free[dim])
        stats, frames = tapped(got, migrate, plan)
        (moved, packed), oracle_frames = tapped(want, oracle_migrate, plan)
        assert stats.elements_moved == moved
        assert list(stats.per_dimension) == packed
        assert frames == oracle_frames and frames
        assert_same_parts(got, want)
    assert len(holes) > 0 and len(plans[1]) == 3
    # The arrivals filled part 0's element holes first.
    assert got.part(0).mesh.core.free[dim] == []
    got.verify()


@pytest.mark.parametrize("nparts", (2, 8))
def test_migrate_then_ghost_equals_the_oracle(nparts):
    got, want = twins("aaa", nparts)
    dim = got.element_dim()
    plan = {}
    for part in got:
        ids = part.mesh.entity_ids(dim).tolist()
        plan[part.pid] = {
            Ent(dim, idx): (part.pid + 1 + k % 2) % nparts
            for k, idx in enumerate(ids[: len(ids) // 6])
        }
    tapped(got, migrate, plan)
    tapped(want, oracle_migrate, plan)
    assert_same_parts(got, want)
    check_ghosts(got, want, depth=2, bridge_dim=1)
