"""Mesh migration: moving elements between parts.

"Mesh migration: a procedure that moves mesh entities from part to part to
support (i) mesh distribution to parts, (ii) mesh load balancing, or (iii)
obtaining mesh entities needed for mesh modification operations" (paper,
Section II-C).  ParMA's diffusion is implemented entirely on top of this
operation.

:func:`migrate` executes a migration plan in four bulk-synchronous phases:

1. **pack** — each source part gathers, per destination, the downward
   closure of the elements bound there straight from its core arrays into
   one :class:`~repro.parallel.codec.ElementBlock` (:func:`_pack_block`:
   vertex coordinates, intermediate entities and elements as columns, with
   global ids, types and geometric classification interned once per
   block), and registers each destination as a leaf of a
   :class:`~repro.parallel.sf.StarForest` rooted at the element;
2. **unpack** — one forest ``bcast`` ships one block per part pair and each
   destination lands it with the bulk kernel (:func:`_land_block` →
   :func:`~repro.mesh.build.land_rows`), matching vertices by global id and
   higher entities by local vertices, so entities arriving from several
   sources (or already present on the part boundary) are created exactly
   once;
3. **remove** — each source destroys its moved elements and the boundary
   entities left bounding nothing in one closure sweep
   (:func:`_remove_elements` → ``Mesh.destroy_block`` per dimension; their
   copies may live on, on other parts);
4. **relink** — remote-copy links are repaired *by delta*: only entities in
   the closure of a moved element can gain or lose a copy, so only they are
   posted — by the parts that sent or received them — through a two-superstep
   hash-home rendezvous, array-native end to end.

No phase calls ``Mesh.create``/``Mesh.destroy`` per entity; ghosting ships
and lands its copies through the same two functions.

The relink protocol
-------------------

*Candidates.*  A source part, after landing and before removal (keys need
the vertex gids of entities about to die, and the destroy listener evicts
their links): the unique closure of its leaving elements per dimension, each
entity's key (sorted vertex gids, :meth:`Part.entity_keys`) and the link
rows it has.  A destination part: the closure of the elements
it landed (:func:`_capture_candidates`).

*Surface filter.*  A copy can only be shared if it lies on its part's
topological surface after the move
(:func:`~repro.partition.links.surface_masks`).  Live candidates that ended
up interior post nothing and lose their links (:func:`_delta_post`).

*Rows.*  To the key's home ``sum(key) % nparts``: a live surface candidate
posts "I hold ``key`` at ``idx``"; a destroyed candidate that had copies
posts a *tombstone*; and a source's rows carry the copies it knew inline as
*proxies* — "``q`` holds ``key`` at ``j``" — which is how a third party (a
part sharing the entity that neither sent nor received around it) gets its
answer without scanning or posting anything.  A tombstone cancels a stale
proxy: the third party destroyed its copy in the same call (land precedes
remove, so a handle is never recycled inside one ``migrate``).

*Home, answers, apply.*  Each home concatenates the rows it received, runs
one ``lexsort`` by ``(dim, key, part, alive)``, drops tombstoned parts,
dedupes copies named twice and answers every holder of a key left with two
or more holders with the list of the others
(:func:`~repro.partition.links.link_answers`); an answered entity's link
rows are replaced.  Posting parts drop, in the same merge, the rows of their
own live candidates no answer came for, so an entity nobody else holds any
more ends unshared.

*Why it is complete.*  A holder set changes only when some part creates a
copy (only by landing) or destroys one (only by removal), so every entity
whose holders change is in the closure of a moved element.  Its source held
it before and, links being symmetric, knew every old holder; every new
holder is a destination and posts itself; a third party always ends with at
least one co-holder (the destination), so only posting parts ever need the
"now unshared" outcome.

:func:`rebuild_links` is the same rendezvous fed every surface entity of
every part, all rows alive, no proxies, links wiped first — for callers with
no plan to take a delta from (loaders, distributed adaptation) and as the
oracle the delta is tested against (``tests/partition/test_relink_delta.py``).
``migrate`` itself falls back to it when one call moves at least
:data:`_REBUILD_SHARE` of the mesh's elements: an incremental update cannot
beat a rebuild when (nearly) everything moves, because every shared entity
then costs a tombstone and proxies on top of the row a rebuild would post
for it anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.build import land_rows, land_vertices
from ..mesh.core import VERT_WIDTH, first_occurrence_unique
from ..mesh.entity import Ent
from ..obs.stats import CommProbe, MigrateStats
from ..obs.tracer import trace_span
from ..parallel.codec import (
    EXTRA_HOME,
    EXTRA_TAGS,
    ElementBlock,
    decode_int_rows,
    encode_int_rows,
    ragged_matrix,
)
from ..parallel.sf import BUNDLES, StarForest
from .dmesh import DistributedMesh
from .links import (
    answer_columns,
    link_answers,
    ragged_arange,
    split_rows,
    surface_ids,
    surface_masks,
)
from .part import Part

#: A migration plan: for each source part, the elements it sends away.
MigrationPlan = Dict[int, Dict[Ent, int]]

_TAG_CANDIDATE = 2
_TAG_LINKS = 3

#: ``migrate`` relinks by delta while one call moves less than this share of
#: the mesh's elements, and by :func:`rebuild_links` from there on: when
#: (nearly) every element moves, every shared entity costs a tombstone and
#: proxies on top of the row a rebuild would post for it anyway.
_REBUILD_SHARE = 0.5


def migrate(dmesh: DistributedMesh, plan: MigrationPlan) -> MigrateStats:
    """Execute a migration plan; returns a :class:`MigrateStats` record.

    Requirements: no ghosts anywhere (delete them first — ghost copies do
    not survive repartitioning), every planned element alive and of the
    mesh's element dimension.

    The stats carry the elements moved (``stats.elements_moved``), the
    closure entities packed per dimension, and the communication cost of
    the whole operation (pack/send, unpack, remove, relink) measured from
    the mesh's counter registry.
    """
    for part in dmesh:
        if part.has_ghosts():
            raise ValueError(
                f"part {part.pid} has ghosts; delete ghosts before migrating"
            )
    probe = CommProbe(dmesh.counters)
    tracer = dmesh.tracer
    dim = dmesh.element_dim()
    total = sum(part.mesh.count(dim) for part in dmesh)
    moved = 0
    packed = [0, 0, 0, 0]

    with trace_span(tracer, "migrate"):
        blocks: Dict[Tuple[int, int], ElementBlock] = {}
        removals: Dict[int, np.ndarray] = {}
        forest = StarForest(dmesh, name="migrate")
        with trace_span(tracer, "migrate.pack"):
            # Leaf handles are per-(source, dest) ordinals minted in sorted
            # element order, which pins the exact bundle layout of each
            # pair's block (tables intern by first use).
            for pid in sorted(plan):
                part = dmesh.part(pid)
                queues: Dict[int, List[int]] = {}
                leaving: List[int] = []
                for element in sorted(plan[pid]):
                    dest = plan[pid][element]
                    if dest == pid:
                        continue
                    if not 0 <= dest < dmesh.nparts:
                        raise ValueError(
                            f"migration destination {dest} out of range"
                        )
                    if element.dim != dim or not part.mesh.has(element):
                        raise ValueError(
                            f"part {pid}: {element} is not a live element"
                        )
                    queue = queues.setdefault(dest, [])
                    forest.add_leaf(dest, (pid, len(queue)), pid, element)
                    queue.append(element.idx)
                    leaving.append(element.idx)
                for dest, queue in queues.items():
                    block = _pack_block(part, dim, np.asarray(queue))
                    blocks[(pid, dest)] = block
                    packed[0] += int(block.b_vcounts.sum())
                    mids = np.bincount(block.mid_dim[block.b_mrefs], minlength=4)
                    for d in range(1, dim):
                        packed[d] += int(mids[d])
                    packed[dim] += len(queue)
                if leaving:
                    removals[pid] = np.asarray(leaving)
                    moved += len(leaving)

        landed: Dict[int, List[np.ndarray]] = {}

        def land(lpid: int, _rpid: int, block: ElementBlock) -> None:
            ids, _created = _land_block(dmesh.part(lpid), block)
            landed.setdefault(lpid, []).append(ids)

        with trace_span(tracer, "migrate.unpack"):
            forest.bcast(
                batch_data=lambda rpid, lpid, _elements: blocks[(rpid, lpid)],
                batch_set=land,
                datatype=BUNDLES,
            )

        # Relink by delta unless the call moves so much of the mesh that
        # tombstones and proxies would outweigh a from-scratch rebuild.
        by_delta = moved < _REBUILD_SHARE * total
        streams: Dict[int, Streams] = {}
        captured: Dict[int, Captured] = {}
        if by_delta:
            with trace_span(tracer, "migrate.relink"):
                for pid in sorted(set(removals) | set(landed)):
                    part = dmesh.part(pid)
                    if pid in removals:
                        streams[pid] = _closure_streams(
                            part.mesh.core, dim, removals[pid]
                        )
                    captured[pid] = _capture_candidates(
                        part, dim, streams.get(pid),
                        np.concatenate(landed.get(pid, [_NONE])),
                    )

        with trace_span(tracer, "migrate.remove"):
            for pid, leaving in removals.items():
                _remove_elements(
                    dmesh.part(pid), dim, leaving, streams.get(pid)
                )

        with trace_span(tracer, "migrate.relink"):
            if by_delta:
                _rendezvous(dmesh, {
                    pid: _delta_post(dmesh.part(pid), rows, dmesh.nparts)
                    for pid, rows in captured.items()
                })
            else:
                rebuild_links(dmesh)
    dmesh.counters.add("migration.elements", moved)
    return MigrateStats(
        elements_moved=moved,
        per_dimension=tuple(packed),
        sf_ops=1,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def _row_unique_stable(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise first-occurrence dedupe of a padded id matrix (-1 = pad).

    Returns the surviving ids flattened row-major plus the count per row.
    """
    order = np.argsort(mat, axis=1, kind="stable")
    srt = np.take_along_axis(mat, order, axis=1)
    dup_sorted = np.zeros(mat.shape, dtype=bool)
    dup_sorted[:, 1:] = srt[:, 1:] == srt[:, :-1]
    dup = np.empty(mat.shape, dtype=bool)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    keep = ~dup & (mat >= 0)
    return mat[keep], keep.sum(axis=1)


#: ``{d: (flat ids, count per element)}``, see :func:`_closure_streams`.
Streams = Dict[int, Tuple[np.ndarray, np.ndarray]]


def _closure_streams(core, dim: int, elems: np.ndarray) -> Streams:
    """Downward closure of ``elems`` per dimension below ``dim``.

    ``{d: (flat ids, count per element)}`` with each element's entities in
    ``Mesh.adjacent(element, d)`` order: canonical vertices, the one-level
    downward row, and (edges of a region) the faces' edges deduplicated by
    first occurrence.
    """
    streams = {0: (core.gather_verts(dim, elems), core.nverts[dim][elems])}
    if dim >= 2:
        streams[dim - 1] = (core.gather_down(dim, elems), core.ndown[dim][elems])
    if dim == 3:
        faces = core.down[3][elems]
        face_ok = np.arange(faces.shape[1]) < core.ndown[3][elems][:, None]
        edges = core.down[2][faces].astype(np.int64)
        edge_ok = np.arange(edges.shape[2]) < core.ndown[2][faces][:, :, None]
        edges[~(edge_ok & face_ok[:, :, None])] = -1
        streams[1] = _row_unique_stable(edges.reshape(len(elems), -1))
    return streams


def _interleave(pieces: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Row-wise concatenation of ragged ``(flat, counts)`` columns: row 0 of
    every piece in turn, then row 1 of every piece, ..."""
    total = sum(counts for _flat, counts in pieces)
    offset = np.cumsum(total) - total
    out = np.empty(int(total.sum()), dtype=np.int64)
    for flat, counts in pieces:
        out[ragged_arange(offset, counts)] = flat
        offset = offset + counts
    return out


def _interner(stream: np.ndarray):
    """First-seen-order interning of an int stream.

    Returns ``(table, refs)``: the distinct values in order of first
    occurrence and a function mapping values (all present in the stream) to
    their table positions.
    """
    uniq, first = np.unique(stream, return_index=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], lambda values: rank[np.searchsorted(uniq, values)]


def _opt_refs(ref, values: np.ndarray) -> np.ndarray:
    """1-based refs of ``values`` (0 where the value is -1 = absent)."""
    out = np.zeros(len(values), dtype=np.int64)
    has = values >= 0
    out[has] = ref(values[has]) + 1
    return out


def _pack_block(
    part: Part,
    dim: int,
    elems: np.ndarray,
    home: bool = False,
    tags: Sequence[str] = (),
) -> ElementBlock:
    """Closure block of dim-``dim`` elements ``elems`` of ``part``.

    Self-contained for reconstruction: vertices with coordinates,
    intermediate entities and the elements, all with global ids, types and
    classification.  Built from core gathers; tables intern in first-seen
    order of the bundle-by-bundle traversal (vertices, intermediates,
    element), which is the canonical layout of
    :func:`repro.parallel.codec.block_from_bundles`.  ``home`` stamps every
    bundle with this part and the element's handle (ghost copies); ``tags``
    names element tags whose values ride along.
    """
    mesh = part.mesh
    core = mesh.core
    elems = np.asarray(elems, dtype=np.int64)
    n = len(elems)
    ones = np.ones(n, dtype=np.int64)
    streams = _closure_streams(core, dim, elems)

    ev_flat, ev_n = streams[0]
    ev_n = ev_n.astype(np.int64)
    vert_ids, vref = _interner(ev_flat)
    # Classification codes are the mesh's column codes (-1 = none).
    vert_class = core.gclass[0][vert_ids].astype(np.int64)
    elem_class = core.gclass[dim][elems].astype(np.int64)

    # Intermediates share one table: edges coded by id, faces after them.
    mid_dims = range(1, dim)
    face_base = core.top[1]
    mid_stream = _interleave([
        (streams[d][0] + (face_base if d == 2 else 0), streams[d][1])
        for d in mid_dims
    ]) if mid_dims else np.empty(0, dtype=np.int64)
    b_mcounts = sum((streams[d][1] for d in mid_dims), np.zeros(n, dtype=np.int64))
    mid_codes, mref = _interner(mid_stream)
    mid_dim = 1 + (mid_codes >= face_base)
    mid_ids = mid_codes - face_base * (mid_dim == 2)
    mid_etype = np.zeros(len(mid_ids), dtype=np.int64)
    mid_nverts = np.zeros(len(mid_ids), dtype=np.int64)
    mid_gid = np.full(len(mid_ids), -1, dtype=np.int64)
    mid_class = np.full(len(mid_ids), -1, dtype=np.int64)
    mid_verts = np.full((len(mid_ids), VERT_WIDTH[max(dim - 1, 1)]), -1, np.int64)
    for d in mid_dims:
        rows = np.nonzero(mid_dim == d)[0]
        ids = mid_ids[rows]
        mid_etype[rows] = core.etype[d][ids]
        mid_nverts[rows] = core.nverts[d][ids]
        mid_gid[rows] = part.gids_of(d, ids)
        mid_class[rows] = core.gclass[d][ids]
        mid_verts[rows, : VERT_WIDTH[d]] = core.verts[d][ids]
    mid_vflat = mid_verts[np.arange(mid_verts.shape[1]) < mid_nverts[:, None]]

    gid0 = part.gid_array(0)
    elem_gid = part.gids_of(dim, elems)
    if (gid0[vert_ids] < 0).any() or (elem_gid < 0).any():
        raise KeyError(f"part {part.pid}: packed entity has no global id")
    b_mrefs = mref(mid_stream)
    b_vrefs = vref(ev_flat)
    pool_stream = _interleave([
        (gid0[ev_flat], ev_n), (mid_gid[b_mrefs], b_mcounts), (elem_gid, ones),
    ])
    gids, gref = _interner(pool_stream[pool_stream >= 0])
    class_stream = _interleave([
        (vert_class[b_vrefs], ev_n), (mid_class[b_mrefs], b_mcounts),
        (elem_class, ones),
    ])
    class_table, class_ref = _interner(class_stream[class_stream >= 0])

    def cref(codes: np.ndarray) -> np.ndarray:
        return _opt_refs(class_ref, codes)

    present = [name for name in tags if mesh.tags.find(name) is not None]
    extras = (EXTRA_HOME if home else 0) | (EXTRA_TAGS if tags else 0)
    empty = np.empty(0, dtype=np.int64)
    return ElementBlock(
        classes=mesh.class_pairs()[class_table],
        gids=gids,
        vert_gref=gref(gid0[vert_ids]),
        vert_cref=cref(vert_class),
        vert_coords=mesh.coords_view()[vert_ids],
        mid_dim=mid_dim,
        mid_gref=_opt_refs(gref, mid_gid),
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
    )


def _land_block(
    part: Part, block: ElementBlock, keep: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Find-or-create the closures of one received block on ``part``.

    Vertices match by global id, higher entities by their local vertices,
    so entities arriving from several sources (or already present on the
    part boundary) are created exactly once.  Creation order: vertices in
    first-seen order, intermediates sorted by ``(dim, vertex-gid tuple)``,
    elements in bundle order — each dimension one
    :func:`~repro.mesh.build.land_rows` call.  ``keep`` (a boolean mask
    over bundles) lands only those bundles and their closures.

    Returns the local element ids (kept bundles, bundle order) and the ids
    this call created, per dimension.
    """
    mesh = part.mesh
    n = len(block)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    created: List[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(4)]
    if not keep.any():
        return np.empty(0, dtype=np.int64), created
    dims = np.unique(block.e_dim[keep])
    if len(dims) != 1:
        raise ValueError("an element block must hold elements of one dimension")
    dim = int(dims[0])
    # Block class refs (1-based, 0 = none) -> this mesh's column codes.
    codes = np.concatenate(([-1], mesh.class_codes(block.classes)))
    pool = block.gids

    # Vertices, in first-seen order over the kept bundles.
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

    def local_verts(vref_mat: np.ndarray) -> np.ndarray:
        """Local vertex ids of a padded (-1) matrix of gid-pool refs."""
        used = vref_mat >= 0
        verts = np.where(used, vert_of[vref_mat], 0)
        if (verts[used] < 0).any():
            raise ValueError("element block row names a vertex it does not ship")
        return verts

    # Intermediates, sorted by (dim, vertex-gid tuple).
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
            gref = block.mid_gref[sel]
            part.set_gids(d, ids, np.where(gref > 0, pool[gref - 1], -1))
            created[d] = ids[fresh]

    # Elements, in bundle order.
    elem_verts = local_verts(
        ragged_matrix(block.e_vrefs, block.e_nverts, -1)[keep]
    )
    ids, fresh = land_rows(
        mesh, dim, block.e_etype[keep], elem_verts, codes[block.e_cref[keep]]
    )
    part.set_gids(dim, ids, pool[block.e_gref[keep]])
    created[dim] = ids[fresh]
    return ids, created


def _remove_elements(
    part: Part, dim: int, elems: np.ndarray, streams: Optional[Streams] = None
) -> None:
    """Destroy dim-``dim`` elements and the boundary entities left unused.

    One closure sweep: the elements go in the order given, then each lower
    dimension loses the closure entities that bound nothing any more, in
    the order a per-element sweep would have reached them (an entity dies
    with the last removed element that holds it) — so the free-lists end
    up exactly as the scalar loop left them.  Part bookkeeping is evicted
    by the destroy listener.  ``streams`` is the elements'
    :func:`_closure_streams`, when the caller already has it.
    """
    mesh = part.mesh
    core = mesh.core
    elems = np.asarray(elems, dtype=np.int64)
    if not len(elems):
        return
    if streams is None:
        streams = _closure_streams(core, dim, elems)
    mesh.destroy_block(dim, elems)
    for d in range(dim - 1, -1, -1):
        flat = streams[d][0]
        _ids, last = np.unique(flat[::-1], return_index=True)
        candidates = flat[np.sort(len(flat) - 1 - last)]
        mesh.destroy_block(d, candidates[core.nup[d][candidates] == 0])


def _remove_element(part: Part, element: Ent) -> None:
    """Destroy one element and its now-unused boundary entities."""
    _remove_elements(part, element.dim, np.array([element.idx]))


# ---------------------------------------------------------------------------
# relink: remote-copy links through a hash-home rendezvous
# ---------------------------------------------------------------------------
#
# A *candidate row* on the wire is ``(dim + 4 * n, idx, key..., q0, j0, ...,
# q(n-1), j(n-1))``: the posting part holds the entity with sorted
# vertex-gid ``key`` at ``Ent(dim, idx)`` — or, with ``idx == -1``, held it
# and destroyed it (a tombstone) — and knew ``n`` other copies before the
# move, part ``qk`` holding ``Ent(dim, jk)`` (proxies, posted on behalf of
# parts that may not post themselves).  A full rebuild posts ``n == 0`` rows
# only: ``(dim, idx, key...)``.


#: One dimension of a part's candidates: ``(dim, idx, key rows, copies per
#: row, flat (q, j) pairs of those copies)``.
Piece = Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_NONE = np.empty(0, dtype=np.int64)


def _candidate_rows(
    pieces: Sequence[Piece], nparts: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wire rows of one part's candidates, sorted by hash home.

    Returns ``(home, lengths, flat)``; a row's home is the sum of its key
    modulo ``nparts`` (in int64, so every poster wraps alike).
    """
    homes, lengths, flats = [_NONE], [_NONE], [_NONE]
    for d, idx, keys, ncopies, copies in pieces:
        used = keys >= 0
        nkey = used.sum(axis=1)
        n = 2 + nkey + 2 * ncopies
        starts = np.cumsum(n) - n
        flat = np.empty(int(n.sum()), dtype=np.int64)
        flat[starts] = d + 4 * ncopies
        flat[starts + 1] = idx
        flat[ragged_arange(starts + 2, nkey)] = keys[used]
        flat[ragged_arange(starts + 2 + nkey, 2 * ncopies)] = copies
        homes.append(np.where(used, keys, 0).sum(axis=1) % nparts)
        lengths.append(n)
        flats.append(flat)
    home, n, flat = map(np.concatenate, (homes, lengths, flats))
    order = np.argsort(home, kind="stable")
    starts = (np.cumsum(n) - n)[order]
    return home[order], n[order], flat[ragged_arange(starts, n[order])]


def _post_rows(
    dmesh: DistributedMesh, router, src: int, tag: int,
    dest: np.ndarray, lengths: np.ndarray, flat: np.ndarray,
) -> None:
    """Post ``src``'s rows (sorted by ``dest``), one kind-3 frame each."""
    if not len(lengths):
        return  # (and no zero-valued counter springs into being)
    encoded = 0
    for pid, rows, values in split_rows(dest, lengths, flat):
        blob = encode_int_rows(rows, values)
        encoded += len(blob)
        router.post(src, pid, tag, blob)
    dmesh.counters.add("net.bytes.encoded", encoded)
    dmesh.counters.add("net.messages.coalesced", len(lengths))


def _home_answers(messages) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rendezvous at one hash home: the candidate frames it received,
    in source order, to answer rows for every holder of a shared key."""
    frames = [decode_int_rows(blob) for _src, _tag, blob in messages]
    lengths = np.concatenate([rows for rows, _values in frames])
    flat = np.concatenate([values for _rows, values in frames])
    src = np.repeat(
        [src for src, _tag, _blob in messages],
        [len(rows) for rows, _values in frames],
    )
    starts = np.cumsum(lengths) - lengths
    dim = flat[starts] & 3
    ncopies = flat[starts] >> 2
    idx = flat[starts + 1]
    nkey = lengths - 2 - 2 * ncopies
    keys = ragged_matrix(flat[ragged_arange(starts + 2, nkey)], nkey, -1)
    proxies = flat[ragged_arange(starts + 2 + nkey, 2 * ncopies)].reshape(-1, 2)
    row = np.repeat(np.arange(len(lengths)), ncopies)
    return link_answers(
        np.concatenate((dim, dim[row])),
        np.concatenate((keys, keys[row])),
        np.concatenate((src, proxies[:, 0])),
        np.concatenate((idx, proxies[:, 1])),
        np.concatenate((idx >= 0, np.ones(len(row), dtype=bool))),
    )


#: What one part brings to a rendezvous: its candidate rows ``(home,
#: lengths, flat)`` and, per dimension, the ids whose links are stale unless
#: an answer restores them.
Post = Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], List[np.ndarray]]


def _rendezvous(dmesh: DistributedMesh, posts: Dict[int, Post]) -> None:
    """Match posted candidates at their hash homes; write the links back.

    Two supersteps: every posting part sends its candidate rows to the
    rows' homes; every home groups what it got and answers each holder of a
    key with two or more holders — posters and proxied third parties alike
    — with the list of the others, which replaces that entity's links.  A
    posting part's stale ids no answer came for end unlinked: each part
    applies both in one :meth:`~repro.partition.part.Part.replace_links`
    per dimension.  Both exchanges run even when nothing is posted, so a
    fixed call sequence costs a fixed superstep count.
    """
    router = dmesh.router()
    for pid, (rows, _stale) in posts.items():
        _post_rows(dmesh, router, pid, _TAG_CANDIDATE, *rows)
    inboxes = router.exchange()
    router = dmesh.router()
    for home in sorted(inboxes):
        if inboxes[home]:
            _post_rows(
                dmesh, router, home, _TAG_LINKS, *_home_answers(inboxes[home])
            )
    responses = router.exchange()
    for pid in sorted(responses):
        part = dmesh.part(pid)
        stale = posts[pid][1] if pid in posts else [_NONE] * 4
        frames = [decode_int_rows(blob) for _src, _tag, blob in responses[pid]]
        dim, ids, pids, rids = answer_columns(*(
            np.concatenate([_NONE, *(frame[k] for frame in frames)])
            for k in (0, 1)
        ))
        for d in range(4):
            row = dim == d
            part.replace_links(d, stale[d], ids[row], pids[row], rids[row])
    dmesh.counters.add("migration.relinks")


def rebuild_links(dmesh: DistributedMesh) -> None:
    """Recompute every remote-copy link from vertex global ids.

    The from-scratch row source of :func:`_rendezvous`: every existing
    link is stale and every part posts all of its surface entities
    (:func:`~repro.partition.links.surface_ids`; ghosts excluded).  For
    callers with no plan to take a delta from — loaders, distributed
    adaptation — and the oracle ``migrate``'s delta is tested against.
    """
    posts = {}
    for part in dmesh:
        rows = _candidate_rows(
            [
                (d, ids, part.entity_keys(d, ids),
                 np.zeros(len(ids), dtype=np.int64), _NONE)
                for d, ids in enumerate(surface_ids(part))
            ],
            dmesh.nparts,
        )
        posts[part.pid] = (rows, [part.links(d)[0] for d in range(4)])
    _rendezvous(dmesh, posts)


#: One dimension of a part's delta candidates before removal: ``(ids, key
#: rows, and the link rows of the leading ids as they were: each row's
#: position in ids, pid, remote id)``.
Captured = List[Tuple[np.ndarray, ...]]


def _capture_candidates(
    part: Part, dim: int, leaving: Optional[Streams], landed: np.ndarray
) -> Captured:
    """Delta candidates of one part, taken after landing, before removal.

    Only entities in the closure of a moved element can gain or lose a
    copy.  Per dimension: the closure of the part's leaving elements
    (``leaving``, their :func:`_closure_streams`) with the link rows each
    has now — removal evicts those links and the vertex gids the keys are
    made of — followed by what only the closure of the ``landed`` element
    ids adds.
    """
    core = part.mesh.core
    arrived = _closure_streams(core, dim, landed) if len(landed) else None
    captured: Captured = []
    for d in range(dim):
        # Unique ids through handle masks: two scatters and a scan.
        mask = np.zeros(core.top[d], dtype=bool)
        if leaving:
            mask[leaving[d][0]] = True
        ids = left = np.flatnonzero(mask)
        if arrived:
            mask[arrived[d][0]] = True
            mask[left] = False
            ids = np.concatenate((left, np.flatnonzero(mask)))
        linked = part.links(d)
        rows = np.isin(linked[0], left)
        captured.append((
            ids, part.entity_keys(d, ids), left.searchsorted(linked[0][rows]),
            linked[1][rows], linked[2][rows],
        ))
    return captured


def _delta_post(part: Part, captured: Captured, nparts: int) -> Post:
    """What one part posts for a delta relink, after removal.

    A copy can only be shared if it lies on its part's surface after the
    move: live surface candidates post themselves (with the copies they
    knew as proxies) and destroyed candidates that had copies post a
    tombstone (with the same).  Every live candidate's links are stale —
    the answers restore what is still shared.
    """
    alive_of = part.mesh.core.alive
    masks = surface_masks(part)
    pieces: List[Piece] = []
    stale = [_NONE] * 4
    for d, (ids, keys, at, pids, rids) in enumerate(captured):
        alive = alive_of[d][ids]
        stale[d] = ids[alive]
        # (An emptied part has no surface, and nothing of it is alive.)
        surface = alive & masks[d][ids] if d < len(masks) else alive
        # The copies a leading id had ride as proxies on its surface row
        # or its tombstone.
        proxy = (surface | ~alive)[at]
        ncopies = np.bincount(at[proxy], minlength=len(ids))
        posted = surface | (ncopies > 0)
        pieces.append((
            d, np.where(surface, ids, -1)[posted], keys[posted],
            ncopies[posted], np.column_stack((pids, rids))[proxy].reshape(-1),
        ))
    return _candidate_rows(pieces, nparts), stale
