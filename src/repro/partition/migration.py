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
4. **relink** — remote-copy links are rebuilt from scratch by a rendezvous
   over each part's surface entities (:func:`rebuild_links`), restoring the
   symmetric partition-boundary structure the partition model derives from.

No phase calls ``Mesh.create``/``Mesh.destroy`` per entity; ghosting ships
and lands its copies through the same two functions.

The rebuild-from-scratch choice trades some traffic for simplicity and is
what keeps this implementation verifiably correct under arbitrary plans;
PUMI's incremental update is an optimization of the same result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..gmodel.model import ModelEntity
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
from .part import Part

#: A migration plan: for each source part, the elements it sends away.
MigrationPlan = Dict[int, Dict[Ent, int]]

_TAG_CANDIDATE = 2
_TAG_LINKS = 3


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
        if part.ghosts:
            raise ValueError(
                f"part {part.pid} has ghosts; delete ghosts before migrating"
            )
    probe = CommProbe(dmesh.counters)
    tracer = dmesh.tracer
    dim = dmesh.element_dim()
    moved = 0
    packed = [0, 0, 0, 0]

    with trace_span(tracer, "migrate"):
        dests = set()
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
                    dests.add(dest)
                if leaving:
                    removals[pid] = np.asarray(leaving)
                    moved += len(leaving)

        # Only parts that send/receive elements — plus every part that
        # shares anything with them — can see their links change.  The
        # neighbor sets must be snapshotted NOW, before removal drops the
        # dying links.
        affected = set(removals) | dests
        for pid in list(affected):
            affected.update(dmesh.part(pid).neighbors())

        with trace_span(tracer, "migrate.unpack"):
            forest.bcast(
                batch_data=lambda rpid, lpid, _elements: blocks[(rpid, lpid)],
                batch_set=lambda lpid, _rpid, block: _land_block(
                    dmesh.part(lpid), block
                ),
                datatype=BUNDLES,
            )

        with trace_span(tracer, "migrate.remove"):
            for pid, leaving in removals.items():
                _remove_elements(dmesh.part(pid), dim, leaving)

        with trace_span(tracer, "migrate.relink"):
            rebuild_links(dmesh, only_parts=affected if moved else [])
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


def _closure_streams(
    core, dim: int, elems: np.ndarray
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
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
        starts = np.cumsum(counts) - counts
        within = np.arange(len(flat)) - np.repeat(starts, counts)
        out[np.repeat(offset, counts) + within] = flat
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

    # Classification: one small code per distinct model entity (-1 = none).
    gents: Dict[ModelEntity, int] = {}

    def class_codes(d: int, ids: np.ndarray) -> np.ndarray:
        gclass = mesh._gclass[d]
        if not gclass:
            return np.full(len(ids), -1, dtype=np.int64)
        return np.fromiter(
            (
                -1 if gent is None else gents.setdefault(gent, len(gents))
                for gent in map(gclass.get, ids.tolist())
            ),
            dtype=np.int64, count=len(ids),
        )

    ev_flat, ev_n = streams[0]
    ev_n = ev_n.astype(np.int64)
    vert_ids, vref = _interner(ev_flat)
    vert_class = class_codes(0, vert_ids)
    elem_class = class_codes(dim, elems)

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
        mid_class[rows] = class_codes(d, ids)
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
    by_code = list(gents)

    def cref(codes: np.ndarray) -> np.ndarray:
        return _opt_refs(class_ref, codes)

    present = [name for name in tags if mesh.tags.find(name) is not None]
    extras = (EXTRA_HOME if home else 0) | (EXTRA_TAGS if tags else 0)
    empty = np.empty(0, dtype=np.int64)
    return ElementBlock(
        classes=np.asarray(
            [(by_code[c].dim, by_code[c].tag) for c in class_table.tolist()],
            dtype=np.int64,
        ).reshape(len(class_table), 2),
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
    classes = [ModelEntity(d, t) for d, t in block.classes.tolist()]
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
        mesh, block.vert_coords[vrows[new]], block.vert_cref[vrows[new]], classes
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
                block.mid_cref[sel], classes,
            )
            gref = block.mid_gref[sel]
            part.set_gids(d, ids, np.where(gref > 0, pool[gref - 1], -1))
            created[d] = ids[fresh]

    # Elements, in bundle order.
    elem_verts = local_verts(
        ragged_matrix(block.e_vrefs, block.e_nverts, -1)[keep]
    )
    ids, fresh = land_rows(
        mesh, dim, block.e_etype[keep], elem_verts, block.e_cref[keep], classes
    )
    part.set_gids(dim, ids, pool[block.e_gref[keep]])
    created[dim] = ids[fresh]
    return ids, created


def _remove_elements(part: Part, dim: int, elems: np.ndarray) -> None:
    """Destroy dim-``dim`` elements and the boundary entities left unused.

    One closure sweep: the elements go in the order given, then each lower
    dimension loses the closure entities that bound nothing any more, in
    the order a per-element sweep would have reached them (an entity dies
    with the last removed element that holds it) — so the free-lists end
    up exactly as the scalar loop left them.  Part bookkeeping is evicted
    by the destroy listener.
    """
    mesh = part.mesh
    core = mesh.core
    elems = np.asarray(elems, dtype=np.int64)
    if not len(elems):
        return
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


def surface_closure(part: Part) -> List[Ent]:
    """All entities on the part's topological surface (any dimension < D).

    An entity shared with another part necessarily lies on this part's
    surface, so this is a complete (and cheap) candidate set for remote-link
    discovery.  The surface consists of the facets (dimension D-1 entities)
    with exactly one upward element, plus their closures.
    """
    mesh = part.mesh
    dim = mesh.dim()
    if dim == 0:
        return list(mesh.entities(0))
    result: List[Ent] = []
    seen = set()
    for facet in mesh.entities(dim - 1):
        if len(mesh.up(facet)) != 1:
            continue
        for ent in [facet] + [
            e for d in range(facet.dim - 1, -1, -1)
            for e in mesh.adjacent(facet, d)
        ]:
            if ent not in seen:
                seen.add(ent)
                result.append(ent)
    return result


def entity_key(part: Part, ent: Ent) -> Tuple[int, ...]:
    """Global identity of an entity: its sorted bounding-vertex gids.

    Vertices carry authoritative gids; every higher entity is identified by
    the gids of its vertices, so entities created independently on several
    parts (e.g. by coordinated refinement of a shared edge) match without
    any global id coordination.
    """
    if ent.dim == 0:
        return (part.gid(ent),)
    return tuple(
        sorted(part.gid(v) for v in part.mesh.verts_of(ent))
    )


def _surface_entity_ids(part: Part) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Fast raw-id surface scan: ``(dim, idx, sorted vertex-gid key)``.

    Equivalent to :func:`surface_closure` + :func:`entity_key` — this runs
    once per part per migration and dominates the link-rebuild cost.
    """
    mesh = part.mesh
    dim = mesh.dim()
    if dim == 0:
        return []
    core = mesh.core
    fdim = dim - 1
    facets = core.live_ids(fdim)
    surf = facets[core.nup[fdim][facets] == 1]
    gid0 = part.gid_array(0).tolist()
    out: List[Tuple[int, int, Tuple[int, ...]]] = []
    seen = [set() for _ in range(dim)]
    ghost_idx = [
        {g.idx for g in part.ghosts if g.dim == d} for d in range(dim)
    ]
    # Bulk row extraction: one tolist per array instead of per-entity calls.
    surf_list = surf.tolist()
    fvert_counts = core.nverts[fdim][surf].tolist()
    fvert_rows = core.verts[fdim][surf].tolist()
    if fdim == 2:
        fdown_counts = core.ndown[2][surf].tolist()
        fdown_rows = core.down[2][surf].tolist()
        edge_verts = core.verts[1][: core.top[1], :2].tolist()

    def emit(d: int, idx: int, verts) -> None:
        if idx in seen[d] or idx in ghost_idx[d]:
            return
        seen[d].add(idx)
        key = tuple(sorted(gid0[v] for v in verts))
        out.append((d, idx, key))

    for i, fidx in enumerate(surf_list):
        fverts = fvert_rows[i][: fvert_counts[i]]
        emit(fdim, fidx, fverts)
        if fdim >= 1:
            for v in fverts:
                emit(0, v, (v,))
        if fdim == 2:
            for eidx in fdown_rows[i][: fdown_counts[i]]:
                emit(1, eidx, edge_verts[eidx])
    return out


def rebuild_links(
    dmesh: DistributedMesh, only_parts: Optional[Iterable[int]] = None
) -> None:
    """Recompute remote-copy links from vertex global ids.

    Rendezvous algorithm: each participating part posts (dim, key, local
    handle) for all of its surface entities — where ``key`` is the sorted
    vertex-gid tuple — to the key's home part (sum of the key modulo
    nparts); home parts group arrivals and answer every holder of a
    multiply-held key with the full holder list.  Links of participating
    parts are then rewritten wholesale.  Payloads are pure integers,
    shipped as columnar int-row buffers.

    ``only_parts`` restricts the rebuild to a set of parts that is *closed
    under sharing* — every part that might share an entity with a member
    must itself be a member (migration passes the moved parts plus all
    their neighbors, which has that property).  ``None`` rebuilds all.
    """
    nparts = dmesh.nparts
    if only_parts is None:
        participants = list(range(nparts))
    else:
        participants = sorted(set(only_parts))
    router = dmesh.router()
    for pid in participants:
        part = dmesh.part(pid)
        # Columnar int rows: (dim, local idx, *vertex-gid key).
        batches: Dict[int, List[Tuple[int, ...]]] = {}
        for d, idx, key in _surface_entity_ids(part):
            batches.setdefault(sum(key) % nparts, []).append((d, idx) + key)
        for home, rows in batches.items():
            blob = encode_int_rows(rows)
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(rows))
            router.post(part.pid, home, _TAG_CANDIDATE, blob)

    inboxes = router.exchange()
    router = dmesh.router()
    for home in sorted(inboxes):
        groups: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, int]]] = {}
        for src, _tag, blob in inboxes[home]:
            for row in decode_int_rows(blob):
                groups.setdefault((row[0], row[2:]), []).append((src, row[1]))
        # Rows: (dim, local idx, other holders' pid/idx pairs flattened).
        answers: Dict[int, List[Tuple[int, ...]]] = {}
        for (d, _key), holders in sorted(groups.items()):
            if len(holders) < 2:
                continue
            for pid, idx in holders:
                others = tuple(
                    value for q, j in holders if q != pid for value in (q, j)
                )
                answers.setdefault(pid, []).append((d, idx) + others)
        for pid, rows in answers.items():
            blob = encode_int_rows(rows)
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(rows))
            router.post(home, pid, _TAG_LINKS, blob)

    responses = router.exchange()
    participant_set = set(participants)
    full_rebuild = len(participants) == nparts
    for pid in participants:
        part = dmesh.part(pid)
        if full_rebuild:
            part.remotes.clear()
            continue
        # Partial rebuild: recompute only links *among* participants; a
        # participant's links to outside parts cannot have changed (no
        # elements moved on either side of those boundaries) and outside
        # parts do not post, so their entries must be preserved.
        for ent in list(part.remotes):
            copies = part.remotes[ent]
            for q in [q for q in copies if q in participant_set]:
                del copies[q]
            if not copies:
                del part.remotes[ent]
    for pid in sorted(responses):
        part = dmesh.part(pid)
        for _src, _tag, blob in responses[pid]:
            for row in decode_int_rows(blob):
                d, idx = row[0], row[1]
                entry = part.remotes.setdefault(Ent(d, idx), {})
                for i in range(2, len(row), 2):
                    entry[row[i]] = Ent(d, row[i + 1])
    dmesh.counters.add("migration.relinks")
