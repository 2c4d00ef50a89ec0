"""Mesh migration: moving elements between parts.

"Mesh migration: a procedure that moves mesh entities from part to part to
support (i) mesh distribution to parts, (ii) mesh load balancing, or (iii)
obtaining mesh entities needed for mesh modification operations" (paper,
Section II-C).  ParMA's diffusion is implemented entirely on top of this
operation.

:func:`migrate` executes a migration plan in four bulk-synchronous phases:

1. **pack** — each source part gathers the downward closure of all the
   elements it sends in one call (:func:`_pack_blocks`), straight from its
   core arrays, and cuts it into one
   :class:`~repro.parallel.codec.ElementBlock` per destination (vertices,
   intermediate entities and elements as columns, with types and geometric
   classification interned once per block; vertices and elements carry
   global ids, an intermediate entity only its vertices, which identify
   it); the plan is the integer columns of a
   :class:`~repro.parallel.sf.StarForest` rooted at the elements;
2. **unpack** — one forest ``bcast`` ships one block per part pair and each
   destination lands all the blocks it got in one call
   (:func:`_land_blocks` → :func:`~repro.mesh.build.land_rows`, one call
   per dimension), matching vertices by global id and higher entities by
   local vertices, so entities arriving from several sources (or already
   present on the part boundary) are created exactly once;
3. **remove** — each source destroys its moved elements and the boundary
   entities left bounding nothing in one closure sweep
   (:func:`_remove_elements` → ``Mesh.destroy_block`` per dimension; their
   copies may live on, on other parts);
4. **relink** — remote-copy links are repaired *through the owners*: only
   copies a landing created or a removal destroyed change a holder set, so
   only they are reported, each to its entity's owner, which answers every
   holder (two supersteps, neighbours only, array-native end to end).

No phase calls ``Mesh.create``/``Mesh.destroy`` per entity, and pack and
land run once per part, not per part pair.  Ghosting ships and lands its
copies through the same two functions, and so does
:func:`~repro.partition.distribute`: it packs each part's elements out of
the serial mesh (its own vertex and element ids as gids) and lands the
block onto the empty part.

The relink protocol
-------------------

An entity's owner is its lowest holder
(:meth:`~repro.partition.part.Part.owner`); links being symmetric, every
holder knows it and its handle there.  Three supersteps per ``migrate``:

*Ship.*  A block carries one ``(owner part, owner handle)`` pair per row
of its vertex and intermediate tables, read off the source's links
(:func:`~repro.partition.links.link_owners`).

*Post to the owner.*  After landing and removal, only changed copies post
a row ``(dim, owner idx, idx)`` to their owner: a copy a landing created
posts its handle (the owner read off the block row that created it), a
copy a removal destroyed posts ``-1``, a *tombstone*.  No keys, no surface
filter; an owner's own rows stay off the wire.

*Answer.*  Per changed entity, the owner joins its own copy, its link rows
as they were before removal and the posted rows, drops tombstoned parts
and answers **every** surviving holder with the list of the others
(:func:`_owner_answers`), which replaces that entity's links there — an
empty list clears them.

*Why it is complete.*  A holder set changes only when a part creates a copy
(only by landing) or destroys one (only by removal), and every such copy
reports to the owner, which held the entity before the call and knew every
old holder, so it sees the whole new holder set; third parties (holders
that neither sent nor received around it) learn it from the answer.  An
owner that destroyed its own copy answers from the link rows it had: land
precedes remove, so no handle is recycled inside one ``migrate``.  Two
supersteps cannot do it: if ``Q`` ships an entity to ``C`` and ``T`` ships
it to ``D`` in one call, ``C`` and ``D`` learn of each other only through a
relay.

:func:`rebuild_links` derives every link from scratch instead, through a
hash-home rendezvous keyed on each surface entity's sorted vertex gids:
for callers with no migration to take changes from (loaders, distributed
adaptation), and the oracle of ``tests/partition/test_relink_delta.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.build import _joined_down, _row_codes, land_rows, land_vertices
from ..mesh.core import VERT_WIDTH, first_seen
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
    link_owners,
    ragged_arange,
    split_rows,
    surface_ids,
)
from .part import Links, Part

#: A migration plan: for each source part, the elements it sends away.
MigrationPlan = Dict[int, Dict[Ent, int]]

_TAG_CANDIDATE = 2
_TAG_LINKS = 3
_TAG_CHANGE = 4

#: Ragged integer rows bound for other parts: ``(dest, lengths, flat)``,
#: sorted by ``dest``; and the rows one part received from ``src``: ``(src,
#: lengths, flat)``.
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]
Frame = Tuple[int, np.ndarray, np.ndarray]


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
    moved = 0
    packed = [0, 0, 0, 0]

    with trace_span(tracer, "migrate"):
        blocks: Dict[Tuple[int, int], ElementBlock] = {}
        removals: Dict[int, np.ndarray] = {}
        columns: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        with trace_span(tracer, "migrate.pack"):
            # Each source packs all its destinations in one call, one run
            # per destination in wire order (ascending), each run in sorted
            # element order — which pins the exact bundle layout of each
            # pair's block (tables intern by first use).  Leaf handles are
            # the ordinals of that order.
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
                    queues.setdefault(dest, []).append(element.idx)
                    leaving.append(element.idx)
                if not leaving:
                    continue
                dests = sorted(queues)
                runs = [np.asarray(queues[dest], dtype=np.int64) for dest in dests]
                for dest, run in zip(dests, runs):
                    columns[(pid, dest)] = (run, np.arange(len(run)))
                packed_blocks = _pack_blocks(
                    part.mesh, part.gid_array(0), part.gid_array(dim), dim,
                    np.concatenate(runs), [len(run) for run in runs],
                    owners=part,
                )
                for dest, block in zip(dests, packed_blocks):
                    blocks[(pid, dest)] = block
                    packed[0] += int(block.b_vcounts.sum())
                    mids = np.bincount(block.mid_dim[block.b_mrefs], minlength=4)
                    for d in range(1, dim):
                        packed[d] += int(mids[d])
                    packed[dim] += len(block)
                removals[pid] = np.asarray(leaving)
                moved += len(leaving)

        changes: Dict[int, List[Change]] = {}

        def land(pid: int, arrived: List[ElementBlock]) -> None:
            # Each created vertex or intermediate entity reports to the
            # owner its block's table row names.
            _ids, created = _land_blocks(dmesh.part(pid), arrived)
            owner_pid, owner_idx = (
                _cat(arrived, name) for name in ("owner_pid", "owner_idx")
            )
            at = _starts([len(block.owner_pid) for block in arrived])
            mid_at = at + [len(block.vert_gref) for block in arrived]
            for d, (ids, block, row) in enumerate(created[:dim]):
                row = (mid_at if d else at)[block] + row
                changes.setdefault(pid, []).append(
                    (np.full(len(ids), d), owner_pid[row], owner_idx[row], ids)
                )

        receive, flush = _by_receiver(land)
        with trace_span(tracer, "migrate.unpack"):
            StarForest.from_columns(dmesh, columns, name="migrate").bcast(
                batch_data=lambda rpid, lpid, _elements: blocks.pop((rpid, lpid)),
                batch_set=receive,
                datatype=BUNDLES,
            )
            flush()

        # The owners answer from the links as they were before removal
        # (the destroy listener evicts the rows of what dies).
        before = {part.pid: [part.links(d) for d in range(dim)] for part in dmesh}
        with trace_span(tracer, "migrate.remove"):
            for pid, leaving in removals.items():
                destroyed = _remove_elements(dmesh.part(pid), dim, leaving)
                changes.setdefault(pid, []).extend(
                    (np.full(len(ids), d), *link_owners(pid, before[pid][d], ids),
                     np.full(len(ids), -1))
                    for d, ids in enumerate(destroyed[:dim])
                )

        with trace_span(tracer, "migrate.relink"):
            _owner_relink(dmesh, changes, before)
    dmesh.counters.add("migration.elements", moved)
    return MigrateStats(
        elements_moved=moved,
        per_dimension=tuple(packed),
        sf_ops=1,
        **probe.cost(),
    )


def _row_unique_stable(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise first-occurrence dedupe of a padded id matrix (-1 = pad).

    Returns the surviving ids flattened row-major plus the count per row.
    """
    width = mat.shape[1]
    # Each row sorted by (id, column): a run's first entry is its first hit.
    code = np.sort((mat + 1) * width + np.arange(width), axis=1)
    col = code % width
    value = code // width - 1
    first = np.ones(mat.shape, dtype=bool)
    first[:, 1:] = value[:, 1:] != value[:, :-1]
    keep = np.zeros(mat.shape, dtype=bool)
    np.put_along_axis(keep, col, first & (value >= 0), axis=1)
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
        nfaces = core.ndown[3][elems]
        faces = core.down[3][elems, : nfaces.max(initial=0)]
        face_ok = np.arange(faces.shape[1]) < nfaces[:, None]
        nedges = core.ndown[2][faces]
        edges = core.down[2][faces, : nedges.max(initial=0)].astype(np.int64)
        edge_ok = np.arange(edges.shape[2]) < nedges[:, :, None]
        edges[~(edge_ok & face_ok[:, :, None])] = -1
        streams[1] = _row_unique_stable(
            edges.reshape(len(elems), faces.shape[1] * edges.shape[2])
        )
    return streams


def _interleave_at(counts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Where the entries of ragged columns with ``counts`` land when they
    are concatenated row-wise: row 0 of every column in turn, then row 1 of
    every column, ..."""
    total = sum(counts)
    offset = np.cumsum(total) - total
    at = []
    for count in counts:
        at.append(ragged_arange(offset, count))
        offset = offset + count
    return at


def _interleave(pieces: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Row-wise concatenation of ragged ``(flat, counts)`` columns: row 0 of
    every piece in turn, then row 1 of every piece, ..."""
    at = _interleave_at([counts for _flat, counts in pieces])
    out = np.empty(sum(len(k) for k in at), dtype=np.int64)
    for (flat, _counts), k in zip(pieces, at):
        out[k] = flat
    return out


def _interner(stream: np.ndarray, seg: np.ndarray, nseg: int):
    """First-seen-order interning of an int stream, segment by segment.

    ``seg`` labels every entry with its segment, non-decreasing along the
    stream.  Returns ``(table, starts, refs, first)``: each segment's
    distinct values in order of first occurrence, the segments one after
    another; the ``nseg + 1`` offsets of the segments' runs in the table;
    every entry's position in its segment's run; and the stream position of
    every table entry's first occurrence.
    """
    base = int(stream.max()) + 1 if len(stream) else 1
    first, group = first_seen(seg * base + stream)
    starts = np.searchsorted(seg[first], np.arange(nseg + 1))
    return stream[first], starts, group - starts[seg], first


def _refs(refs: np.ndarray, has: np.ndarray) -> np.ndarray:
    """1-based refs where ``has`` (0 = absent) from 0-based ``refs``."""
    return np.where(has, refs + 1, 0)


def _bounds(counts: np.ndarray) -> np.ndarray:
    """``len(counts) + 1`` offsets of consecutive runs of ``counts``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _pack_blocks(
    mesh,
    vert_gids: np.ndarray,
    elem_gids: np.ndarray,
    dim: int,
    elems: np.ndarray,
    counts: Sequence[int],
    home: Optional[int] = None,
    tags: Sequence[str] = (),
    owners: Optional[Part] = None,
) -> List[ElementBlock]:
    """Closure blocks of dim-``dim`` elements of ``mesh``, one per run.

    ``elems`` holds one run of elements per destination, back to back,
    ``counts[k]`` in run ``k``.  Each block is self-contained for
    reconstruction: vertices with coordinates and global ids, intermediate
    entities by their vertices, and the elements with global ids, all with
    types and classification.  The closure streams and the core gathers
    are taken once for all runs; each run's tables intern in first-seen
    order of its own bundle-by-bundle traversal (vertices, intermediates,
    element), which is the canonical layout of
    :func:`repro.parallel.codec.block_from_bundles` — so every block is
    the one its run packed alone would give.  ``vert_gids`` and
    ``elem_gids`` are the handle-indexed global id columns of the vertices
    and the elements (-1 = unset): a part's own columns, or the ids
    themselves for a serial mesh being distributed.  ``home`` (a part id)
    stamps every bundle with that part and the element's handle (ghost
    copies); ``tags`` names element tags whose values ride along;
    ``owners`` (the part ``mesh`` belongs to) stamps every vertex and
    intermediate table row with its entity's owner part and handle there,
    read off the part's links (migration).
    """
    core = mesh.core
    elems = np.asarray(elems, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nseg = len(counts)
    n = len(elems)
    seg = np.repeat(np.arange(nseg), counts)
    streams = _closure_streams(core, dim, elems)

    ev_flat, ev_n = streams[0]
    ev_n = ev_n.astype(np.int64)
    ev_seg = np.repeat(seg, ev_n)
    vert_ids, v_starts, b_vrefs, v_first = _interner(ev_flat, ev_seg, nseg)
    vert_seg = ev_seg[v_first]

    # Intermediates share one table: edges coded by id, faces after them.
    mid_dims = range(1, dim)
    face_base = core.top[1]
    mid_stream = _interleave([
        (streams[d][0] + (face_base if d == 2 else 0), streams[d][1])
        for d in mid_dims
    ]) if mid_dims else np.empty(0, dtype=np.int64)
    b_mcounts = sum((streams[d][1] for d in mid_dims), np.zeros(n, dtype=np.int64))
    m_seg = np.repeat(seg, b_mcounts)
    mid_codes, m_starts, b_mrefs, m_first = _interner(mid_stream, m_seg, nseg)
    mid_seg = m_seg[m_first]
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

    elem_gid = elem_gids[elems]
    if (vert_gids[vert_ids] < 0).any() or (elem_gid < 0).any():
        raise KeyError("packed entity has no global id")
    # The gid pool interns the bundle-by-bundle stream of (vertices,
    # element), the classification table that of (vertices, intermediates,
    # element); every ref is read off its stream at the entry's own
    # position.
    one = np.ones(n, dtype=np.int64)
    at_v, at_e = _interleave_at([ev_n, one])
    stream = np.empty(len(ev_flat) + n, dtype=np.int64)
    stream[at_v], stream[at_e] = vert_gids[ev_flat], elem_gid
    gids, g_starts, grefs, _first = _interner(
        stream, np.repeat(seg, ev_n + 1), nseg
    )
    v_grefs, e_grefs = grefs[at_v], grefs[at_e]
    at_v, at_m, at_e = _interleave_at([ev_n, b_mcounts, one])
    klass = np.empty(len(ev_flat) + len(b_mrefs) + n, dtype=np.int64)
    klass[at_v] = core.gclass[0][ev_flat]
    klass[at_m] = mid_class[b_mrefs + m_starts[m_seg]]
    klass[at_e] = core.gclass[dim][elems]
    has = klass >= 0
    class_table, c_starts, c_refs, _first = _interner(
        klass[has], np.repeat(seg, ev_n + b_mcounts + 1)[has], nseg
    )
    klass[has] = c_refs
    cref = _refs(klass, has)

    # The vertices of an intermediate entity are vertices of the element
    # that first brought it: their gid-pool refs are read off that
    # element's vertex refs, by matching ids within the row.
    host = np.repeat(np.arange(n), b_mcounts)[m_first]
    hit = (
        mid_verts[:, :, None] == ragged_matrix(ev_flat, ev_n, -1)[host][:, None, :]
    ).argmax(axis=2)
    mid_vrefs = ragged_matrix(v_grefs, ev_n, -1)[host[:, None], hit][
        np.arange(mid_verts.shape[1]) < mid_nverts[:, None]
    ]

    # Owner columns: a block's vertex rows, then its intermediate rows.
    owner_pid = owner_idx = empty = np.empty(0, dtype=np.int64)
    o_starts = np.zeros(nseg + 1, dtype=np.int64)
    if owners is not None:
        o_starts = v_starts + m_starts
        at = np.concatenate((
            np.arange(len(vert_ids)) + m_starts[vert_seg],
            np.arange(len(mid_ids)) + v_starts[mid_seg + 1],
        ))
        table_dim = np.concatenate((np.zeros(len(vert_ids), np.int64), mid_dim))
        table_ids = np.concatenate((vert_ids, mid_ids))
        owner_pid, owner_idx = np.empty((2, len(at)), dtype=np.int64)
        for d in range(dim):
            rows = table_dim == d
            owner_pid[at[rows]], owner_idx[at[rows]] = link_owners(
                owners.pid, owners.links(d), table_ids[rows]
            )

    present = [name for name in tags if mesh.tags.find(name) is not None]
    extras = (EXTRA_HOME if home is not None else 0) | (EXTRA_TAGS if tags else 0)
    none = np.zeros(nseg + 1, dtype=np.int64)
    # (column, offsets of its runs): per-table columns by table run,
    # per-bundle columns by element run, flat ones by their CSR offsets.
    e_at = _bounds(counts)
    ev_at = _bounds(ev_n)[e_at]
    columns = {
        "classes": (mesh.class_pairs()[class_table], c_starts),
        "gids": (gids, g_starts),
        "vert_gref": (v_grefs[v_first], v_starts),
        "vert_cref": (cref[at_v][v_first], v_starts),
        "vert_coords": (mesh.coords_view()[vert_ids], v_starts),
        "mid_dim": (mid_dim, m_starts),
        "mid_etype": (mid_etype, m_starts),
        "mid_cref": (cref[at_m][m_first], m_starts),
        "mid_nverts": (mid_nverts, m_starts),
        "mid_vrefs": (mid_vrefs, _bounds(mid_nverts)[m_starts]),
        "b_vcounts": (ev_n, e_at),
        "b_vrefs": (b_vrefs, ev_at),
        "b_mcounts": (b_mcounts, e_at),
        "b_mrefs": (b_mrefs, _bounds(b_mcounts)[e_at]),
        "e_dim": (np.full(n, dim, dtype=np.int64), e_at),
        "e_etype": (core.etype[dim][elems].astype(np.int64), e_at),
        "e_gref": (e_grefs, e_at),
        "e_cref": (cref[at_e], e_at),
        "e_nverts": (ev_n, e_at),
        "e_vrefs": (v_grefs, ev_at),
        "extras": (np.full(n, extras, dtype=np.int64), e_at),
        "home_pid": (
            (np.full(n, home, dtype=np.int64), e_at)
            if home is not None else (empty, none)
        ),
        "home_idx": (elems, e_at) if home is not None else (empty, none),
        "tags": ([
            {name: mesh.tag(name).get(Ent(dim, idx)) for name in present}
            for idx in elems.tolist()
        ], e_at) if tags else ([], none),
        "owner_pid": (owner_pid, o_starts),
        "owner_idx": (owner_idx, o_starts),
    }
    return [
        ElementBlock(**{
            name: col[at[k]: at[k + 1]] for name, (col, at) in columns.items()
        })
        for k in range(nseg)
    ]


def _cat(blocks: Sequence[ElementBlock], name: str, shift=None) -> np.ndarray:
    """One block column laid end to end over ``blocks``; ``shift[k]`` is
    added to block ``k``'s values (refs into a joint table)."""
    cols = [getattr(block, name) for block in blocks]
    if shift is not None:
        cols = [col + at for col, at in zip(cols, shift)]
    return np.concatenate(cols)


def _starts(sizes: Sequence[int]) -> np.ndarray:
    """Where each of consecutive runs of ``sizes`` starts."""
    return _bounds(np.asarray(sizes, dtype=np.int64))[:-1]


def _land_dim(
    mesh,
    d: int,
    etypes: np.ndarray,
    verts: np.ndarray,
    gclass: np.ndarray,
    fresh: List[np.ndarray],
    tables: List[Tuple[np.ndarray, np.ndarray]],
    distinct: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Land dim-``d`` rows from several blocks, each distinct entity once.

    ``verts`` holds each row's local vertices in canonical order, padded
    with -1.  The first row of each entity (by sorted vertex key) finds or
    creates it, in row order — one :func:`~repro.mesh.build.land_rows`
    call; its downward row is joined against ``tables[d - 1]``, and it is
    looked up only when none of its vertices and lower entities is
    ``fresh`` (created by this landing).  ``distinct`` says every row is
    its own entity already (elements; the rows of a single block).  Sets
    ``tables[d]`` and ``fresh[d]``; returns every row's id and the rows
    that created one.
    """
    keys = np.sort(verts, axis=1)
    if distinct:
        lead = group = np.arange(len(keys))
    else:
        lead, group = first_seen(_row_codes(keys))
    lead_verts = verts[lead]
    used = lead_verts >= 0
    lead_verts = np.where(used, lead_verts, 0)
    known = ~(fresh[0][lead_verts] & used).any(axis=1)
    down = None
    if d >= 2:
        down = _joined_down(etypes[lead], lead_verts, *tables[d - 1])
        known &= ~(fresh[d - 1][np.maximum(down, 0)] & (down >= 0)).any(axis=1)
    ids, created = land_rows(
        mesh, d, etypes[lead], lead_verts, gclass[lead], down, probe=known
    )
    tables[d] = (keys[lead], ids)
    fresh[d] = np.zeros(mesh.core.top[d], dtype=bool)
    fresh[d][ids[created]] = True
    return ids[group], lead[created]


def _by_receiver(land: Callable[[int, List[ElementBlock]], None]):
    """A forest ``batch_set`` handing ``land`` each receiving part's blocks
    at once, and the call that hands over the last part's.

    The forest delivers receiver by receiver, so only one part's arrived
    blocks are held at a time (a part delivered twice is landed twice, in
    order, which is the same as landing once).
    """
    arrived: List[Any] = [None, []]

    def flush() -> None:
        pid, blocks = arrived
        if blocks:
            land(pid, blocks)
        arrived[:] = [None, []]

    def receive(pid: int, _src: int, block: ElementBlock) -> None:
        if pid != arrived[0]:
            flush()
            arrived[0] = pid
        arrived[1].append(block)

    return receive, flush


#: Per dimension, the ids a landing created, the block each came from and
#: its row there (in the vertex table, the intermediate table or the
#: bundles).
Created = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _land_blocks(
    part: Part,
    blocks: Sequence[ElementBlock],
    keeps: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[np.ndarray, Created]:
    """Find-or-create the closures of every block a part received, at once.

    Vertices match by global id, higher entities by their local vertices,
    so entities arriving in several blocks (or already present on the part
    boundary) are created exactly once.  The part ends exactly as landing
    the blocks one at a time, in order, would leave it — ids are handed out
    per dimension in that order: vertices in first-seen order block by
    block, intermediates by ``(block, dim, vertex-gid tuple)``, elements in
    bundle order — with one :func:`~repro.mesh.build.land_rows` call per
    dimension.  Downward rows are joined against the intermediates the
    blocks carry (a shipped closure holds every face and edge of its
    elements), and a row is looked up in the mesh only when every one of
    its vertices and lower entities was there before.  ``keeps`` (one
    boolean mask over bundles per block) lands only those bundles and
    their closures.

    Returns the local element ids of the kept bundles (block by block, in
    bundle order) and, per dimension, the ids this call created with the
    block each came from and its row there.
    """
    mesh = part.mesh
    none = np.empty(0, dtype=np.int64)
    created: Created = [(none, none, none)] * 4
    if keeps is None:
        keeps = [np.ones(len(block), dtype=bool) for block in blocks]
    keep = np.concatenate([none.astype(bool), *keeps])
    if not keep.any():
        return none, created
    dims = np.unique(_cat(blocks, "e_dim")[keep])
    if len(dims) != 1:
        raise ValueError("an element block must hold elements of one dimension")
    dim = int(dims[0])
    pool = _cat(blocks, "gids")
    p_at = _starts([len(block.gids) for block in blocks])
    # Block class refs (1-based, 0 = none) -> this mesh's column codes,
    # interned block by block like one landing per block.
    codes = np.concatenate([
        np.concatenate(([-1], mesh.class_codes(block.classes) if kept.any()
                        else np.full(len(block.classes), -1)))
        for block, kept in zip(blocks, keeps)
    ])
    c_at = _starts([len(block.classes) + 1 for block in blocks])

    # Vertices, by gid in first-seen order over the kept bundles, block by
    # block (a block names each vertex once in its table).
    v_at = _starts([len(block.vert_gref) for block in blocks])
    vrows = _cat(blocks, "b_vrefs", v_at)[np.repeat(keep, _cat(blocks, "b_vcounts"))]
    vpool = _cat(blocks, "vert_gref", p_at)[vrows]
    first, group = first_seen(pool[vpool])
    vgids = pool[vpool][first]
    local = part.handles(0, vgids)
    new = np.flatnonzero(local < 0)
    lead = vrows[first[new]]
    local[new] = land_vertices(
        mesh, _cat(blocks, "vert_coords")[lead],
        codes[_cat(blocks, "vert_cref", c_at)[lead]],
    )
    part.set_gids(0, local[new], vgids[new])
    v_block = np.searchsorted(v_at, lead, side="right") - 1
    created[0] = (local[new], v_block, lead - v_at[v_block])
    vert_of = np.full(len(pool), -1, dtype=np.int64)
    vert_of[vpool] = local[group]
    # Each shipped vertex's rank in gid order, for sorting by gid tuple.
    gid_rank = np.empty(len(vgids), dtype=np.int64)
    gid_rank[np.argsort(vgids)] = np.arange(len(vgids))
    rank_of = np.full(len(pool), -1, dtype=np.int64)
    rank_of[vpool] = gid_rank[group]
    fresh = [np.zeros(mesh.core.top[0], dtype=bool), None, None, None]
    fresh[0][local[new]] = True
    tables: List[Tuple[np.ndarray, np.ndarray]] = [(none, none)] * 4

    def local_verts(vref_mat: np.ndarray) -> np.ndarray:
        """Local vertex ids of a padded (-1) matrix of gid-pool refs."""
        used = vref_mat >= 0
        verts = np.where(used, vert_of[np.where(used, vref_mat, 0)], -1)
        if (verts[used] < 0).any():
            raise ValueError("element block row names a vertex it does not ship")
        return verts

    # Intermediates, sorted by (block, dim, vertex-gid tuple).
    m_at = _starts([len(block.mid_dim) for block in blocks])
    mid_dim = _cat(blocks, "mid_dim")
    used = np.zeros(len(mid_dim), dtype=bool)
    used[_cat(blocks, "b_mrefs", m_at)[np.repeat(keep, _cat(blocks, "b_mcounts"))]] = True
    mrows = np.flatnonzero(used)
    if len(mrows):
        mid_dim = mid_dim[mrows]
        vref_mat = ragged_matrix(
            _cat(blocks, "mid_vrefs", p_at), _cat(blocks, "mid_nverts"), -1
        )[mrows]
        m_block = np.searchsorted(m_at, mrows, side="right") - 1
        order = np.argsort(_row_codes(np.column_stack((
            4 * m_block + mid_dim,
            np.where(vref_mat >= 0, rank_of[vref_mat], -1),
        ))))
        mrows, mid_dim, m_block = mrows[order], mid_dim[order], m_block[order]
        mid_verts = local_verts(vref_mat[order])
        mid_etype = _cat(blocks, "mid_etype")[mrows]
        mid_class = codes[_cat(blocks, "mid_cref", c_at)[mrows]]
        for d in range(1, dim):
            rows = np.flatnonzero(mid_dim == d)
            if not len(rows):
                continue
            ids, made = _land_dim(
                mesh, d, mid_etype[rows], mid_verts[rows], mid_class[rows],
                fresh, tables, distinct=len(blocks) == 1,
            )
            at = rows[made]
            created[d] = (ids[made], m_block[at], mrows[at] - m_at[m_block[at]])

    # Elements, in bundle order.
    erows = np.flatnonzero(keep)
    e_block = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])[erows]
    ids, made = _land_dim(
        mesh, dim, _cat(blocks, "e_etype")[erows],
        local_verts(ragged_matrix(
            _cat(blocks, "e_vrefs", p_at), _cat(blocks, "e_nverts"), -1
        )[erows]),
        codes[_cat(blocks, "e_cref", c_at)[erows]], fresh, tables,
        distinct=True,
    )
    part.set_gids(dim, ids, pool[_cat(blocks, "e_gref", p_at)[erows]])
    e_at = _starts([len(block) for block in blocks])
    created[dim] = (ids[made], e_block[made], erows[made] - e_at[e_block[made]])
    return ids, created


def _remove_elements(part: Part, dim: int, elems: np.ndarray) -> List[np.ndarray]:
    """Destroy dim-``dim`` elements and the boundary entities left unused.

    One closure sweep: the elements go in the order given, then each lower
    dimension loses the closure entities that bound nothing any more, in
    the order a per-element sweep would have reached them (an entity dies
    with the last removed element that holds it) — so the free-lists end
    up exactly as the scalar loop left them.  Part bookkeeping is evicted
    by the destroy listener.  Returns the ids destroyed, per dimension up
    to ``dim``.
    """
    mesh = part.mesh
    core = mesh.core
    elems = np.asarray(elems, dtype=np.int64)
    destroyed = [_NONE] * dim + [elems]
    if not len(elems):
        return destroyed
    streams = _closure_streams(core, dim, elems)
    mesh.destroy_block(dim, elems)
    for d in range(dim - 1, -1, -1):
        flat = streams[d][0]
        _ids, last = np.unique(flat[::-1], return_index=True)
        candidates = flat[np.sort(len(flat) - 1 - last)]
        destroyed[d] = candidates[core.nup[d][candidates] == 0]
        mesh.destroy_block(d, destroyed[d])
    return destroyed


def _remove_element(part: Part, element: Ent) -> None:
    """Destroy one element and its now-unused boundary entities."""
    _remove_elements(part, element.dim, np.array([element.idx]))


# ---------------------------------------------------------------------------
# relink: remote-copy links through the owners, or a hash-home rendezvous
# ---------------------------------------------------------------------------
#
# A *change* row on the wire is ``(dim, owner idx, idx)``: the posting part
# now holds the entity its owner holds at ``Ent(dim, owner idx)`` at
# ``Ent(dim, idx)`` (a copy it created by landing) or, with ``idx == -1``,
# destroyed its copy (a tombstone).  A *candidate* row of the rebuild is
# ``(dim, idx, key...)``: the posting part holds the entity with sorted
# vertex-gid ``key`` at ``Ent(dim, idx)``.  Both are answered with answer
# rows (:mod:`repro.partition.links`).

_NONE = np.empty(0, dtype=np.int64)

#: Changed copies on one part, as columns ``(dims, owner pids, owner
#: handles, own handles)``; an own handle of -1 is a destroyed copy.
Change = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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


def _exchange(
    dmesh: DistributedMesh, tag: int, rows: Dict[int, Rows], local: bool = False
) -> Dict[int, List[Frame]]:
    """One superstep: every part posts its rows to their destinations;
    returns each part's received frames.  With ``local``, a part's rows to
    itself do not go on the wire: they come back as its last frame."""
    router = dmesh.router()
    kept: Dict[int, List[Frame]] = {}
    for pid in sorted(rows):
        dest, lengths, flat = rows[pid]
        if local:
            home = dest == pid
            cut = np.repeat(home, lengths)
            if home.any():
                kept[pid] = [(pid, lengths[home], flat[cut])]
            dest, lengths, flat = dest[~home], lengths[~home], flat[~cut]
        _post_rows(dmesh, router, pid, tag, dest, lengths, flat)
    return {
        pid: [(src, *decode_int_rows(blob)) for src, _tag, blob in inbox]
        + kept.get(pid, [])
        for pid, inbox in router.exchange().items()
    }


def _apply_answers(
    part: Part, frames: Sequence[Frame], stale: Sequence[np.ndarray] = (_NONE,) * 4
) -> None:
    """Replace the links of every entity an answer row names (a row naming
    nobody clears them), and drop those of the ``stale`` ids no answer
    names: one :meth:`~repro.partition.part.Part.replace_links` per
    dimension."""
    lengths, flat = (
        np.concatenate([_NONE, *(frame[k] for frame in frames)]) for k in (1, 2)
    )
    heads = np.cumsum(lengths) - lengths
    dim, ids, pids, rids = answer_columns(lengths, flat)
    for d in range(4):
        row = dim == d
        drop = np.concatenate((stale[d], flat[heads + 1][flat[heads] == d]))
        part.replace_links(d, drop, ids[row], pids[row], rids[row])


def _owner_relink(
    dmesh: DistributedMesh, changes: Dict[int, List[Change]],
    before: Dict[int, List[Links]],
) -> None:
    """Repair the links of every changed entity through its owner.

    Two supersteps: every part posts its changed copies to their owners,
    and every owner answers (:func:`_owner_answers`) from its links as they
    were before removal (``before``).  An owner's own changes and answers
    stay off the wire.  Both exchanges run even when nothing changed, so a
    fixed call sequence costs a fixed superstep count.
    """
    posts: Dict[int, Rows] = {}
    for pid, columns in changes.items():
        dim, opid, oidx, idx = (
            np.concatenate([_NONE, *(col[k] for col in columns)]) for k in range(4)
        )
        order = np.argsort(opid, kind="stable")
        posts[pid] = (
            opid[order], np.full(len(order), 3),
            np.column_stack((dim, oidx, idx))[order].reshape(-1),
        )
    inboxes = _exchange(dmesh, _TAG_CHANGE, posts, local=True)
    responses = _exchange(dmesh, _TAG_LINKS, {
        pid: _owner_answers(pid, frames, before[pid], dmesh.nparts)
        for pid, frames in inboxes.items() if frames
    }, local=True)
    for pid in sorted(responses):
        if responses[pid]:
            _apply_answers(dmesh.part(pid), responses[pid])
    dmesh.counters.add("migration.relinks")


def _owner_answers(
    owner: int, frames: Sequence[Frame], links: Sequence[Links], nparts: int
) -> Rows:
    """One owner's answers to the change rows it got (``frames``, its own
    included), joined with its own copy and its link rows as they were
    before removal; a tombstone cancels the record of the part that
    destroyed its copy.  Entities are coded ``4 * owner handle + dim``."""
    rows = np.concatenate([flat for _src, _n, flat in frames]).reshape(-1, 3)
    src = np.repeat(
        [src for src, _n, _flat in frames], [len(n) for _src, n, _flat in frames]
    )
    code = 4 * rows[:, 1] + rows[:, 0]
    changed = np.unique(code)
    lcode, lpid, lrid = (
        np.concatenate([4 * col[0] + d if k == 0 else col[k]
                        for d, col in enumerate(links)]) for k in range(3)
    )
    old = np.isin(lcode, changed)
    alive = rows[:, 2] >= 0
    entity = np.concatenate((changed, lcode[old], code[alive]))
    holder = np.concatenate((np.full(len(changed), owner), lpid[old], src[alive]))
    handle = np.concatenate((changed // 4, lrid[old], rows[alive, 2]))
    live = ~np.isin(
        entity * nparts + holder, code[~alive] * nparts + src[~alive]
    )
    entity, holder, handle = entity[live], holder[live], handle[live]
    return link_answers(entity % 4, entity[:, None] // 4, holder, handle, lone=True)


def _home_answers(frames: Sequence[Frame]) -> Rows:
    """The rendezvous at one hash home: the candidate frames it received,
    in any order (:func:`link_answers` sorts), to answer rows for every
    holder of a shared key."""
    lengths = np.concatenate([n for _src, n, _flat in frames])
    flat = np.concatenate([flat for _src, _n, flat in frames])
    src = np.repeat(
        [src for src, _n, _flat in frames], [len(n) for _src, n, _flat in frames]
    )
    starts = np.cumsum(lengths) - lengths
    nkey = lengths - 2
    keys = ragged_matrix(flat[ragged_arange(starts + 2, nkey)], nkey, -1)
    return link_answers(flat[starts], keys, src, flat[starts + 1])


def _rendezvous(dmesh: DistributedMesh, posts: Dict[int, Rows]) -> None:
    """Match posted candidates at their hash homes; rewrite every link.

    Two supersteps: every part sends its candidate rows to the rows' homes;
    every home groups what it got and answers each holder of a key with
    two or more holders with the list of the others, which replaces the
    part's links (every old row is stale).  Rows a part would post to
    itself stay off the wire.  Both exchanges run even when
    nothing is posted, so a fixed call sequence costs a fixed superstep
    count.
    """
    inboxes = _exchange(dmesh, _TAG_CANDIDATE, posts, local=True)
    responses = _exchange(dmesh, _TAG_LINKS, {
        home: _home_answers(frames) for home, frames in inboxes.items() if frames
    }, local=True)
    for pid in sorted(responses):
        part = dmesh.part(pid)
        _apply_answers(part, responses[pid], [part.links(d)[0] for d in range(4)])
    dmesh.counters.add("migration.relinks")


def rebuild_links(dmesh: DistributedMesh) -> None:
    """Recompute every remote-copy link from vertex global ids.

    Every part posts all of its surface entities
    (:func:`~repro.partition.links.surface_ids`; ghosts excluded) to the
    hash home ``sum(key) % nparts`` of their keys, and the homes group them
    (:func:`_rendezvous`).  For callers with no migration to take a delta
    from — loaders, distributed adaptation — and the oracle ``migrate``'s
    owner relink is tested against.
    """
    posts = {}
    for part in dmesh:
        homes, lengths, flats = [_NONE], [_NONE], [_NONE]
        for d, ids in enumerate(surface_ids(part)):
            keys = part.entity_keys(d, ids)
            used = keys >= 0
            n = 2 + used.sum(axis=1)
            starts = np.cumsum(n) - n
            flat = np.empty(int(n.sum()), dtype=np.int64)
            flat[starts] = d
            flat[starts + 1] = ids
            flat[ragged_arange(starts + 2, n - 2)] = keys[used]
            homes.append(np.where(used, keys, 0).sum(axis=1) % dmesh.nparts)
            lengths.append(n)
            flats.append(flat)
        home, n, flat = map(np.concatenate, (homes, lengths, flats))
        order = np.argsort(home, kind="stable")
        starts = (np.cumsum(n) - n)[order]
        posts[part.pid] = (
            home[order], n[order], flat[ragged_arange(starts, n[order])]
        )
    _rendezvous(dmesh, posts)
