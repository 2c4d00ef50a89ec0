"""Ghosting: read-only off-part element copies in a depth-k overlap.

"Ghosting: a procedure to localize off-part mesh entities to avoid off-node
communications for computations.  A ghost is a read-only, duplicated,
off-part internal entity copy including tag data" (paper, Section II-C).

:func:`ghost_layer` gives every part a copy of the off-part elements within
``depth`` rings of its boundary, where one ring is adjacency through a
chosen bridge dimension.  The whole procedure is expressed over the
:class:`~repro.parallel.sf.StarForest` primitive: each ring, a discovery
pass builds the forest whose roots are owned elements and whose leaves are
the parts that need copies of them, and one ``bcast`` of element-closure
blocks materializes the ring — each owner packs the blocks of all its
receivers in one call, and each receiver lands all the blocks it got in
one call.  Iterating discovery over the previous ring's elements is
star-forest composition in action — the depth-k overlap forest is the
product of k one-ring forests.

Ring discovery is the owners' job, as in PUMI: each part remembers which
of its elements it has shipped to which part in this call, and pushes every
ring from there, in supersteps:

1. **ring 0** — every part holding a shared bridge entity queues, for each
   part holding a copy, the owned elements adjacent to it, straight from
   its own link columns (one segmented column join,
   :func:`_adjacent_queues`); the blocks arrive via ``bcast`` — 1
   superstep, with or without links;
2. **rings >= 1** — an owner pairs every bridge entity in the closure of
   the elements it shipped to a part ``R`` in the previous ring with
   ``R``, and refers each pair to the entity's other real holders but
   ``R``, which its links name (1 exchange of two int columns: the
   holder's handle and ``R``).  The elements adjacent to the entity all
   live on its real holders, so this reaches a third part the ring wraps
   onto around a part corner.  Every part queues its own and the referred
   pairs through the same join, drops what it already shipped to that
   part, and the blocks again arrive via one ``bcast``: 2 supersteps.

An element is real on one part only, so only that part ships it, and the
front never depends on what ``R`` held before the call: deepening a
ghosted mesh ends where one clean call does (an element ``R`` held from an
earlier call is re-shipped, and landing skips it).

Ghost elements and the closure entities created for them are marked on the
receiving part: they are excluded from load accounting, never own
anything, and are stripped wholesale by :func:`delete_ghosts` (required
before any migration).  Requested tag values travel with the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.core import first_seen
from ..mesh.entity import Ent
from ..parallel.codec import ElementBlock, decode_int_rows
from ..obs.stats import CommProbe, GhostDeleteStats, GhostStats
from ..obs.tracer import trace_span
from ..parallel.sf import BUNDLES, StarForest
from .dmesh import DistributedMesh
from .migration import (
    _NONE,
    _by_receiver,
    _closure_streams,
    _land_blocks,
    _pack_blocks,
    _post_rows,
)
from .links import ragged_arange
from .part import Part

_TAG_REFER = 12


@dataclass(frozen=True)
class Overlap:
    """Configuration of a depth-k ghost overlap.

    ``depth`` rings of elements are ghosted, each ring being adjacency
    through ``bridge_dim`` (vertices give the widest ring, faces the
    narrowest).
    """

    depth: int = 1
    bridge_dim: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"overlap depth must be >= 0, got {self.depth}")
        if not 0 <= self.bridge_dim <= 2:
            raise ValueError(
                f"bridge dimension must be in [0, 2], got {self.bridge_dim}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"depth": self.depth, "bridge_dim": self.bridge_dim}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Overlap":
        return cls(
            depth=int(payload.get("depth", 1)),
            bridge_dim=int(payload.get("bridge_dim", 0)),
        )

    @classmethod
    def coerce(cls, value: Any) -> "Overlap":
        """Accept an :class:`Overlap` or its dict form."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(
            f"expected an Overlap or a dict, got {type(value).__name__}"
        )


def _resolve_overlap(overlap: Optional[Any], depth: Optional[int]) -> Overlap:
    """Map the accepted argument spellings onto one :class:`Overlap`."""
    if overlap is not None:
        if depth is not None:
            raise ValueError("pass either overlap= or depth=, not both")
        return Overlap.coerce(overlap)
    if depth is not None:
        return Overlap(depth=depth)
    return Overlap()


def ghost_layer(
    dmesh: DistributedMesh,
    *,
    tags: Sequence[str] = (),
    overlap: Optional[Any] = None,
    depth: Optional[int] = None,
) -> GhostStats:
    """Create a depth-k ghost overlap; returns a :class:`GhostStats` record.

    The overlap is configured with ``overlap=Overlap(...)`` (or the
    ``depth=k`` shortcut for ``Overlap(depth=k)``).  ``tags`` lists tag
    names whose element values are copied along.

    ``stats.ghosts_created`` counts ghost *elements*; ``per_dimension``
    additionally counts the closure entities (vertices, edges, faces) the
    copies brought along; ``stats.layers`` echoes the overlap depth and
    ``stats.sf_ops`` the star-forest broadcasts executed (one per ring).
    """
    ov = _resolve_overlap(overlap, depth)
    dim = dmesh.element_dim()
    if not 0 <= ov.bridge_dim < dim:
        raise ValueError(
            f"bridge dimension must be below the element dimension {dim}"
        )
    probe = CommProbe(dmesh.counters)
    total = 0
    per_dim = [0, 0, 0, 0]
    sf_ops = 0
    with trace_span(
        dmesh.tracer, "ghost_layer",
        depth=ov.depth, bridge_dim=ov.bridge_dim,
    ):
        shipped = [_NONE] * dmesh.nparts
        forest = None
        for ring in range(ov.depth):
            with trace_span(dmesh.tracer, f"ghost_layer.layer{ring}"):
                forest = _push_forest(
                    dmesh, ov.bridge_dim, ring, forest, shipped
                )
                created, created_per_dim = _fill_ring(dmesh, forest, tags)
            sf_ops += 1
            total += created
            for d in range(4):
                per_dim[d] += created_per_dim[d]
    return GhostStats(
        ghosts_created=total,
        layers=ov.depth,
        per_dimension=tuple(per_dim),
        sf_ops=sf_ops,
        **probe.cost(),
    )


def _adjacent_queues(
    part: Part, dim: int, bdim: int, bridges: np.ndarray, seg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The owned elements adjacent to ``bridges``, queued per segment.

    ``bridges`` are bridge-dim ids in processing order and ``seg`` labels
    each with its segment (the part the elements go to).  One segmented
    column join: ``gather_up`` hop by hop up to the elements, keeping each
    segment's first occurrences, then ghosts dropped — per segment exactly
    the order a walk of ``Mesh.adjacent`` over its bridges gives with
    repeats skipped.  Returns the elements and their segments.
    """
    core = part.mesh.core
    ids = np.asarray(bridges, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.int64)
    for d in range(bdim, dim):
        seg = np.repeat(seg, core.nup[d][ids])
        ids = core.gather_up(d, ids).astype(np.int64)
        first = first_seen(seg * (int(ids.max(initial=0)) + 1) + ids)[0]
        ids, seg = ids[first], seg[first]
    owned = ~np.isin(ids, part.ghost_ids(dim))
    return ids[owned], seg[owned]


def _forest(
    dmesh: DistributedMesh,
    queues: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ring: int,
) -> StarForest:
    """The star forest of one ring from each owner's queued ``(elements,
    receiver parts)``, grouped by receiver in queue order.

    Roots are ``(owner part, element)``; a receiver's leaves number its
    queues back to back, owners ascending, so each pair's ``bcast`` batch
    keeps its queue order.
    """
    offset = np.zeros(dmesh.nparts, dtype=np.int64)
    pairs = {}
    for owner in sorted(queues):
        elems, seg = queues[owner]
        cuts = np.flatnonzero(np.diff(seg)) + 1
        for run in np.split(np.arange(len(seg)), cuts) if len(seg) else ():
            receiver = int(seg[run[0]])
            pairs[(owner, receiver)] = (
                elems[run], offset[receiver] + np.arange(len(run))
            )
            offset[receiver] += len(run)
    return StarForest.from_columns(dmesh, pairs, name=f"ghost.ring{ring}")


def _push_forest(
    dmesh: DistributedMesh, bdim: int, ring: int,
    prev: Optional[StarForest], shipped: List[np.ndarray],
) -> StarForest:
    """Discovery pass: the star forest of one overlap ring, pushed by the
    owners.

    Every part queues, per receiver, the owned elements adjacent to its
    front pairs ``(bridge entity, receiver)`` — ring 0's from its links,
    later rings' from what the previous ring shipped — minus what it
    already shipped to that receiver in this call.  ``shipped`` holds, per
    part, the codes ``element * nparts + receiver`` of every element it
    has queued so far, and grows by this ring's.
    """
    dim = dmesh.element_dim()
    nparts = dmesh.nparts
    front = _link_front(dmesh, bdim) if prev is None else _ring_front(
        dmesh, bdim, prev
    )
    queues = {}
    for part in dmesh:
        elems, seg = _adjacent_queues(part, dim, bdim, *front[part.pid])
        codes = elems * nparts + seg
        new = ~np.isin(codes, shipped[part.pid])
        shipped[part.pid] = np.concatenate((shipped[part.pid], codes[new]))
        queues[part.pid] = (elems[new], seg[new])
    return _forest(dmesh, queues, ring)


def _link_front(
    dmesh: DistributedMesh, bdim: int
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Ring 0's front pairs: every shared bridge entity, for each part
    holding a copy of it.

    An owner's link rows to part ``q``, sorted by ``q``'s handle, are the
    requests ``q`` would post for the same elements, in the order they
    would arrive — so the queues, and the blocks on the wire, are the ones
    a request round would produce, without the round.
    """
    front = {}
    for part in dmesh:
        ids, pids, rids = part.links(bdim)
        order = np.lexsort((rids, pids))
        front[part.pid] = (ids[order], pids[order])
    return front


def _ring_front(
    dmesh: DistributedMesh, bdim: int, prev: StarForest
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """The front pairs of a ring >= 1, found at the owners (1 exchange).

    A part that shipped elements to a receiver ``R`` in the previous ring
    pairs every bridge entity in their closure with ``R``, and refers each
    pair to every other real holder of the entity but ``R``: the elements
    adjacent to it all live on its real holders, which its links name.
    Per part, its own pairs and the ones referred to it, sorted by
    receiver.
    """
    dim = dmesh.element_dim()
    nparts = dmesh.nparts
    outgoing = prev.outgoing(by_root=False)
    own = {}
    router = dmesh.router()
    for part in dmesh:
        elems, runs = outgoing.get(part.pid, (_NONE, {}))
        receiver = np.repeat(
            np.fromiter(runs, np.int64, len(runs)),
            [run.stop - run.start for run in runs.values()],
        )
        flat, counts = _closure_streams(part.mesh.core, dim, elems)[bdim]
        own[part.pid] = np.unique(
            flat.astype(np.int64) * nparts + np.repeat(receiver, counts)
        )
        bridges, receivers = np.divmod(own[part.pid], nparts)
        ids, pids, rids = part.links(bdim)
        lo, hi = ids.searchsorted(bridges), ids.searchsorted(bridges, "right")
        rows = ragged_arange(lo, hi - lo)
        receivers = np.repeat(receivers, hi - lo)
        other = pids[rows] != receivers
        order = np.argsort(pids[rows[other]], kind="stable")
        rows, receivers = rows[other][order], receivers[other][order]
        _post_rows(
            dmesh, router, part.pid, _TAG_REFER, pids[rows],
            np.full(len(rows), 2, dtype=np.int64),
            np.column_stack((rids[rows], receivers)).reshape(-1),
        )
    referred = router.exchange()
    front = {}
    for part in dmesh:
        pairs = [
            decode_int_rows(blob)[1].reshape(-1, 2)
            for _src, _tag, blob in referred.get(part.pid, ())
        ]
        codes = np.unique(np.concatenate([own[part.pid], *(
            pair[:, 0] * nparts + pair[:, 1] for pair in pairs
        )]))
        codes = codes[np.argsort(codes % nparts, kind="stable")]
        front[part.pid] = np.divmod(codes, nparts)
    return front


def _fill_ring(
    dmesh: DistributedMesh, forest: StarForest, tags: Sequence[str]
) -> Tuple[int, List[int]]:
    """One ``bcast`` of element-closure blocks materializes the ring.

    Each owner packs the blocks of all its receivers in one call, and each
    receiver lands every block it got in one call.  Returns the ghost
    elements created and the entities created per dimension.
    """
    dim = dmesh.element_dim()
    per_dim = [0, 0, 0, 0]
    created_total = 0
    outgoing = forest.outgoing(by_root=False)
    packed: Dict[Tuple[int, int], ElementBlock] = {}

    # The forest asks for batches owner by owner: one owner's blocks are
    # packed at a time.
    def pack(owner: int, receiver: int, _elements: Any) -> ElementBlock:
        if (owner, receiver) not in packed:
            elems, runs = outgoing[owner]
            part = dmesh.part(owner)
            with trace_span(dmesh.tracer, "ghost_layer.pack"):
                packed.update(zip(
                    ((owner, q) for q in runs),
                    _pack_blocks(
                        part.mesh, part.gid_array(0), part.gid_array(dim),
                        dim, elems,
                        [run.stop - run.start for run in runs.values()],
                        home=owner, tags=tags,
                    ),
                ))
        return packed.pop((owner, receiver))

    def land(pid: int, blocks: List[ElementBlock]) -> None:
        nonlocal created_total
        with trace_span(dmesh.tracer, "ghost_layer.land"):
            created_total += _land_ghost_blocks(
                dmesh.part(pid), blocks, per_dim
            )

    receive, flush = _by_receiver(land)
    forest.bcast(batch_data=pack, batch_set=receive, datatype=BUNDLES)
    flush()
    dmesh.counters.add("ghosting.elements", created_total)
    return created_total, per_dim


def _land_ghost_blocks(
    part: Part, blocks: List[ElementBlock], per_dim: List[int]
) -> int:
    """Land the ghost blocks one part received in one ring.

    Bundles whose element the part already holds (or that an earlier block
    of the ring brought) are skipped.  Every entity the landing *created* —
    and only those — is registered as a ghost of its block's owner part;
    ``per_dim`` accumulates them per dimension.  Returns the number of new
    ghost elements.
    """
    for block in blocks:
        if len(block.home_pid) != len(block):
            raise ValueError("ghost block carries a bundle without a home")
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return 0
    dim = int(blocks[0].e_dim[0])
    held = part._by_gid[dim]
    gids = np.concatenate([block.gids[block.e_gref] for block in blocks])
    keep = np.zeros(len(gids), dtype=bool)
    keep[first_seen(gids)[0]] = True
    keep &= np.fromiter(
        (gid not in held for gid in gids.tolist()), dtype=bool, count=len(gids)
    )
    cuts = np.cumsum([len(block) for block in blocks])[:-1]
    ids, created = _land_blocks(part, blocks, np.split(keep, cuts))
    owner = np.asarray([int(block.home_pid[0]) for block in blocks])
    for d in range(4):
        per_dim[d] += len(created[d][0])
        if d != dim:
            part.add_ghosts(d, created[d][0], owner[created[d][1]], -1)
    home_pid = np.concatenate([block.home_pid for block in blocks])[keep]
    home_idx = np.concatenate([block.home_idx for block in blocks])[keep]
    fresh = np.isin(ids, created[dim][0])
    part.add_ghosts(dim, ids[fresh], home_pid[fresh], home_idx[fresh])
    if any(block.tags for block in blocks):
        mesh = part.mesh
        entries = [
            entry for block in blocks
            for entry in (block.tags or [{}] * len(block))
        ]
        for idx, entry in zip(
            ids.tolist(), (e for e, k in zip(entries, keep.tolist()) if k)
        ):
            for name, value in entry.items():
                if value is not None:
                    mesh.tag(name).set(Ent(dim, idx), value)
    return len(ids)


def delete_ghosts(dmesh: DistributedMesh) -> GhostDeleteStats:
    """Remove every ghost entity from every part.

    Returns a :class:`GhostDeleteStats` record; deletion is purely local,
    so its communication fields are always zero.
    """
    probe = CommProbe(dmesh.counters)
    removed = 0
    per_dim = [0, 0, 0, 0]
    with trace_span(dmesh.tracer, "delete_ghosts"):
        for part in dmesh:
            mesh = part.mesh
            core = mesh.core
            by_dim = [part.ghost_ids(d) for d in range(4)]
            # Emptied first: the part's destroy listener then has no ghost
            # entries to evict.
            part.clear_ghosts()
            for d in range(3, -1, -1):
                ids = by_dim[d][::-1]
                # A ghost that still bounds a surviving entity was promoted
                # to a real boundary entity of this part and must stay.
                ids = ids[core.nup[d][ids] == 0]
                mesh.destroy_block(d, ids)
                removed += len(ids)
                per_dim[d] += len(ids)
    dmesh.counters.add("ghosting.deleted", removed)
    return GhostDeleteStats(
        entities_removed=removed,
        per_dimension=tuple(per_dim),
        **probe.cost(),
    )
