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
requesters in one call, and each requester lands all the blocks it got in
one call.  Iterating discovery over the previous ring's elements is
star-forest composition in action — the depth-k overlap forest is the
product of k one-ring forests.

Ring discovery, in supersteps:

1. **ring 0** — pushed, as in PUMI, where ghosting is the owner's job: each
   part holding a shared bridge entity queues, for every part holding a
   copy, the owned elements adjacent to it, straight from its own link
   columns (one segmented column join, :func:`_adjacent_queues`); the
   blocks arrive via ``bcast`` — 1 superstep, with or without links;
2. **rings >= 1** — the *front* is the set of bridge entities in the
   closure of every element the previous ring delivered (fresh or already
   held, so deepening a ghosted mesh ends where one clean call does).  A
   ghost front entity is queried at its home part by its key (sorted
   vertex gids); a real shared front entity at every co-holder (1
   exchange).  A home part also *refers* the request to every other real
   holder of the entity (1 exchange) — that referral is what makes the
   depth-k region exact when a ring wraps around a part corner onto a
   third part.  The holders queue through the same join, and the blocks
   again arrive via one ``bcast``: 3 supersteps.

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
from ..parallel.codec import ElementBlock
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
)
from .part import Part

_TAG_REQUEST = 10
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
        delivered: Dict[int, np.ndarray] = {}
        for ring in range(ov.depth):
            with trace_span(dmesh.tracer, f"ghost_layer.layer{ring}"):
                forest = _ring_forest(dmesh, ov.bridge_dim, ring, delivered)
                created, created_per_dim, delivered = _fill_ring(
                    dmesh, forest, tags
                )
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The owned elements adjacent to ``bridges``, queued per segment.

    ``bridges`` are bridge-dim ids in processing order and ``seg`` labels
    each with its segment (the part the elements go to).  One segmented
    column join: ``gather_up`` hop by hop up to the elements, keeping each
    segment's first occurrences, then ghosts dropped — per segment exactly
    the order a walk of ``Mesh.adjacent`` over its bridges gives with
    repeats skipped.  Returns the elements, their segments and, for each,
    the position in ``bridges`` of the bridge that reached it first.
    """
    core = part.mesh.core
    ids = np.asarray(bridges, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.int64)
    src = np.arange(len(ids))
    for d in range(bdim, dim):
        counts = core.nup[d][ids]
        ids = core.gather_up(d, ids).astype(np.int64)
        seg, src = np.repeat(seg, counts), np.repeat(src, counts)
        first = first_seen(seg * (int(ids.max(initial=0)) + 1) + ids)[0]
        ids, seg, src = ids[first], seg[first], src[first]
    owned = ~np.isin(ids, part.ghost_ids(dim))
    return ids[owned], seg[owned], src[owned]


def _forest(
    dmesh: DistributedMesh,
    queues: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ring: int,
) -> StarForest:
    """The star forest of one ring from each owner's queued ``(elements,
    requester parts)``, grouped by requester in queue order.

    Roots are ``(owner part, element)``; a requester's leaves number its
    queues back to back, owners ascending, so each pair's ``bcast`` batch
    keeps its queue order.
    """
    offset = np.zeros(dmesh.nparts, dtype=np.int64)
    pairs = {}
    for owner in sorted(queues):
        elems, seg = queues[owner]
        cuts = np.flatnonzero(np.diff(seg)) + 1
        for run in np.split(np.arange(len(seg)), cuts) if len(seg) else ():
            requester = int(seg[run[0]])
            pairs[(owner, requester)] = (
                elems[run], offset[requester] + np.arange(len(run))
            )
            offset[requester] += len(run)
    return StarForest.from_columns(dmesh, pairs, name=f"ghost.ring{ring}")


def _ring_forest(
    dmesh: DistributedMesh, bdim: int, ring: int,
    delivered: Dict[int, np.ndarray],
) -> StarForest:
    """Discovery pass: the star forest of one overlap ring — ring 0 pushed
    by the owners, later rings pulled from the previous ring's front."""
    if ring == 0:
        return _push_forest(dmesh, bdim)
    return _pull_forest(dmesh, bdim, ring, delivered)


def _push_forest(dmesh: DistributedMesh, bdim: int) -> StarForest:
    """Ring 0, pushed: every owner queues, for each part it shares bridge
    entities with, the owned elements adjacent to them.

    An owner's link rows to part ``q``, sorted by ``q``'s handle, are the
    requests ``q`` would post for the same elements, in the order they
    would arrive — so the queues, and the blocks on the wire, are the ones
    a request round would produce, without the round.
    """
    dim = dmesh.element_dim()
    queues = {}
    for part in dmesh:
        ids, pids, rids = part.links(bdim)
        order = np.lexsort((rids, pids))
        elems, seg, _src = _adjacent_queues(
            part, dim, bdim, ids[order], pids[order]
        )
        queues[part.pid] = (elems, seg)
    return _forest(dmesh, queues, 0)


def _pull_forest(
    dmesh: DistributedMesh, bdim: int, ring: int,
    delivered: Dict[int, np.ndarray],
) -> StarForest:
    """Rings >= 1: the front, requested, referred and queued.

    The *front* is the set of bridge entities in the closure of every
    element the previous ring delivered.  A ghost front entity is queried
    at its home part by its key (sorted vertex gids), a real shared one at
    every co-holder;
    each request names the gids the requester already holds around the
    entity, and the home refers ``front`` requests to the entity's other
    real holders (the ring may wrap a part corner onto a part the requester
    never linked to).  Interior front entities need no query — every
    element adjacent to them is already local.
    """
    dim = dmesh.element_dim()
    router = dmesh.router()
    for part in dmesh:
        elems = delivered.get(part.pid, _NONE)
        if not len(elems):
            continue
        mesh = part.mesh
        front = np.unique(_closure_streams(mesh.core, dim, elems)[bdim][0])
        for idx in front.tolist():
            b = Ent(bdim, idx)
            have = tuple(sorted(part.gid(e) for e in mesh.adjacent(b, dim)))
            if part.is_ghost(b):
                router.post(
                    part.pid, part.owner(b), _TAG_REQUEST,
                    ("front", part.entity_key(b), have),
                )
                continue
            pids, rids = part.copies(b)
            for dest, rid in zip(pids.tolist(), rids.tolist()):
                router.post(
                    part.pid, dest, _TAG_REQUEST,
                    ("bridge", Ent(bdim, rid), have),
                )
    requests = router.exchange()

    # Per owner, its requests in processing order: (requester, bridge id,
    # gids the requester holds) — the direct ones, then the referred ones.
    asked: Dict[int, List[Tuple[int, int, Tuple[int, ...]]]] = {}
    router = dmesh.router()
    for pid in sorted(requests):
        part = dmesh.part(pid)
        for src, _tag, (kind, ref, have) in requests[pid]:
            if kind == "bridge":
                ent = ref
                if not part.mesh.has(ent):
                    continue
            else:  # "front": resolve the requester's ghost by its key
                ent = part.by_key(bdim, ref)
                if ent is None:
                    continue
                pids, rids = part.copies(ent)
                for q_pid, rid in zip(pids.tolist(), rids.tolist()):
                    if q_pid == src:
                        continue
                    router.post(
                        part.pid, q_pid, _TAG_REFER,
                        ("refer", Ent(bdim, rid), src, have),
                    )
            asked.setdefault(pid, []).append((src, ent.idx, have))
    referrals = router.exchange()
    for pid in sorted(referrals):
        part = dmesh.part(pid)
        for _src, _tag, (_kind, ent, requester, have) in referrals[pid]:
            if not part.mesh.has(ent) or part.is_ghost(ent):
                continue
            asked.setdefault(pid, []).append((requester, ent.idx, have))

    queues = {}
    for pid in sorted(asked):
        part = dmesh.part(pid)
        rows = asked[pid]
        requester = np.fromiter((r[0] for r in rows), np.int64, len(rows))
        order = np.argsort(requester, kind="stable")
        bridges = np.fromiter((r[1] for r in rows), np.int64, len(rows))
        elems, seg, src = _adjacent_queues(
            part, dim, bdim, bridges[order], requester[order]
        )
        # An element the requester already holds is skipped, not re-sent.
        haves = [rows[k][2] for k in order.tolist()]
        held_at = np.repeat(np.arange(len(haves)), [len(h) for h in haves])
        held = np.fromiter(
            (g for h in haves for g in h), np.int64, len(held_at)
        )
        gids = part.gids_of(dim, elems)
        base = int(max(held.max(initial=0), gids.max(initial=0))) + 1
        new = ~np.isin(src * base + gids, held_at * base + held)
        queues[pid] = (elems[new], seg[new])
    return _forest(dmesh, queues, ring)


def _fill_ring(
    dmesh: DistributedMesh, forest: StarForest, tags: Sequence[str]
) -> Tuple[int, List[int], Dict[int, np.ndarray]]:
    """One ``bcast`` of element-closure blocks materializes the ring.

    Each owner packs the blocks of all its requesters in one call, and each
    requester lands every block it got in one call.  Returns the ghost
    elements created, the entities created per dimension and, per part,
    every element the ring delivered (fresh or already held).
    """
    dim = dmesh.element_dim()
    per_dim = [0, 0, 0, 0]
    created_total = 0
    delivered: Dict[int, np.ndarray] = {}
    outgoing = forest.outgoing(by_root=False)
    packed: Dict[Tuple[int, int], ElementBlock] = {}

    # The forest asks for batches owner by owner: one owner's blocks are
    # packed at a time.
    def pack(owner: int, requester: int, _elements: Any) -> ElementBlock:
        if (owner, requester) not in packed:
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
        return packed.pop((owner, requester))

    def land(pid: int, blocks: List[ElementBlock]) -> None:
        nonlocal created_total
        with trace_span(dmesh.tracer, "ghost_layer.land"):
            created, elems = _land_ghost_blocks(dmesh.part(pid), blocks, per_dim)
        created_total += created
        delivered[pid] = np.concatenate((delivered.get(pid, _NONE), elems))

    receive, flush = _by_receiver(land)
    forest.bcast(batch_data=pack, batch_set=receive, datatype=BUNDLES)
    flush()
    dmesh.counters.add("ghosting.elements", created_total)
    return created_total, per_dim, delivered


def _land_ghost_blocks(
    part: Part, blocks: List[ElementBlock], per_dim: List[int]
) -> Tuple[int, np.ndarray]:
    """Land the ghost blocks one part received in one ring.

    Bundles whose element the part already holds (or that an earlier block
    of the ring brought) are skipped.  Every entity the landing *created* —
    and only those — is registered as a ghost of its block's owner part;
    ``per_dim`` accumulates them per dimension.  Returns the number of new
    ghost elements and the local ids of every element the blocks
    delivered, held before or not.
    """
    for block in blocks:
        if len(block.home_pid) != len(block):
            raise ValueError("ghost block carries a bundle without a home")
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return 0, _NONE
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
    # What the ring delivered: the kept elements and the held ones.
    return len(ids), np.concatenate((ids, np.fromiter(
        (held[gid] for gid in gids[~keep].tolist() if gid in held), np.int64
    )))


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
