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
bundles materializes the ring.  Iterating discovery over the previous
ring's new elements is star-forest composition in action — the depth-k
overlap forest is the product of k one-ring forests.

Ring discovery, in supersteps:

1. **ring 0** — each part asks every co-holder of a shared bridge entity
   for the elements adjacent to it (1 exchange), then the bundles arrive
   via ``bcast`` (1 exchange);
2. **rings ≥ 1** — the *front* is the set of bridge entities in the
   closure of the previous ring's new ghost elements.  A ghost front
   entity is queried at its home part by global id; a real shared front
   entity at every co-holder (1 exchange).  A home part also *refers*
   the request to every other real holder of the entity (1 exchange) —
   that referral is what makes the depth-k region exact when a ring wraps
   around a part corner onto a third part.  Bundles again arrive via one
   ``bcast``.

Ghost elements and the closure entities created for them are marked on the
receiving part: they are excluded from load accounting, never own
anything, and are stripped wholesale by :func:`delete_ghosts` (required
before any migration).  Requested tag values travel with the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..mesh.entity import Ent
from ..parallel.codec import ElementBlock
from ..obs.stats import CommProbe, GhostDeleteStats, GhostStats
from ..obs.tracer import trace_span
from ..parallel.sf import BUNDLES, StarForest
from .dmesh import DistributedMesh
from .migration import _land_block, _pack_block
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
        prev_new: Dict[int, List[Ent]] = {}
        for ring in range(ov.depth):
            with trace_span(dmesh.tracer, f"ghost_layer.layer{ring}"):
                forest = _ring_forest(
                    dmesh, ov, ring, first=(ring == 0), prev_new=prev_new
                )
                created, created_per_dim, prev_new = _fill_ring(
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
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def _ring_front(
    part: Part, new_elems: List[Ent], bridge_dim: int, dim: int
) -> List[Ent]:
    """Bridge entities in the closure of the previous ring's new elements."""
    front: Set[Ent] = set()
    for element in new_elems:
        if element.dim != dim:
            continue
        front.update(part.mesh.adjacent(element, bridge_dim))
    return sorted(front)


def _queue_adjacent(
    part: Part,
    ent: Ent,
    dim: int,
    requester: int,
    have: frozenset,
    queues: Dict[Tuple[int, int], List[Ent]],
    seen: Dict[Tuple[int, int], Set[Ent]],
) -> None:
    """Queue ``ent``'s adjacent owned elements for ``requester``.

    ``have`` is the requester's set of already-held element gids — those
    are marked seen without queueing, so repeat rings do not re-ship what
    the requester materialized earlier.
    """
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


def _ring_forest(
    dmesh: DistributedMesh,
    ov: Overlap,
    ring: int,
    first: bool,
    prev_new: Dict[int, List[Ent]],
) -> StarForest:
    """Discovery pass: build the star forest of one overlap ring.

    Roots are ``(owner part, element)``; leaves are
    ``(requester part, (owner part, ordinal))`` where the ordinal is the
    element's position in the owner→requester queue — which makes the
    ``bcast`` batch layout bundle-for-bundle identical to the pre-SF
    pull protocol's on ring 0.
    """
    dim = dmesh.element_dim()
    bdim = ov.bridge_dim
    router = dmesh.router()

    if first:
        # Ring 0: ask every co-holder of a shared bridge entity for the
        # elements adjacent to it (all holders are known: remote-copy
        # links are complete among real copies).
        for part in dmesh:
            _ids, pids, rids = part.links(bdim)
            for dest, rid in zip(pids.tolist(), rids.tolist()):
                router.post(
                    part.pid, dest, _TAG_REQUEST,
                    ("bridge", Ent(bdim, rid), ()),
                )
    else:
        # Rings >= 1: query the front.  Ghost front entities are resolved
        # at their home part by gid; real shared ones at every co-holder.
        # Interior front entities need no query — every element adjacent
        # to them is already local.
        for part in dmesh:
            mesh = part.mesh
            for b in _ring_front(part, prev_new.get(part.pid, []), bdim, dim):
                have = tuple(sorted(
                    part.gid(e) for e in mesh.adjacent(b, dim)
                ))
                if part.is_ghost(b):
                    router.post(
                        part.pid, part.owner(b), _TAG_REQUEST,
                        ("front", part.gid(b), have),
                    )
                    continue
                pids, rids = part.copies(b)
                for dest, rid in zip(pids.tolist(), rids.tolist()):
                    router.post(
                        part.pid, dest, _TAG_REQUEST,
                        ("bridge", Ent(bdim, rid), have),
                    )

    requests = router.exchange()

    queues: Dict[Tuple[int, int], List[Ent]] = {}
    seen: Dict[Tuple[int, int], Set[Ent]] = {}
    refer = not first
    if refer:
        router = dmesh.router()
    for pid in sorted(requests):
        part = dmesh.part(pid)
        for src, _tag, (kind, ref, have) in requests[pid]:
            have_set = frozenset(have)
            if kind == "bridge":
                ent = ref
                if not part.mesh.has(ent):
                    continue
            else:  # "front": resolve the requester's ghost by gid
                ent = part.by_gid(bdim, ref)
                if ent is None or not part.mesh.has(ent):
                    continue
                if refer:
                    pids, rids = part.copies(ent)
                    for q_pid, rid in zip(pids.tolist(), rids.tolist()):
                        if q_pid == src:
                            continue
                        router.post(
                            part.pid, q_pid, _TAG_REFER,
                            ("refer", Ent(bdim, rid), src, have),
                        )
            _queue_adjacent(part, ent, dim, src, have_set, queues, seen)

    if refer:
        # Referral pass: home parts forwarded corner-wrapping requests to
        # the other real holders; those holders queue their elements for
        # the *original* requester.
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


def _fill_ring(
    dmesh: DistributedMesh, forest: StarForest, tags: Sequence[str]
) -> Tuple[int, List[int], Dict[int, List[Ent]]]:
    """One ``bcast`` of element-closure blocks materializes the ring."""
    dim = dmesh.element_dim()
    per_dim = [0, 0, 0, 0]
    created_total = 0
    new_elements: Dict[int, List[Ent]] = {}

    def pack(owner: int, _requester: int, elements: List[Ent]) -> ElementBlock:
        return _pack_block(
            dmesh.part(owner), dim,
            np.fromiter((e.idx for e in elements), np.int64, len(elements)),
            home=True, tags=tags,
        )

    def land(requester: int, _owner: int, block: ElementBlock) -> None:
        nonlocal created_total
        fresh = _land_ghost_block(dmesh.part(requester), block, per_dim)
        created_total += len(fresh)
        new_elements.setdefault(requester, []).extend(fresh)

    forest.bcast(batch_data=pack, batch_set=land, datatype=BUNDLES)
    dmesh.counters.add("ghosting.elements", created_total)
    return created_total, per_dim, new_elements


def _land_ghost_block(
    part: Part, block: ElementBlock, per_dim: List[int]
) -> List[Ent]:
    """Land one received ghost block; returns the new ghost elements.

    Bundles whose element the part already holds are skipped.  Every
    entity the landing *created* — and only those, whether or not they
    carry a gid — is registered as a ghost of the block's owner part;
    ``per_dim`` accumulates them per dimension.
    """
    if not len(block):
        return []
    if len(block.home_pid) != len(block):
        raise ValueError("ghost block carries a bundle without a home")
    dim = int(block.e_dim[0])
    held = part._by_gid[dim]
    keep = np.fromiter(
        (gid not in held for gid in block.gids[block.e_gref].tolist()),
        dtype=bool, count=len(block),
    )
    if not keep.any():
        return []
    ids, created = _land_block(part, block, keep)
    elements = [Ent(dim, idx) for idx in ids.tolist()]
    # A ghost block comes from one owner part; the closure entities'
    # handles there are not shipped.
    home_pid = block.home_pid[keep]
    for d in range(4):
        per_dim[d] += len(created[d])
        if d != dim:
            part.add_ghosts(d, created[d], home_pid[0], -1)
    fresh = np.isin(ids, created[dim])
    part.add_ghosts(dim, ids[fresh], home_pid[fresh], block.home_idx[keep][fresh])
    if block.tags:
        mesh = part.mesh
        tags = [t for t, kept in zip(block.tags, keep.tolist()) if kept]
        for element, values in zip(elements, tags):
            for name, value in values.items():
                if value is not None:
                    mesh.tag(name).set(element, value)
    return elements


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
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
    )
