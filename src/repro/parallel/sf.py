"""Star forest: the one communication primitive behind every exchange.

Knepley, Lange & Gorman (arXiv 1506.06194) observe that the sharing
structure of a distributed mesh — owners with read-only copies scattered
over other processes — is a *star forest*: a disjoint union of stars, each
a root (the owned entity) pointing at its leaves (the copies).  Every
distributed-mesh service then reduces to two collective patterns over that
one map:

* :meth:`StarForest.bcast` — root values travel to their leaves
  (migration's pack/send, ghost-bundle delivery, owner→copy field sync,
  the store's record redistribution);
* :meth:`StarForest.reduce` — leaf values combine onto their root with a
  pluggable op (field accumulation's copy→owner sums).

The forest maps ``(leaf part, leaf handle) -> (root part, root handle)``
where a handle is any hashable, sortable local designator (an
:class:`~repro.mesh.entity.Ent`, an integer ordinal, a tuple).  It is built
leaf by leaf (:meth:`StarForest.add_leaf`) or set whole from integer
columns (:meth:`StarForest.from_columns`); either way each operation's wire
order, and ``reduce``'s fold plan, is derived once and kept until the graph
changes — set the graph once, communicate over it many times.  There is one engine: payloads move
per part pair, one batch each way, columns in and out.  The per-item
callback spelling (one payload per handle) is an adapter that lists each
pair's batch and hands it to the same engine, so both spellings put the
same frames on the wire.  Payloads ride the coalesced binary codec
(:mod:`repro.parallel.codec`): one encoded buffer per communicating part
pair per operation, with the wire schema chosen by an :class:`SFDatatype`
(generic values, field-value columns, element-closure blocks).  Every
operation is one BSP superstep, charges ``sf.*`` counters, opens a
superstep-aligned span on the communicator's tracer, and returns a
byte-deterministic :class:`~repro.obs.stats.SFStats` record.

The communicator is duck-typed: anything exposing ``nparts``,
``counters``, ``tracer`` and ``router()`` works —
:class:`~repro.partition.dmesh.DistributedMesh` does, and the standalone
:class:`SFComm` serves forest users with no mesh at all.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.entity import Ent
from ..obs.stats import CommProbe, SFStats
from ..obs.tracer import Tracer, current as current_tracer, trace_span
from .codec import (
    CodecError,
    decode_element_block,
    decode_value_batch,
    decode_value_columns,
    dumps,
    encode_element_block,
    encode_value_columns,
    loads,
    value_head,
)
from .network import Network
from .perf import GLOBAL, PerfCounters
from .routing import BufferedRouter
from .topology import MachineTopology, flat

__all__ = [
    "OPS",
    "SFComm",
    "SFDatatype",
    "StarForest",
    "GENERIC",
    "VALUES",
    "BUNDLES",
]

#: Reduction operators accepted by :meth:`StarForest.reduce`.
OPS = ("replace", "sum", "min", "max")

_TAG_SF = 40

#: ``{(root part, leaf part): (root handles, leaf handles)}`` in wire order.
Pairs = Dict[Tuple[int, int], Tuple[Sequence[Any], Sequence[Any]]]


def _combine(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fold ``b`` into ``a`` under ``op``, elementwise."""
    if op == "replace":
        return b
    if op == "sum":
        return a + b
    return np.minimum(a, b) if op == "min" else np.maximum(a, b)


def _listed(handles: Sequence[Any]) -> Sequence[Any]:
    """Handles as a list: an integer column becomes Python ints."""
    return handles.tolist() if isinstance(handles, np.ndarray) else handles


def _ranked(
    columns: List[Sequence[Any]],
) -> Tuple[np.ndarray, Optional[List[Any]]]:
    """Handle columns joined into one order-preserving int64 key column.

    Integer columns are their own keys; other handles (entities, tuples)
    are replaced by their rank among the distinct handles, which come back
    as the keys' labels.
    """
    if all(isinstance(column, np.ndarray) for column in columns):
        return np.concatenate(columns), None
    handles = [handle for column in columns for handle in _listed(column)]
    labels = sorted(set(handles))
    rank = {handle: k for k, handle in enumerate(labels)}
    keys = np.fromiter(map(rank.__getitem__, handles), np.int64, len(handles))
    return keys, labels


class _FoldPlan:
    """How one root part folds the contributions of its leaf parts.

    Built from ``(leaf part, root handles, leaf handles)`` per sending part,
    in arrival order.  Each root folds its rows left to right in the sorted
    ``(root handle, leaf part, leaf handle)`` order — a sequential fold,
    vectorized as one array operation per position: the k-th contribution
    of every root with more than k folds in together.  The order depends on
    the graph alone, so the plan stores it as gathers into the arrived rows
    and the forest keeps it until the graph changes.
    """

    def __init__(self, runs: List[Tuple[int, Any, Any]]) -> None:
        roots, labels = _ranked([run[1] for run in runs])
        leaves, _labels = _ranked([run[2] for run in runs])
        parts = np.repeat([run[0] for run in runs], [len(run[2]) for run in runs])
        order = np.lexsort((leaves, parts, roots))
        roots = roots[order]
        first = np.ones(len(roots), dtype=bool)
        np.not_equal(roots[1:], roots[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(roots))
        #: Rows of each root's first contribution, then per later position
        #: the roots that have one and the rows holding it.
        self.first = order[starts]
        self.steps = []
        for k in range(1, int(counts.max())):
            more = np.flatnonzero(counts > k)
            self.steps.append((more, order[starts[more] + k]))
        keys = roots[starts]
        #: The distinct root handles, ascending.
        self.keys = keys if labels is None else [labels[k] for k in keys.tolist()]

    def apply(self, op: str, batches: List[Any]) -> Tuple[Any, np.ndarray]:
        """The root handles and one folded row each, from the arrived
        batches (one row per leaf handle, in the plan's run order)."""
        rows = np.concatenate([np.asarray(batch) for batch in batches])
        acc = rows[self.first]
        for more, rows_k in self.steps:
            acc[more] = _combine(op, acc[more], rows[rows_k])
        return self.keys.copy(), acc


def _spelling(
    op: str,
    items: Tuple[Optional[Callable], Optional[Callable]],
    batches: Tuple[Optional[Callable], Optional[Callable]],
) -> Tuple[Callable, Callable]:
    """The ``(batch_data, batch_set)`` of one call: given whole, or adapted
    from the whole per-item pair; anything else is a ``ValueError``."""
    given = [pair for pair in (items, batches) if pair != (None, None)]
    if len(given) != 1 or None in given[0]:
        raise ValueError(
            f"{op} takes (batch_data, batch_set) or its per-item callback "
            "pair, whole and alone"
        )
    return batches if items == (None, None) else _per_item(*items, op)


def _per_item(
    item_data: Callable[[int, Any], Any],
    item_set: Callable[[int, Any, Any], None],
    op: str,
) -> Tuple[Callable, Callable]:
    """The per-item spelling as a batch pair: each pair's batch lists one
    ``item_data(pid, handle)`` per sending handle, and each delivered
    ``(handles, payloads)`` — ``bcast`` prefixes the root part, ``reduce``
    delivers the pair bare — calls ``item_set(pid, handle, payload)``."""
    def batch_data(pid: int, _to: int, handles: Any) -> List[Any]:
        return [item_data(pid, handle) for handle in _listed(handles)]

    def batch_set(pid: int, *delivered: Any) -> None:
        handles, payloads = delivered[1] if op == "bcast" else delivered
        for handle, payload in zip(_listed(handles), payloads):
            item_set(pid, handle, payload)

    return batch_data, batch_set


# ---------------------------------------------------------------------------
# wire datatypes
# ---------------------------------------------------------------------------


class SFDatatype:
    """Wire strategy for one part pair's batch of payloads.

    ``encode(handles, batch)`` turns the pair's batch — its payloads in
    wire order — into a single codec frame; ``decode(blob, handles)``
    reverses it, pairing the payloads back with the handles the receiver
    expects as ``(handles, payloads)`` (sender and receiver traverse the
    forest in the same sorted order, so positional pairing is exact).  The
    handles reach both through ``prepare``, which the forest calls once per
    pair and graph.  The base class is the generic strategy: a list of
    payloads of any codec-encodable type, shipped positionally via
    :func:`~repro.parallel.codec.dumps`.
    """

    name = "generic"

    def prepare(self, handles: Sequence[Any]) -> Any:
        """What ``encode``/``decode`` get for one part pair's wire handles:
        the handles themselves, or whatever the datatype derives from them
        once per graph."""
        return handles

    def encode(self, handles: Any, batch: Any) -> bytes:
        payloads = list(batch)
        if len(payloads) != len(handles):
            raise CodecError(
                f"{len(payloads)} payload(s) for {len(handles)} handle(s)"
            )
        return dumps(payloads)

    def decode(self, blob: Any, handles: Any) -> Tuple[Any, List[Any]]:
        payloads = loads(blob)
        if not isinstance(payloads, list) or len(payloads) != len(handles):
            raise CodecError(
                f"star-forest batch carries {len(payloads)} payload(s) "
                f"where {len(handles)} expected"
            )
        return handles, payloads


class _ValuesDatatype(SFDatatype):
    """Field-value batches: float arrays on entity handles.

    Handles are :class:`~repro.mesh.entity.Ent` objects — or, for
    :meth:`of_dim` instances, plain entity ids of one dimension.  A pair's
    batch is one ``(n, *shape)`` float64 array (or a list of equal-shape
    rows), one row per handle.  The frame's entity section is encoded once
    per pair and graph (:meth:`prepare`), the values are written into the
    frame and read back as a column, and the handles travel in the entity
    section, so the receive-side check — one comparison of entity sections
    — doubles as an end-to-end forest/wire consistency assertion.
    """

    name = "values"

    def __init__(self, dim: Optional[int] = None) -> None:
        self.dim = dim

    def of_dim(self, dim: int) -> "_ValuesDatatype":
        """The same frames over integer handles: entity ids of ``dim``."""
        return _VALUES_OF_DIM[dim]

    def prepare(self, handles: Sequence[Any]) -> Tuple[Sequence[Any], bytes]:
        """The pair's handles with their frame entity section."""
        if self.dim is not None:
            return handles, value_head(self.dim, handles)
        count = len(handles)
        return handles, value_head(
            np.fromiter((ent.dim for ent in handles), np.int64, count),
            np.fromiter((ent.idx for ent in handles), np.int64, count),
        )

    def encode(self, handles: Any, batch: Any) -> bytes:
        return encode_value_columns(handles[1], batch)

    def decode(self, blob: Any, handles: Any) -> Tuple[Any, np.ndarray]:
        expected, head = handles
        got, values = decode_value_columns(blob)
        if got != head:
            raise CodecError(self._mismatch(blob, _listed(expected)))
        return expected, values

    def _mismatch(self, blob: Any, expected: List[Any]) -> str:
        """Name the first entity the frame and the forest disagree on."""
        ents = [ent for ent, _value in decode_value_batch(blob)]
        if len(ents) != len(expected):
            return (
                f"star-forest value batch carries {len(ents)} value(s) "
                f"where {len(expected)} expected"
            )
        if self.dim is not None:
            expected = [Ent(self.dim, idx) for idx in expected]
        for ent, want in zip(ents, expected):
            if ent != want:
                return (
                    f"star-forest value batch names {ent} where the forest "
                    f"expects {want}"
                )
        return "star-forest value batch names other entities"


class _BundlesDatatype(SFDatatype):
    """Element closures as one columnar block per part pair.

    The batch for a pair is a single
    :class:`~repro.parallel.codec.ElementBlock` (one bundle per leaf, in
    leaf order) rather than a payload list: the sender hands over the block
    it packed and the receiver lands the block it gets (the bundles keep
    the block's own order, so no handles ride along).
    """

    name = "bundles"

    def encode(self, handles: Any, batch: Any) -> bytes:
        return encode_element_block(batch)

    def decode(self, blob: Any, handles: Any) -> Any:
        block = decode_element_block(blob)
        if len(block) != len(handles):
            raise CodecError(
                f"star-forest element batch carries {len(block)} "
                f"bundle(s) where {len(handles)} expected"
            )
        return block


#: Generic payloads (any codec-encodable value), shipped positionally.
GENERIC = SFDatatype()
#: Float field values on entities — the field-sync wire format.
VALUES = _ValuesDatatype()
#: Element-closure bundles — the migration/ghosting wire format.
BUNDLES = _BundlesDatatype()
_VALUES_OF_DIM = tuple(_ValuesDatatype(dim) for dim in range(4))


# ---------------------------------------------------------------------------
# standalone communicator
# ---------------------------------------------------------------------------


class SFComm:
    """Minimal communicator satisfying the :class:`StarForest` contract.

    A :class:`~repro.partition.dmesh.DistributedMesh` already exposes the
    same surface (``nparts``/``counters``/``tracer``/``router``);
    this class serves forest users that have no mesh — tests, generic
    halo-exchange experiments — without dragging the partition layer in.
    """

    def __init__(
        self,
        nparts: int,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        sanitize: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        self.nparts = nparts
        self.topology = topology if topology is not None else flat(nparts)
        self.counters = counters if counters is not None else GLOBAL
        self.sanitize = sanitize
        self.tracer = tracer if tracer is not None else current_tracer()
        self.fault_injector = None
        self._network: Optional[Network] = None

    def router(self) -> BufferedRouter:
        """A coalescing router over the lazily built network."""
        if self._network is None:
            self._network = Network(
                self.nparts,
                topology=self.topology,
                counters=self.counters,
                sanitize=self.sanitize,
                tracer=self.tracer,
                fault_injector=self.fault_injector,
            )
        else:
            self._network.tracer = self.tracer
            self._network.fault_injector = self.fault_injector
        return BufferedRouter(self._network)


# ---------------------------------------------------------------------------
# the star forest
# ---------------------------------------------------------------------------


class StarForest:
    """A root↔leaf sharing map over ``(part, local handle)`` pairs.

    Built leaf by leaf (:meth:`add_leaf`) or set whole from integer columns
    (:meth:`from_columns`).  Operations traverse the forest in sorted
    order, so a forest built in any insertion order produces byte-identical
    wire traffic and stats; that order is derived on first use and kept
    until the graph changes.  One exception is load-bearing for parity with
    the hand-rolled exchanges this primitive replaced: within one (root
    part, leaf part) pair, items are ordered by *leaf handle* — callers
    that mint ordinal leaf handles therefore control the exact batch layout
    on the wire.
    """

    def __init__(self, comm: Any, name: str = "sf") -> None:
        self.comm = comm
        self.name = name
        self._leaves: Dict[Tuple[int, Any], Tuple[int, Any]] = {}
        #: The graph as ``{(root part, leaf part): (root ids, leaf ids)}``
        #: when :meth:`from_columns` set it; ``_leaves`` is then filled only
        #: if a leaf-wise edit or listing asks for it.
        self._columns: Optional[
            Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]
        ] = None
        #: Wire-ordered pairs and outgoing handles per traversal order,
        #: prepared handles, fold plans and the root count: derived from
        #: the graph on first use, dropped by add_leaf.
        self._cache: Dict[Any, Any] = {}

    @classmethod
    def from_columns(
        cls,
        comm: Any,
        pairs: Dict[Tuple[int, int], Tuple[Any, Any]],
        name: str = "sf",
    ) -> "StarForest":
        """A forest whose whole graph is set at once, from integer columns.

        ``pairs`` maps ``(root part, leaf part)`` to ``(root handles, leaf
        handles)``: two equal-length integer arrays, one row per leaf, in
        any order; the integers are the handles.  PetscSF's contract — set
        the graph once, communicate many times: operations over the forest
        walk its columns, never one leaf at a time.
        """
        nparts = comm.nparts
        columns: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for (rpid, lpid), (roots, leaves) in pairs.items():
            if not (0 <= rpid < nparts and 0 <= lpid < nparts):
                raise ValueError(
                    f"part pair {(rpid, lpid)} out of range [0, {nparts})"
                )
            roots = np.asarray(roots, dtype=np.int64)
            leaves = np.asarray(leaves, dtype=np.int64)
            if roots.ndim != 1 or roots.shape != leaves.shape:
                raise ValueError(
                    f"part pair {(rpid, lpid)}: root and leaf columns differ"
                )
            if len(leaves):
                columns[(rpid, lpid)] = (roots, leaves)
        forest = cls(comm, name=name)
        forest._columns = columns
        return forest

    # -- construction -------------------------------------------------------

    def add_leaf(
        self,
        leaf_pid: int,
        leaf_handle: Any,
        root_pid: int,
        root_handle: Any,
    ) -> None:
        """Register one leaf; idempotent on identical re-adds.

        A leaf has exactly one root: re-adding the same leaf with a
        different root raises ``ValueError`` (that is a two-owner bug in
        the caller's sharing map, not a representable forest).
        """
        nparts = self.comm.nparts
        if not 0 <= leaf_pid < nparts:
            raise ValueError(f"leaf part {leaf_pid} out of range [0, {nparts})")
        if not 0 <= root_pid < nparts:
            raise ValueError(f"root part {root_pid} out of range [0, {nparts})")
        leaves = self._leaf_map()
        key = (leaf_pid, leaf_handle)
        root = (root_pid, root_handle)
        existing = leaves.get(key)
        if existing is not None and existing != root:
            raise ValueError(
                f"leaf {key} already points at root {existing}; "
                f"cannot repoint to {root}"
            )
        leaves[key] = root
        self._cache.clear()

    def _leaf_map(self) -> Dict[Tuple[int, Any], Tuple[int, Any]]:
        """The leaf → root map (a columnar graph is turned into one)."""
        if self._columns is not None:
            for (rpid, lpid), (roots, leaves) in self._columns.items():
                self._leaves.update(zip(
                    zip(repeat(lpid), leaves.tolist()),
                    zip(repeat(rpid), roots.tolist()),
                ))
            self._columns = None
        return self._leaves

    @property
    def nleaves(self) -> int:
        if self._columns is not None:
            return sum(len(leaves) for _roots, leaves in self._columns.values())
        return len(self._leaves)

    @property
    def nroots(self) -> int:
        count = self._cache.get("nroots")
        if count is None:
            if self._columns is None:
                count = len(set(self._leaves.values()))
            else:
                by_part: Dict[int, List[np.ndarray]] = {}
                for (rpid, _lpid), (roots, _leaves) in self._columns.items():
                    by_part.setdefault(rpid, []).append(roots)
                count = sum(
                    len(np.unique(np.concatenate(columns)))
                    for columns in by_part.values()
                )
            self._cache["nroots"] = count
        return count

    def leaves(self) -> List[Tuple[Tuple[int, Any], Tuple[int, Any]]]:
        """All ``((leaf part, handle), (root part, handle))`` pairs, sorted."""
        return sorted(self._leaf_map().items())

    # -- traversal ----------------------------------------------------------

    def _pairs(self, by_root: bool) -> Pairs:
        """``{(root part, leaf part): (root handles, leaf handles)}``.

        Pairs ascend; within a pair rows ascend by leaf handle (``bcast``)
        or by ``(root handle, leaf handle)`` (``reduce``) — which makes the
        wire traffic a pure function of the forest's contents.  Derived
        once per graph and order.
        """
        key = ("pairs", by_root)
        pairs = self._cache.get(key)
        if pairs is not None:
            return pairs
        pairs = {}
        if self._columns is not None:
            for pair in sorted(self._columns):
                roots, leaves = self._columns[pair]
                order = (
                    np.lexsort((leaves, roots)) if by_root
                    else np.argsort(leaves, kind="stable")
                )
                pairs[pair] = (roots[order], leaves[order])
        else:
            groups: Dict[Tuple[int, int], List[Tuple[Any, Any]]] = {}
            for (lpid, lh), (rpid, rh) in self._leaves.items():
                groups.setdefault((rpid, lpid), []).append((rh, lh))
            for pair in sorted(groups):
                entries = groups[pair]
                entries.sort(key=None if by_root else (lambda entry: entry[1]))
                pairs[pair] = (
                    [rh for rh, _lh in entries], [lh for _rh, lh in entries]
                )
        self._cache[key] = pairs
        return pairs

    def _prepared(
        self, datatype: SFDatatype, by_root: bool
    ) -> Dict[Tuple[int, int], Any]:
        """Per pair, ``datatype.prepare`` of its wire handles — the leaf
        handles ``bcast`` ships, the root handles ``reduce`` ships — derived
        once per graph, like the wire order."""
        key = ("prepared", datatype, by_root)
        prepared = self._cache.get(key)
        if prepared is None:
            side = 0 if by_root else 1
            prepared = self._cache[key] = {
                pair: datatype.prepare(handles[side])
                for pair, handles in self._pairs(by_root).items()
            }
        return prepared

    def outgoing(
        self, by_root: bool
    ) -> Dict[int, Tuple[Any, Dict[int, slice]]]:
        """Per sending part — the root parts of ``bcast``, the leaf parts of
        ``reduce`` (``by_root``) — the handles it sends over all its pairs,
        concatenated in wire order, and each receiving part's slice of them:
        the handles ``batch_data`` gets for that pair.  Derived once per
        graph, like the wire order.
        """
        key = ("outgoing", by_root)
        outgoing = self._cache.get(key)
        if outgoing is None:
            side = 1 if by_root else 0
            runs: Dict[int, List[Tuple[int, Any]]] = {}
            for pair, handles in self._pairs(by_root).items():
                runs.setdefault(pair[side], []).append(
                    (pair[1 - side], handles[side])
                )
            outgoing = self._cache[key] = {}
            for pid, columns in runs.items():
                slices, start = {}, 0
                for peer, handles in columns:
                    slices[peer] = slice(start, start + len(handles))
                    start += len(handles)
                if isinstance(columns[0][1], np.ndarray):
                    sent = np.concatenate([handles for _peer, handles in columns])
                else:
                    sent = [h for _peer, handles in columns for h in handles]
                outgoing[pid] = (sent, slices)
        return outgoing

    def _fold_plan(self, rpid: int, lpids: Tuple[int, ...]) -> _FoldPlan:
        """Root part ``rpid``'s fold of batches arrived from ``lpids``, in
        that order — derived once per graph, like the wire order."""
        key = ("fold", rpid, lpids)
        plan = self._cache.get(key)
        if plan is None:
            pairs = self._pairs(by_root=True)
            plan = self._cache[key] = _FoldPlan(
                [(lpid, *pairs[(rpid, lpid)]) for lpid in lpids]
            )
        return plan

    def _send(
        self,
        by_root: bool,
        datatype: SFDatatype,
        batch_data: Callable[[int, int, Any], Any],
        deliver: Callable[[int, int, Any], None],
    ) -> int:
        """One superstep of batches: ``bcast`` from roots to leaves, or
        ``reduce`` (``by_root``) from leaves to roots.

        Each part pair's batch is encoded beside its prepared wire handles
        and posted; a pair within one part never touches the wire.  After
        the exchange every batch is decoded and handed to ``deliver``
        (receiving part, sending part, decoded batch) one at a time — the
        local pairs first, then the arrivals by receiving part.  Returns
        the record count.
        """
        prepared = self._prepared(datatype, by_root)
        router = self.comm.router()
        local: List[Tuple[int, int, bytes, Any]] = []
        records = posted = encoded = 0
        for (rpid, lpid), (roots, leaves) in self._pairs(by_root).items():
            src, dst = (lpid, rpid) if by_root else (rpid, lpid)
            handles = prepared[(rpid, lpid)]
            blob = datatype.encode(
                handles, batch_data(src, dst, leaves if by_root else roots)
            )
            records += len(leaves)
            if src == dst:
                local.append((dst, src, blob, handles))
                continue
            posted += len(leaves)
            encoded += len(blob)
            router.post(src, dst, _TAG_SF, blob)
        if encoded:
            counters = self.comm.counters
            counters.add("sf.bytes.encoded", encoded)
            counters.add("net.bytes.encoded", encoded)
            counters.add("net.messages.coalesced", posted)
        inboxes = router.exchange()
        for dst, src, blob, handles in local:
            deliver(dst, src, datatype.decode(blob, handles))
        for dst in sorted(inboxes):
            for src, _tag, blob in inboxes[dst]:
                pair = (dst, src) if by_root else (src, dst)
                deliver(dst, src, datatype.decode(blob, prepared[pair]))
        return records

    def _stats(self, probe: CommProbe, op: str, records: int) -> SFStats:
        return SFStats(
            op=op,
            forest=self.name,
            nroots=self.nroots,
            nleaves=self.nleaves,
            records=records,
            sf_ops=1,
            **probe.cost(),
        )

    # -- operations ---------------------------------------------------------

    def bcast(
        self,
        root_data: Optional[Callable[[int, Any], Any]] = None,
        leaf_set: Optional[Callable[[int, Any, Any], None]] = None,
        datatype: SFDatatype = GENERIC,
        batch_set: Optional[Callable[[int, int, Any], None]] = None,
        batch_data: Optional[Callable[[int, int, Any], Any]] = None,
    ) -> SFStats:
        """Root values travel to their leaves; one superstep, always.

        ``batch_data(root_pid, leaf_pid, root_handles)`` is called once per
        part pair with the pair's root handles in wire order and returns
        the pair's payloads as one batch (a payload list; for :data:`VALUES`
        a value array, one row per leaf; for :data:`BUNDLES` one columnar
        block).  The forest encodes it beside the pair's leaf handles, and
        ``batch_set(leaf_pid, root_pid, batch)`` receives what the
        datatype decodes: ``(leaf handles, payloads)``, or the block.

        The per-item spelling ``bcast(root_data, leaf_set)`` —
        ``root_data(root_pid, root_handle)`` per leaf in wire order,
        ``leaf_set(leaf_pid, leaf_handle, payload)`` per delivery — runs
        through the same batches and puts the same frames on the wire.  A
        call takes exactly one of the two spellings.

        The exchange runs even when the forest is empty, so a fixed call
        sequence costs a fixed superstep count regardless of data.
        """
        batch_data, batch_set = _spelling(
            "bcast", (root_data, leaf_set), (batch_data, batch_set)
        )
        comm = self.comm
        probe = CommProbe(comm.counters)
        with trace_span(
            comm.tracer, "sf.bcast", sf=self.name, datatype=datatype.name
        ):
            records = self._send(False, datatype, batch_data, batch_set)
            comm.counters.add("sf.ops.bcast")
            comm.counters.add("sf.records", records)
        return self._stats(probe, "bcast", records)

    def reduce(
        self,
        leaf_data: Optional[Callable[[int, Any], Any]] = None,
        root_set: Optional[Callable[[int, Any, Any], None]] = None,
        op: str = "sum",
        datatype: SFDatatype = GENERIC,
        batch_data: Optional[Callable[[int, int, Any], Any]] = None,
        batch_set: Optional[Callable[[int, Any, np.ndarray], None]] = None,
    ) -> SFStats:
        """Leaf values combine onto their root; one superstep, always.

        ``batch_data(leaf_pid, root_pid, leaf_handles)`` returns a part
        pair's contributions as one batch — a row per leaf handle, in wire
        order — which travels beside the pair's root handles.  Per root the
        contributions are folded with ``op`` in the globally sorted ``(root
        handle, leaf pid, leaf handle)`` order — the fold is deterministic
        even for non-associative float addition — vectorized as one array
        operation per position within a root's run of contributions.
        ``batch_set(root_pid, root_handles, combined)`` then receives, once
        per root part, the root handles that got contributions (ascending)
        and their folded rows.  ``combined`` covers the *leaf*
        contributions only; a caller wanting the root's own value in the
        fold merges it inside ``batch_set``.

        The per-item spelling ``reduce(leaf_data, root_set)`` —
        ``leaf_data(leaf_pid, leaf_handle)`` per contribution,
        ``root_set(root_pid, root_handle, combined)`` per root — runs
        through the same batches and fold.
        """
        if op not in OPS:
            raise ValueError(f"unknown reduce op {op!r} (expected one of {OPS})")
        batch_data, batch_set = _spelling(
            "reduce", (leaf_data, root_set), (batch_data, batch_set)
        )
        comm = self.comm
        probe = CommProbe(comm.counters)
        with trace_span(
            comm.tracer, "sf.reduce", sf=self.name, op=op,
            datatype=datatype.name,
        ):
            arrived: Dict[int, Tuple[List[int], List[Any]]] = {}

            def gather(rpid: int, lpid: int, batch: Any) -> None:
                lpids, batches = arrived.setdefault(rpid, ([], []))
                lpids.append(lpid)
                batches.append(batch[1])

            records = self._send(True, datatype, batch_data, gather)
            for rpid in sorted(arrived):
                lpids, batches = arrived[rpid]
                plan = self._fold_plan(rpid, tuple(lpids))
                batch_set(rpid, *plan.apply(op, batches))
            comm.counters.add("sf.ops.reduce")
            comm.counters.add("sf.records", records)
        return self._stats(probe, f"reduce.{op}", records)

    def __repr__(self) -> str:
        return (
            f"StarForest({self.name!r}, roots={self.nroots}, "
            f"leaves={self.nleaves})"
        )
