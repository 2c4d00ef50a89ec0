"""Star forest: the one communication primitive behind every exchange.

Knepley, Lange & Gorman (arXiv 1506.06194) observe that the sharing
structure of a distributed mesh — owners with read-only copies scattered
over other processes — is a *star forest*: a disjoint union of stars, each
a root (the owned entity) pointing at its leaves (the copies).  Every
distributed-mesh service then reduces to a handful of collective patterns
over that one map:

* :meth:`StarForest.bcast` — root values travel to their leaves
  (migration's pack/send, ghost-bundle delivery, owner→copy field sync);
* :meth:`StarForest.reduce` — leaf values combine onto their root with a
  pluggable op (field accumulation's copy→owner sums);
* :meth:`StarForest.fetch_and_op` — leaves atomically read-and-update
  their root (global counters, unique-id allocation);
* :meth:`StarForest.compose` — chaining two forests yields the forest of
  depth-2 sharing, which is how arbitrary-depth overlaps are distributed.

The forest maps ``(leaf part, leaf handle) -> (root part, root handle)``
where a handle is any hashable, sortable local designator (an
:class:`~repro.mesh.entity.Ent`, an integer ordinal, a tuple).  It is built
leaf by leaf (:meth:`StarForest.add_leaf`) or set whole from integer
columns (:meth:`StarForest.from_columns`); either way each operation's wire
order is derived once and kept until the graph changes — set the graph
once, communicate over it many times.  ``bcast`` and ``reduce`` move
payloads per leaf (one callback per handle) or per part pair (one batch per
pair, columns in and out).  Payloads ride the coalesced binary codec
(:mod:`repro.parallel.codec`): one encoded buffer per communicating part
pair per operation, with the wire schema chosen by an :class:`SFDatatype`
(generic values, field-value batches, element-closure bundles, integer
rows).  Every operation is one or two BSP supersteps, charges ``sf.*``
counters, opens a superstep-aligned span on the communicator's tracer, and
returns a byte-deterministic :class:`~repro.obs.stats.SFStats` record.

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
    decode_int_rows,
    decode_value_batch,
    decode_value_columns,
    dumps,
    encode_element_block,
    encode_int_rows,
    encode_value_batch,
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
    "INT_ROWS",
]

#: Reduction operators accepted by :meth:`StarForest.reduce` and
#: :meth:`StarForest.fetch_and_op`.
OPS = ("replace", "sum", "min", "max")

_TAG_SF = 40

#: ``{(root part, leaf part): (root handles, leaf handles)}`` in wire order.
Pairs = Dict[Tuple[int, int], Tuple[Sequence[Any], Sequence[Any]]]


def _combine(op: str, a: Any, b: Any) -> Any:
    """Fold ``b`` into ``a`` under ``op`` (elementwise on arrays)."""
    if op == "replace":
        return b
    if op == "sum":
        return a + b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b) if op == "min" else np.maximum(a, b)
    return min(a, b) if op == "min" else max(a, b)


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


def _fold(
    op: str, runs: List[Tuple[int, Any, Any, Any]]
) -> Tuple[Any, np.ndarray]:
    """Fold one root part's arrived contributions per root handle.

    ``runs`` holds ``(leaf part, root handles, leaf handles, rows)`` per
    sending part.  Each root folds its rows left to right in the sorted
    ``(root handle, leaf part, leaf handle)`` order — the per-leaf arm's
    sequential fold — vectorized as one array operation per position: the
    k-th contribution of every root with more than k folds in together.
    Returns the distinct root handles, ascending, and one folded row each.
    """
    roots, labels = _ranked([run[1] for run in runs])
    leaves, _labels = _ranked([run[2] for run in runs])
    parts = np.repeat([run[0] for run in runs], [len(run[2]) for run in runs])
    rows = np.concatenate([np.asarray(run[3]) for run in runs])
    order = np.lexsort((leaves, parts, roots))
    roots, rows = roots[order], rows[order]
    first = np.ones(len(roots), dtype=bool)
    np.not_equal(roots[1:], roots[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(roots))
    acc = rows[starts]
    for k in range(1, int(counts.max())):
        more = np.flatnonzero(counts > k)
        acc[more] = _combine(op, acc[more], rows[starts[more] + k])
    keys = roots[starts]
    if labels is not None:
        return [labels[k] for k in keys.tolist()], acc
    return keys, acc


# ---------------------------------------------------------------------------
# wire datatypes
# ---------------------------------------------------------------------------


class SFDatatype:
    """Wire strategy for one SF operation's ``(handle, payload)`` items.

    ``encode`` turns the item list for one part pair into a single codec
    frame; ``decode`` reverses it, pairing payloads back with the
    ``handles`` the receiver expects (sender and receiver traverse the
    forest in the same sorted order, so positional pairing is exact).
    ``encode_batch``/``decode_batch`` do the same for the batch arms of
    :meth:`StarForest.bcast` and :meth:`StarForest.reduce`, where a pair's
    payloads travel as one batch beside the forest's handles and arrive as
    ``(handles, payloads)``; the handles reach them through ``prepare``,
    which the forest calls once per pair and graph.  The base class is the
    generic strategy: payloads of any codec-encodable type, shipped
    positionally via :func:`~repro.parallel.codec.dumps`.
    """

    name = "generic"

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        return dumps([payload for _handle, payload in items])

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        payloads = loads(blob)
        if not isinstance(payloads, list) or len(payloads) != len(handles):
            raise CodecError(
                f"star-forest batch carries {len(payloads)} payload(s) "
                f"where {len(handles)} expected"
            )
        return list(zip(handles, payloads))

    def prepare(self, handles: Sequence[Any]) -> Any:
        """What the batch arms hand ``encode_batch``/``decode_batch`` for
        one part pair's wire handles: the handles themselves, or whatever
        the datatype derives from them once per graph."""
        return handles

    def encode_batch(self, handles: Any, batch: Any) -> bytes:
        return self.encode(list(zip(_listed(handles), batch)))

    def decode_batch(self, blob: Any, handles: Any) -> Any:
        items = self.decode(blob, _listed(handles))
        return handles, [payload for _handle, payload in items]


class _ValuesDatatype(SFDatatype):
    """Field-value batches: float arrays on entity handles.

    Handles are :class:`~repro.mesh.entity.Ent` objects — or, for
    :meth:`of_dim` instances, plain entity ids of one dimension.  The
    handles travel in the frame's entity columns, so the handle check below
    doubles as an end-to-end forest/wire consistency assertion.  In the
    batch arms a pair's values are one ``(n, *shape)`` float64 array: the
    frame's entity section is encoded once per pair and graph
    (:meth:`prepare`), the values are written into the frame and read back
    as a column, and the handle check is one comparison of entity sections.
    """

    name = "values"

    def __init__(self, dim: Optional[int] = None) -> None:
        self.dim = dim

    def of_dim(self, dim: int) -> "_ValuesDatatype":
        """The same frames over integer handles: entity ids of ``dim``."""
        return _VALUES_OF_DIM[dim]

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        if self.dim is not None:
            items = [(Ent(self.dim, idx), value) for idx, value in items]
        return encode_value_batch(items)

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        pairs = decode_value_batch(blob)
        if len(pairs) != len(handles):
            raise CodecError(
                f"star-forest value batch carries {len(pairs)} value(s) "
                f"where {len(handles)} expected"
            )
        expected = (
            handles if self.dim is None
            else [Ent(self.dim, idx) for idx in handles]
        )
        for want, (ent, _value) in zip(expected, pairs):
            if ent != want:
                raise CodecError(
                    f"star-forest value batch names {ent} where the forest "
                    f"expects {want}"
                )
        return [
            (handle, value) for handle, (_ent, value) in zip(handles, pairs)
        ]

    def prepare(self, handles: Sequence[Any]) -> Tuple[Sequence[Any], bytes]:
        """The pair's handles with their frame entity section."""
        if self.dim is not None:
            return handles, value_head(self.dim, handles)
        count = len(handles)
        return handles, value_head(
            np.fromiter((ent.dim for ent in handles), np.int64, count),
            np.fromiter((ent.idx for ent in handles), np.int64, count),
        )

    def encode_batch(self, handles: Any, batch: Any) -> bytes:
        return encode_value_columns(handles[1], batch)

    def decode_batch(self, blob: Any, handles: Any) -> Any:
        expected, head = handles
        got, values = decode_value_columns(blob)
        if got != head:
            # Name the first entity the frame and the forest disagree on.
            self.decode(blob, _listed(expected))
            raise CodecError("star-forest value batch names other entities")
        return expected, values


class _BundlesDatatype(SFDatatype):
    """Element closures as one columnar block per part pair.

    The batch for a pair is a single
    :class:`~repro.parallel.codec.ElementBlock` (one bundle per leaf, in
    leaf order) rather than an item list, so this datatype pairs with
    ``bcast(batch_data=..., batch_set=...)``: the sender hands over the
    block it packed and the receiver lands the block it gets (the bundles
    keep the block's own order, so no handles ride along).
    """

    name = "bundles"

    def encode(self, items: Any) -> bytes:
        return encode_element_block(items)

    def decode(self, blob: Any, handles: List[Any]) -> Any:
        block = decode_element_block(blob)
        if len(block) != len(handles):
            raise CodecError(
                f"star-forest element batch carries {len(block)} "
                f"bundle(s) where {len(handles)} expected"
            )
        return block

    def encode_batch(self, handles: Any, batch: Any) -> bytes:
        return encode_element_block(batch)

    def decode_batch(self, blob: Any, handles: Any) -> Any:
        return self.decode(blob, handles)


class _IntRowsDatatype(SFDatatype):
    """Integer-tuple payloads as one columnar ragged-row frame."""

    name = "int_rows"

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        rows = [payload for _handle, payload in items]
        return encode_int_rows(
            np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
            np.asarray([v for row in rows for v in row], dtype=np.int64),
        )

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        lengths, flat = decode_int_rows(blob)
        if len(lengths) != len(handles):
            raise CodecError(
                f"star-forest int-row batch carries {len(lengths)} row(s) "
                f"where {len(handles)} expected"
            )
        values = flat.tolist()
        ends = np.cumsum(lengths).tolist()
        return [
            (handle, tuple(values[end - n:end]))
            for handle, n, end in zip(handles, lengths.tolist(), ends)
        ]


#: Generic payloads (any codec-encodable value), shipped positionally.
GENERIC = SFDatatype()
#: ``(entity, float array)`` field values — the field-sync wire format.
VALUES = _ValuesDatatype()
#: Element-closure bundles — the migration/ghosting wire format.
BUNDLES = _BundlesDatatype()
#: Integer tuples as columnar ragged rows.
INT_ROWS = _IntRowsDatatype()
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
        #: Wire-ordered pairs per traversal order, and the root count:
        #: derived from the graph on first use, dropped by add_leaf.
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

    def compose(self, other: "StarForest") -> "StarForest":
        """The forest reaching ``other``'s roots through this forest's.

        A leaf ``L -> R`` of ``self`` whose root ``R`` is itself a leaf
        ``R -> S`` of ``other`` contributes ``L -> S`` to the result: two
        hops of sharing collapsed into one map.  Iterating composition is
        how depth-k overlaps distribute — the k-th ring's forest is the
        (k-1)-ring forest composed with one more ring of sharing.
        """
        if other.comm is not self.comm:
            raise ValueError(
                "cannot compose star forests over different communicators"
            )
        result = StarForest(self.comm, name=f"{self.name}*{other.name}")
        targets = other._leaf_map()
        for leaf, root in self._leaf_map().items():
            target = targets.get(root)
            if target is not None:
                result._leaves[leaf] = target
        return result

    # -- traversal ----------------------------------------------------------

    def _pairs(self, by_root: bool) -> Pairs:
        """``{(root part, leaf part): (root handles, leaf handles)}``.

        Pairs ascend; within a pair rows ascend by leaf handle (``bcast``)
        or by ``(root handle, leaf handle)`` (``reduce``,
        ``fetch_and_op``) — which makes the wire traffic a pure function of
        the forest's contents.  Derived once per graph and order.
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

    @staticmethod
    def _post(
        router: BufferedRouter,
        src: int,
        dst: int,
        blob: bytes,
        records: int,
        tally: List[int],
    ) -> None:
        tally[0] += len(blob)
        tally[1] += records
        router.post(src, dst, _TAG_SF, blob)

    def _charge(self, tally: List[int]) -> None:
        """Charge one operation's posted buffers: encoded bytes and
        coalesced records (to the shared ``net.*`` counters too)."""
        encoded, records = tally
        if encoded:
            counters = self.comm.counters
            counters.add("sf.bytes.encoded", encoded)
            counters.add("net.bytes.encoded", encoded)
            counters.add("net.messages.coalesced", records)

    def _stats(self, probe: CommProbe, op: str, records: int,
               sf_ops: int) -> SFStats:
        return SFStats(
            op=op,
            forest=self.name,
            nroots=self.nroots,
            nleaves=self.nleaves,
            records=records,
            sf_ops=sf_ops,
            messages=probe.messages(),
            wire_bytes=probe.wire_bytes(),
            supersteps=probe.supersteps(),
            seconds=probe.seconds(),
            encoded_bytes=probe.encoded_bytes(),
            messages_coalesced=probe.messages_coalesced(),
        )

    @staticmethod
    def _deliver(
        lpid: int,
        rpid: int,
        items: Any,
        leaf_set: Optional[Callable[[int, Any, Any], None]],
        batch_set: Optional[Callable[[int, int, Any], None]],
    ) -> None:
        if batch_set is not None:
            batch_set(lpid, rpid, items)
        elif leaf_set is not None:
            for handle, payload in items:
                leaf_set(lpid, handle, payload)

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

        Per leaf: ``root_data(root_pid, root_handle)`` produces the payload
        for each leaf of that root (called once per leaf, in wire order),
        delivered per item — ``leaf_set(leaf_pid, leaf_handle, payload)`` —
        or per part pair — ``batch_set(leaf_pid, root_pid, items)`` with the
        pair's full ``(handle, payload)`` list.

        Per batch: ``batch_data(root_pid, leaf_pid, root_handles)`` is the
        send-side twin of ``batch_set`` — one call per part pair with all
        root handles in wire order — and returns the pair's payloads as one
        batch (a payload list; for :data:`VALUES` a value array, one row
        per leaf; for :data:`BUNDLES` one columnar block).  The forest
        encodes it beside the pair's leaf handles, and ``batch_set``
        receives what ``datatype.decode_batch`` returns: ``(leaf handles,
        payloads)``, or the block.

        The exchange runs even when the forest is empty, so a fixed call
        sequence costs a fixed superstep count regardless of data.
        """
        if batch_data is not None and batch_set is None:
            raise ValueError("bcast(batch_data=...) needs batch_set")
        comm = self.comm
        probe = CommProbe(comm.counters)
        records = 0
        tally = [0, 0]
        with trace_span(
            comm.tracer, "sf.bcast", sf=self.name, datatype=datatype.name
        ):
            pairs = self._pairs(by_root=False)
            if batch_data is not None:
                prepared = self._prepared(datatype, by_root=False)
            router = comm.router()
            local: List[Tuple[int, int, Any]] = []
            for (rpid, lpid), (roots, leaves) in pairs.items():
                records += len(leaves)
                if batch_data is None:
                    items = [
                        (lh, root_data(rpid, rh))
                        for rh, lh in zip(_listed(roots), _listed(leaves))
                    ]
                    if rpid == lpid:
                        local.append((lpid, rpid, items))
                        continue
                    blob = datatype.encode(items)
                else:
                    handles = prepared[(rpid, lpid)]
                    blob = datatype.encode_batch(
                        handles, batch_data(rpid, lpid, roots)
                    )
                    if rpid == lpid:
                        local.append(
                            (lpid, rpid, datatype.decode_batch(blob, handles))
                        )
                        continue
                self._post(router, rpid, lpid, blob, len(leaves), tally)
            inboxes = router.exchange()
            for lpid, rpid, items in local:
                self._deliver(lpid, rpid, items, leaf_set, batch_set)
            for lpid in sorted(inboxes):
                for src, _tag, blob in inboxes[lpid]:
                    if batch_data is None:
                        leaves = _listed(pairs[(src, lpid)][1])
                        items = datatype.decode(blob, leaves)
                    else:
                        handles = prepared[(src, lpid)]
                        items = datatype.decode_batch(blob, handles)
                    self._deliver(lpid, src, items, leaf_set, batch_set)
            self._charge(tally)
            comm.counters.add("sf.ops.bcast")
            comm.counters.add("sf.records", records)
        return self._stats(probe, "bcast", records, sf_ops=1)

    def _gather(
        self,
        leaf_data: Callable[[int, Any], Any],
        datatype: SFDatatype,
        router: BufferedRouter,
    ) -> Tuple[Dict[int, List[Tuple[Any, int, Any, Any]]], int]:
        """Leaf→root transport shared by reduce and fetch_and_op.

        Returns ``{root_pid: [(root handle, leaf pid, leaf handle, value)]}``
        rows (unordered — callers sort) plus the record count.  One
        superstep: posts, one exchange, decode.
        """
        pairs = self._pairs(by_root=True)
        arrivals: Dict[int, List[Tuple[Any, int, Any, Any]]] = {}
        records = 0
        tally = [0, 0]
        for (rpid, lpid), (roots, leaves) in pairs.items():
            roots, leaves = _listed(roots), _listed(leaves)
            values = [leaf_data(lpid, lh) for lh in leaves]
            records += len(values)
            if rpid == lpid:
                arrivals.setdefault(rpid, []).extend(
                    zip(roots, repeat(lpid), leaves, values)
                )
                continue
            blob = datatype.encode(list(zip(roots, values)))
            self._post(router, lpid, rpid, blob, len(values), tally)
        self._charge(tally)
        inboxes = router.exchange()
        for rpid in sorted(inboxes):
            rows = arrivals.setdefault(rpid, [])
            for src, _tag, blob in inboxes[rpid]:
                roots, leaves = map(_listed, pairs[(rpid, src)])
                items = datatype.decode(blob, roots)
                rows.extend(
                    (rh, src, lh, value)
                    for rh, lh, (_wire_rh, value) in zip(roots, leaves, items)
                )
        return arrivals, records

    def _reduce_batches(
        self,
        batch_data: Callable[[int, int, Any], Any],
        batch_set: Callable[[int, Any, np.ndarray], None],
        op: str,
        datatype: SFDatatype,
        router: BufferedRouter,
    ) -> int:
        """The batch arm of :meth:`reduce`; returns the record count."""
        pairs = self._pairs(by_root=True)
        prepared = self._prepared(datatype, by_root=True)
        arrived: Dict[int, List[Tuple[int, Any]]] = {}
        records = 0
        tally = [0, 0]
        for (rpid, lpid), (roots, leaves) in pairs.items():
            records += len(leaves)
            blob = datatype.encode_batch(
                prepared[(rpid, lpid)], batch_data(lpid, rpid, leaves)
            )
            if rpid == lpid:
                arrived.setdefault(rpid, []).append((lpid, blob))
            else:
                self._post(router, lpid, rpid, blob, len(leaves), tally)
        self._charge(tally)
        inboxes = router.exchange()
        for rpid in sorted(inboxes):
            arrived.setdefault(rpid, []).extend(
                (src, blob) for src, _tag, blob in inboxes[rpid]
            )
        for rpid in sorted(arrived):
            runs = []
            for lpid, blob in arrived[rpid]:
                roots, leaves = pairs[(rpid, lpid)]
                handles = prepared[(rpid, lpid)]
                _roots, rows = datatype.decode_batch(blob, handles)
                runs.append((lpid, roots, leaves, rows))
            if runs:
                batch_set(rpid, *_fold(op, runs))
        return records

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

        Per leaf: ``leaf_data(leaf_pid, leaf_handle)`` produces each
        contribution; per root the contributions are folded with ``op`` in
        the globally sorted ``(root handle, leaf pid, leaf handle)`` order
        — the fold is deterministic even for non-associative float addition
        — and handed to ``root_set(root_pid, root_handle, combined)``.
        ``combined`` covers the *leaf* contributions only; a caller wanting
        the root's own value in the fold merges it inside ``root_set``.

        Per batch: ``batch_data(leaf_pid, root_pid, leaf_handles)`` returns
        a part pair's contributions as one array — a row per leaf handle,
        in wire order — which travels beside the pair's root handles;
        ``batch_set(root_pid, root_handles, combined)`` then receives, once
        per root part, the root handles that got contributions (ascending)
        and their folded rows.  The fold is the per-leaf one vectorized —
        one array operation per position within a root's run of
        contributions — so every root sees the same sequential fold and
        float sums are bit-identical.
        """
        if op not in OPS:
            raise ValueError(f"unknown reduce op {op!r} (expected one of {OPS})")
        if (batch_data is None) != (batch_set is None):
            raise ValueError("reduce needs batch_data and batch_set together")
        comm = self.comm
        probe = CommProbe(comm.counters)
        with trace_span(
            comm.tracer, "sf.reduce", sf=self.name, op=op,
            datatype=datatype.name,
        ):
            router = comm.router()
            if batch_data is not None:
                records = self._reduce_batches(
                    batch_data, batch_set, op, datatype, router
                )
            else:
                arrivals, records = self._gather(leaf_data, datatype, router)
                for rpid in sorted(arrivals):
                    rows = sorted(
                        arrivals[rpid], key=lambda row: (row[0], row[1], row[2])
                    )
                    current_rh: Any = None
                    acc: Any = None
                    started = False
                    for rh, _lpid, _lh, value in rows:
                        if started and rh == current_rh:
                            acc = _combine(op, acc, value)
                        else:
                            if started:
                                root_set(rpid, current_rh, acc)
                            current_rh, acc, started = rh, value, True
                    if started:
                        root_set(rpid, current_rh, acc)
            comm.counters.add("sf.ops.reduce")
            comm.counters.add("sf.records", records)
        return self._stats(probe, f"reduce.{op}", records, sf_ops=1)

    def fetch_and_op(
        self,
        leaf_data: Callable[[int, Any], Any],
        root_get: Callable[[int, Any], Any],
        root_set: Callable[[int, Any, Any], None],
        op: str = "sum",
        datatype: SFDatatype = GENERIC,
    ) -> Tuple[Dict[Tuple[int, Any], Any], SFStats]:
        """Atomic leaf read-and-update of roots; two supersteps, always.

        Each leaf's contribution is applied to its root in the globally
        sorted ``(root handle, leaf pid, leaf handle)`` order; the value
        the root held *immediately before* that leaf's own update travels
        back to the leaf.  Returns ``({(leaf_pid, leaf_handle): fetched},
        stats)`` — the classic fetch-and-add when ``op="sum"``, which makes
        disjoint range allocation off a shared counter a one-liner.
        """
        if op not in OPS:
            raise ValueError(f"unknown reduce op {op!r} (expected one of {OPS})")
        comm = self.comm
        probe = CommProbe(comm.counters)
        fetched: Dict[Tuple[int, Any], Any] = {}
        with trace_span(
            comm.tracer, "sf.fetch_and_op", sf=self.name, op=op,
            datatype=datatype.name,
        ):
            router = comm.router()
            arrivals, records = self._gather(leaf_data, datatype, router)
            returns: Dict[Tuple[int, int], List[Tuple[Any, Any]]] = {}
            for rpid in sorted(arrivals):
                rows = sorted(
                    arrivals[rpid], key=lambda row: (row[0], row[1], row[2])
                )
                current_rh: Any = None
                acc: Any = None
                started = False
                for rh, lpid, lh, value in rows:
                    if not started or rh != current_rh:
                        if started:
                            root_set(rpid, current_rh, acc)
                        current_rh, started = rh, True
                        acc = root_get(rpid, rh)
                    returns.setdefault((rpid, lpid), []).append((lh, acc))
                    acc = _combine(op, acc, value)
                if started:
                    root_set(rpid, current_rh, acc)
            # Second superstep: fetched values travel back to the leaves.
            router = comm.router()
            tally = [0, 0]
            for (rpid, lpid), items in sorted(returns.items()):
                items.sort(key=lambda item: item[0])
                records += len(items)
                if rpid == lpid:
                    for lh, value in items:
                        fetched[(lpid, lh)] = value
                    continue
                self._post(
                    router, rpid, lpid, datatype.encode(items), len(items), tally
                )
            self._charge(tally)
            pairs = self._pairs(by_root=False)
            inboxes = router.exchange()
            for lpid in sorted(inboxes):
                for src, _tag, blob in inboxes[lpid]:
                    expected = _listed(pairs[(src, lpid)][1])
                    items = datatype.decode(blob, expected)
                    for lh, value in items:
                        fetched[(lpid, lh)] = value
            comm.counters.add("sf.ops.fetch_and_op")
            comm.counters.add("sf.records", records)
        return fetched, self._stats(
            probe, f"fetch_and_op.{op}", records, sf_ops=2
        )

    def __repr__(self) -> str:
        return (
            f"StarForest({self.name!r}, roots={self.nroots}, "
            f"leaves={self.nleaves})"
        )
