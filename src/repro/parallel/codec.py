"""Compact binary wire codec for the simulated message-passing runtime.

This is the one serialization every off-node message uses, and the format
the paper's communication volumes assume (Section II-D "message buffer
management"): per-destination batches encoded as struct-packed typed
arrays with interned global-id and classification tables.  A general
object serializer repeats dict keys, type markers and framing per record;
on the recorded ring-migration scenario pickle cost 3.3x the off-node
``wire_bytes`` of these frames
(``benchmarks/results/BENCH_migration_codec.json``).

Wire format (``RW`` frames, version 1)
--------------------------------------

Every buffer starts with a fixed 14-byte little-endian header::

    offset  size  field
    0       2     magic  b"RW"
    2       1     version (currently 1)
    3       1     kind    (payload schema, below)
    4       1     flags   (bit 0: body contains pickled fallback records)
    5       1     reserved (zero)
    6       4     body length (bytes after the header)
    10      4     CRC-32 of the body

The header is checked field by field — a flag bit the kind does not define
or a non-zero reserved byte is rejected — and the CRC *before* any
decoding, so truncated or bit-flipped buffers raise :class:`CodecError`
instead of unpickling garbage.  A pickled record is read only from a frame
whose pickled flag is set, and a frame with the flag set must hold one.
Kinds:

====  =======================  =============================================
kind  constructor              schema
====  =======================  =============================================
0     :func:`dumps`            one generic value (tagged, recursive); a
                               router bundle, ``[(int, bytes), ...]``, is
                               written and read without the recursion
1     :func:`encode_element_block`  element closure blocks (migration/ghosting)
2     :func:`encode_value_columns`  field-value batch: entity columns + one
                                   stacked ``<f8`` block (its ``(entity,
                                   ndarray)`` list view:
                                   :func:`encode_value_batch`)
3     :func:`encode_int_rows`       ragged integer rows (link rendezvous)
====  =======================  =============================================

Versioning rule: decoders accept exactly the versions they know; any other
version byte raises :class:`CodecError`.
Standalone integers use LEB128 (zigzag for signed).  Bulk integer columns
are *adaptive width*: one prefix byte (1/2/4/8) chosen from the column's
value range, then the raw little-endian column at that width — so ref and
global-id columns usually cost 1-2 bytes per entry instead of pickle's
framed small-int records.  Coordinate/value columns are raw ``<f8``.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.entity import Ent

__all__ = [
    "CodecError",
    "MAGIC",
    "VERSION",
    "dumps",
    "loads",
    "ElementBlock",
    "EXTRA_HOME",
    "EXTRA_TAGS",
    "encode_element_block",
    "decode_element_block",
    "block_from_bundles",
    "bundles_from_block",
    "encode_element_batch",
    "decode_element_batch",
    "encode_value_batch",
    "decode_value_batch",
    "value_head",
    "encode_value_columns",
    "decode_value_columns",
    "encode_int_rows",
    "decode_int_rows",
]

MAGIC = b"RW"
VERSION = 1

KIND_VALUE = 0
KIND_ELEMENTS = 1
KIND_VALUES = 2
KIND_ROWS = 3
_KINDS = (KIND_VALUE, KIND_ELEMENTS, KIND_VALUES, KIND_ROWS)

#: Header flag: the body contains at least one pickled fallback record.
FLAG_PICKLED = 0x01
#: Header flag of kind 1: the block carries owner columns (migration).
FLAG_OWNERS = 0x02

#: The flag bits each kind defines: the kinds whose bodies hold generic
#: records may carry pickled ones, and an element block may carry owners.
_KIND_FLAGS = {
    KIND_VALUE: FLAG_PICKLED,
    KIND_ELEMENTS: FLAG_PICKLED | FLAG_OWNERS,
    KIND_VALUES: FLAG_PICKLED,
    KIND_ROWS: 0,
}

_HEADER = struct.Struct("<2sBBBBII")
HEADER_SIZE = _HEADER.size  # 14


class CodecError(ValueError):
    """A wire buffer failed validation (magic, version, length, CRC, schema)."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def _frame(kind: int, flags: int, body: bytes) -> bytes:
    return _HEADER.pack(
        MAGIC, VERSION, kind, flags, 0, len(body),
        zlib.crc32(body) & 0xFFFFFFFF,
    ) + body


def _unframe(data: Any, expect_kind: int) -> Tuple[memoryview, List[int]]:
    """Validate a frame; returns its body and the decode state
    ``[flags, pickled records read]`` that :func:`_dec` and
    :func:`_check_pickled` take.  Raises :class:`CodecError`."""
    buf = memoryview(data).cast("B") if not isinstance(data, bytes) else data
    if len(buf) < HEADER_SIZE:
        raise CodecError(f"buffer too short for header ({len(buf)} bytes)")
    magic, version, kind, flags, reserved, body_len, crc = (
        _HEADER.unpack_from(buf, 0)
    )
    body = memoryview(buf)[HEADER_SIZE:]
    if (magic, version, kind, len(body)) != (MAGIC, VERSION, expect_kind, body_len):
        _reject_header(magic, version, kind, expect_kind, body_len, len(body))
    if flags & ~_KIND_FLAGS[kind] or reserved:
        raise CodecError(
            f"bad header: flags {flags:#04x}, reserved byte {reserved:#04x}"
        )
    if zlib.crc32(body) != crc:
        raise CodecError("CRC mismatch: buffer is corrupt")
    return body, [flags, 0]


def _check_pickled(state: List[int]) -> None:
    """Raise when a frame flagged as holding pickled records held none."""
    if state[0] & FLAG_PICKLED and not state[1]:
        raise CodecError("frame flagged as pickled holds no pickled record")


def _reject_header(
    magic: bytes, version: int, kind: int, expect_kind: int,
    body_len: int, got_len: int,
) -> None:
    """Raise the :class:`CodecError` naming a header's first bad field."""
    if magic != MAGIC:
        raise CodecError(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    if kind not in _KINDS:
        raise CodecError(f"unknown payload kind {kind}")
    if kind != expect_kind:
        raise CodecError(f"payload kind {kind} where {expect_kind} expected")
    raise CodecError(
        f"length mismatch: header says {body_len} body bytes, got {got_len}"
    )


# ---------------------------------------------------------------------------
# integer primitives (LEB128, zigzag for signed)
# ---------------------------------------------------------------------------


def _w_uint(out: bytearray, n: int) -> None:
    if n < 0:
        raise CodecError(f"negative value {n} where unsigned expected")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _w_int(out: bytearray, n: int) -> None:
    _w_uint(out, n * 2 if n >= 0 else -n * 2 - 1)


def _r_uint(buf, pos: int, end: int) -> Tuple[int, int]:
    if pos < end and buf[pos] < 0x80:  # the one-byte common case
        return buf[pos], pos + 1
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CodecError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def _r_int(buf, pos: int, end: int) -> Tuple[int, int]:
    z, pos = _r_uint(buf, pos, end)
    return (z >> 1) if not z & 1 else -((z + 1) >> 1), pos


#: struct format codes for the wire column dtypes (all little-endian).
_PACK_CODE = {"<u4": "I", "u1": "B", "<i8": "q", "<f8": "d"}


def _w_array(out: bytearray, values, dtype: str) -> None:
    """Append a numeric column as raw little-endian bytes.

    Small columns (the common case: per-message batches of tens of records)
    pack via :mod:`struct`, which beats numpy's array-construction overhead;
    large columns go through one vectorized ``np.asarray``.
    """
    code = _PACK_CODE[dtype]
    if len(values) < 1024:
        try:
            out += struct.pack("<%d%s" % (len(values), code), *values)
        except struct.error:
            raise CodecError(
                f"integer out of range for wire column dtype {dtype}"
            ) from None
        return
    try:
        arr = np.asarray(values, dtype=dtype)
    except OverflowError:
        raise CodecError(
            f"integer out of range for wire column dtype {dtype}"
        ) from None
    out += arr.tobytes()


#: Adaptive column widths: (itemsize, struct code, min, max).
_INT_WIDTHS = (
    (1, "b", -0x80, 0x7F),
    (2, "h", -0x8000, 0x7FFF),
    (4, "i", -0x80000000, 0x7FFFFFFF),
    (8, "q", -0x8000000000000000, 0x7FFFFFFFFFFFFFFF),
)
_UINT_WIDTHS = (
    (1, "B", 0, 0xFF),
    (2, "H", 0, 0xFFFF),
    (4, "I", 0, 0xFFFFFFFF),
    (8, "Q", 0, 0xFFFFFFFFFFFFFFFF),
)


def _w_ints(out: bytearray, values, widths=_INT_WIDTHS) -> None:
    """Append an adaptive-width integer column: one width byte (1/2/4/8)
    chosen from the value range, then the packed little-endian column."""
    lo = min(values) if values else 0
    hi = max(values) if values else 0
    for size, code, mn, mx in widths:
        if mn <= lo and hi <= mx:
            out.append(size)
            try:
                out += struct.pack("<%d%s" % (len(values), code), *values)
            except struct.error:
                raise CodecError(
                    "integer out of range for wire column"
                ) from None
            return
    raise CodecError(
        f"integer out of range for wire column ({lo}..{hi})"
    )


def _w_uints(out: bytearray, values) -> None:
    _w_ints(out, values, _UINT_WIDTHS)


def _r_array(buf, pos: int, count: int, dtype: str) -> Tuple[np.ndarray, int]:
    dt = np.dtype(dtype)
    nbytes = dt.itemsize * count
    if pos + nbytes > len(buf):
        raise CodecError("truncated numeric column")
    arr = np.frombuffer(buf, dtype=dt, count=count, offset=pos)
    return arr, pos + nbytes


# ---------------------------------------------------------------------------
# kind 0: generic tagged values
# ---------------------------------------------------------------------------

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_BYTEARRAY = 7
_T_TUPLE = 8
_T_LIST = 9
_T_DICT = 10
_T_SET = 11
_T_FROZENSET = 12
_T_NDARRAY = 13
_T_ENT = 14
_T_NPSCALAR = 15
_T_PICKLE = 255

_F64 = struct.Struct("<d")
_F64X3 = struct.Struct("<3d")


def _enc(obj: Any, out: bytearray, state: List[int]) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif type(obj) is int:
        out.append(_T_INT)
        _w_int(out, obj)
    elif type(obj) is float:
        out.append(_T_FLOAT)
        out += _F64.pack(obj)
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        _w_uint(out, len(raw))
        out += raw
    elif type(obj) is bytes:
        out.append(_T_BYTES)
        _w_uint(out, len(obj))
        out += obj
    elif type(obj) is bytearray:
        out.append(_T_BYTEARRAY)
        _w_uint(out, len(obj))
        out += obj
    elif type(obj) is Ent:
        out.append(_T_ENT)
        _w_uint(out, obj.dim)
        _w_int(out, obj.idx)
    elif type(obj) is tuple:
        out.append(_T_TUPLE)
        _w_uint(out, len(obj))
        for item in obj:
            _enc(item, out, state)
    elif type(obj) is list:
        out.append(_T_LIST)
        _w_uint(out, len(obj))
        for item in obj:
            _enc(item, out, state)
    elif type(obj) is dict:
        out.append(_T_DICT)
        _w_uint(out, len(obj))
        for key, value in obj.items():
            _enc(key, out, state)
            _enc(value, out, state)
    elif type(obj) in (set, frozenset):
        # Items are re-sorted by their encoded form so the encoding is a
        # pure function of the set's *contents* (hash order is not).
        out.append(_T_SET if type(obj) is set else _T_FROZENSET)
        _w_uint(out, len(obj))
        encoded = []
        for item in obj:
            piece = bytearray()
            _enc(item, piece, state)
            encoded.append(bytes(piece))
        for piece in sorted(encoded):
            out += piece
    elif isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        dt = obj.dtype.str.encode("ascii")
        out.append(_T_NDARRAY)
        _w_uint(out, len(dt))
        out += dt
        _w_uint(out, obj.ndim)
        for extent in obj.shape:
            _w_uint(out, extent)
        out += np.ascontiguousarray(obj).tobytes()
    elif isinstance(obj, np.generic) and not np.dtype(obj.dtype).hasobject:
        raw = np.asarray(obj)
        dt = raw.dtype.str.encode("ascii")
        out.append(_T_NPSCALAR)
        _w_uint(out, len(dt))
        out += dt
        out += raw.tobytes()
    else:
        # Escape hatch for exotic types (custom classes, object arrays):
        # a pickled record, flagged in the frame header.
        raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_T_PICKLE)
        _w_uint(out, len(raw))
        out += raw
        state[0] |= FLAG_PICKLED


def _take(buf, pos: int, n: int) -> Tuple[memoryview, int]:
    if pos + n > len(buf):
        raise CodecError("truncated value")
    return buf[pos:pos + n], pos + n


def _dec(buf, pos: int, end: int, state: List[int]) -> Tuple[Any, int]:
    """Read one generic value; ``state`` is the frame's decode state
    (:func:`_unframe`), which says whether a pickled record may occur."""
    if pos >= end:
        raise CodecError("truncated value stream")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _r_int(buf, pos, end)
    if tag == _T_FLOAT:
        raw, pos = _take(buf, pos, 8)
        return _F64.unpack(raw)[0], pos
    if tag == _T_STR:
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        return str(raw, "utf-8"), pos
    if tag == _T_BYTES:
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        return bytes(raw), pos
    if tag == _T_BYTEARRAY:
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        return bytearray(raw), pos
    if tag == _T_ENT:
        dim, pos = _r_uint(buf, pos, end)
        idx, pos = _r_int(buf, pos, end)
        return Ent(dim, idx), pos
    if tag in (_T_TUPLE, _T_LIST, _T_SET, _T_FROZENSET):
        n, pos = _r_uint(buf, pos, end)
        items = []
        for _ in range(n):
            item, pos = _dec(buf, pos, end, state)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        if tag == _T_SET:
            return set(items), pos
        return frozenset(items), pos
    if tag == _T_DICT:
        n, pos = _r_uint(buf, pos, end)
        result: Dict[Any, Any] = {}
        for _ in range(n):
            key, pos = _dec(buf, pos, end, state)
            value, pos = _dec(buf, pos, end, state)
            result[key] = value
        return result, pos
    if tag == _T_NDARRAY:
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        dt = np.dtype(str(raw, "ascii"))
        ndim, pos = _r_uint(buf, pos, end)
        shape = []
        for _ in range(ndim):
            extent, pos = _r_uint(buf, pos, end)
            shape.append(extent)
        count = 1
        for extent in shape:
            count *= extent
        arr, pos = _r_array(buf, pos, count, dt)
        # .copy() makes the result writable and independent of the buffer.
        return arr.reshape(shape).copy(), pos
    if tag == _T_NPSCALAR:
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        dt = np.dtype(str(raw, "ascii"))
        arr, pos = _r_array(buf, pos, 1, dt)
        return arr[0], pos
    if tag == _T_PICKLE:
        if not state[0] & FLAG_PICKLED:
            raise CodecError("pickled record in a frame not flagged for one")
        state[1] += 1
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        return pickle.loads(raw), pos
    raise CodecError(f"unknown value tag {tag}")


def dumps(obj: Any) -> bytes:
    """Encode one generic value as a kind-0 frame."""
    if _is_bundle(obj):
        return _frame(KIND_VALUE, 0, _bundle_body(obj))
    out = bytearray()
    state = [0]
    _enc(obj, out, state)
    return _frame(KIND_VALUE, state[0], bytes(out))


def loads(data: Any) -> Any:
    """Decode a kind-0 frame; raises :class:`CodecError` on a bad buffer."""
    body, state = _unframe(data, KIND_VALUE)
    if not state[0] and len(body) and body[0] == _T_LIST:
        if type(data) is bytes:
            bundle = _read_bundle(data, HEADER_SIZE)
        else:
            bundle = _read_bundle(bytes(body), 0)
        if bundle is not None:
            return bundle
    obj, pos = _dec(body, 0, len(body), state)
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing byte(s) after value")
    _check_pickled(state)
    return obj


# A bundle — a router's coalesced ``[(int tag, bytes), ...]`` message — has
# one fixed kind-0 body: the list head, then per pair the tuple head, the
# tag and the payload's length and bytes.  ``dumps`` and ``loads`` spell
# that body out instead of recursing through ``_enc``/``_dec``.

#: One-byte LEB128 encodings, by value.
_SMALL_UINT = tuple(bytes((n,)) for n in range(0x80))
_LIST = bytes((_T_LIST,))
_PAIR_INT = bytes((_T_TUPLE, 2, _T_INT))
_BYTES = bytes((_T_BYTES,))


def _uint_bytes(n: int) -> bytes:
    if n < 0x80:
        return _SMALL_UINT[n]
    out = bytearray()
    _w_uint(out, n)
    return bytes(out)


def _is_bundle(obj: Any) -> bool:
    """Whether ``obj`` is a list of ``(int, bytes)`` pairs, with exact types
    (a ``bool`` tag, a ``bytes`` subclass or a 3-tuple is not)."""
    return type(obj) is list and all(
        type(pair) is tuple and len(pair) == 2
        and type(pair[0]) is int and type(pair[1]) is bytes
        for pair in obj
    )


def _bundle_body(bundle: List[Tuple[int, bytes]]) -> bytes:
    """The kind-0 body ``_enc`` writes for a bundle, byte for byte."""
    pieces = [_LIST, _uint_bytes(len(bundle))]
    for tag, blob in bundle:
        pieces += (
            _PAIR_INT, _uint_bytes(tag * 2 if tag >= 0 else -tag * 2 - 1),
            _BYTES, _uint_bytes(len(blob)), blob,
        )
    return b"".join(pieces)


def _read_bundle(buf: bytes, pos: int) -> Optional[List[Tuple[int, bytes]]]:
    """The bundle a kind-0 body — ``buf`` from ``pos`` on — holds; ``None``
    if it holds any other value or is malformed (``_dec`` then reads it, or
    says what is wrong with it)."""
    end = len(buf)
    bundle = []
    try:
        count, pos = _r_uint(buf, pos + 1, end)
        for _ in range(count):
            if buf[pos] != _T_TUPLE or buf[pos + 1] != 2 or buf[pos + 2] != _T_INT:
                return None
            tag, pos = _r_int(buf, pos + 3, end)
            if buf[pos] != _T_BYTES:
                return None
            size, pos = _r_uint(buf, pos + 1, end)
            if pos + size > end:
                return None
            bundle.append((tag, buf[pos:pos + size]))
            pos += size
    except (IndexError, CodecError):
        return None
    return bundle if pos == end else None


# ---------------------------------------------------------------------------
# kind 1: element closure blocks
# ---------------------------------------------------------------------------

EXTRA_TAGS = 0x01  # bundle carries a ghost tag dict
EXTRA_HOME = 0x02  # bundle carries a ghost home (pid, entity)


#: Wire dtype of an adaptive column, by (signed, itemsize).
_COLUMN_DTYPE = {
    (signed, size): np.dtype("<%s%d" % ("ui"[signed], size))
    for signed in (False, True) for size in (1, 2, 4, 8)
}


def _w_column(out: bytearray, col: np.ndarray, signed: bool = False) -> None:
    """Append an adaptive-width integer column straight from an array:
    the same bytes :func:`_w_ints`/:func:`_w_uints` write for its list
    (which is how columns too short to repay numpy's per-call overhead are
    written, as in :func:`_w_array`)."""
    widths = _INT_WIDTHS if signed else _UINT_WIDTHS
    if len(col) < 32:
        _w_ints(out, col.tolist(), widths)
        return
    lo = int(col.min())
    hi = int(col.max())
    for size, _code, mn, mx in widths:
        if mn <= lo and hi <= mx:
            out.append(size)
            out += col.astype(_COLUMN_DTYPE[signed, size]).tobytes()
            return
    raise CodecError(f"integer out of range for wire column ({lo}..{hi})")


def _w_u1(out: bytearray, col: np.ndarray) -> None:
    """Append a fixed one-byte column (dims, type codes, small counts)."""
    if len(col) and (int(col.min()) < 0 or int(col.max()) > 0xFF):
        raise CodecError("integer out of range for wire column dtype u1")
    out += col.astype("u1").tobytes()


def _r_column(buf, pos: int, count: int, signed: bool = False
              ) -> Tuple[np.ndarray, int]:
    """Read an adaptive-width integer column back as an int64 array."""
    if pos >= len(buf):
        raise CodecError("truncated adaptive column")
    dtype = _COLUMN_DTYPE.get((signed, buf[pos]))
    if dtype is None:
        raise CodecError(f"invalid adaptive column width {buf[pos]}")
    col, pos = _r_array(buf, pos + 1, count, dtype)
    return col.astype(np.int64), pos


def ragged_matrix(flat: np.ndarray, counts: np.ndarray, fill: int) -> np.ndarray:
    """``(len(counts), max count)`` matrix of a flat CSR column, padded."""
    width = int(counts.max()) if len(counts) else 0
    if len(flat) == len(counts) * width:
        return flat.reshape(len(counts), width)
    out = np.full((len(counts), width), fill, dtype=flat.dtype)
    out[np.arange(width) < counts[:, None]] = flat
    return out


class ElementBlock:
    """A set of element closures in flight, as the kind-1 frame's columns.

    One block is what one part sends another in one migrate/ghost superstep:
    ``len(block)`` *bundles* (an element plus its downward closure), with
    every global id, classification, vertex and intermediate entity interned
    once per block.  The attributes are the frame's sections, verbatim:

    * ``classes`` ``(nc, 2)`` — the classification table, ``(dim, tag)``;
      classification *refs* below are 1-based, 0 = unclassified;
    * ``gids`` ``(ng,)`` — the global-id pool (vertices and elements);
    * ``vert_gref``/``vert_cref``/``vert_coords`` — the vertex table;
    * ``mid_dim``/``mid_etype``/``mid_cref``/``mid_nverts`` + flat
      ``mid_vrefs`` (gid-pool refs, the sender's canonical vertex order) —
      the intermediate-entity table: an edge or face carries no gid, its
      vertices identify it;
    * per bundle: ``b_vcounts`` + flat ``b_vrefs`` (vertex-table refs),
      ``b_mcounts`` + flat ``b_mrefs`` (mid-table refs), the element columns
      ``e_dim``/``e_etype``/``e_gref``/``e_cref``/``e_nverts`` + flat
      ``e_vrefs``, and the ``extras`` flag column;
    * ``home_pid``/``home_idx`` — one entry per bundle flagged ``EXTRA_HOME``
      (the ghost's owner part and the element's handle there);
    * ``tags`` — one dict per bundle flagged ``EXTRA_TAGS``;
    * ``owner_pid``/``owner_idx`` — empty, or (a migration block, header
      flag ``FLAG_OWNERS``) one entry per table row, the vertex table's
      rows then the intermediate table's: the entity's owner part and its
      handle there.

    :func:`encode_element_block`/:func:`decode_element_block` move a block
    to and from bytes; :func:`encode_element_batch`/
    :func:`decode_element_batch` are the list-of-dict view on top (which
    carries no owner columns).
    """

    __slots__ = (
        "classes", "gids", "vert_gref", "vert_cref", "vert_coords",
        "mid_dim", "mid_etype", "mid_cref", "mid_nverts", "mid_vrefs",
        "b_vcounts", "b_vrefs", "b_mcounts", "b_mrefs", "e_dim", "e_etype",
        "e_gref", "e_cref", "e_nverts", "e_vrefs", "extras", "home_pid",
        "home_idx", "tags", "owner_pid", "owner_idx",
    )

    def __init__(self, **columns: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.extras)


def encode_element_block(block: ElementBlock) -> bytes:
    """Write one :class:`ElementBlock` as a kind-1 frame."""
    out = bytearray()
    state = [0]
    _w_uint(out, len(block))

    # Section 1: classification table (zigzag dim, tag pairs).
    _w_uint(out, len(block.classes))
    for value in block.classes.reshape(-1).tolist():
        _w_int(out, value)

    # Section 2: global-id pool (adaptive signed column).
    _w_uint(out, len(block.gids))
    _w_column(out, block.gids, signed=True)

    # Section 3: vertex table (gid ref, class ref columns + f64 coords).
    _w_uint(out, len(block.vert_gref))
    _w_column(out, block.vert_gref)
    _w_column(out, block.vert_cref)
    out += np.ascontiguousarray(block.vert_coords, dtype="<f8").tobytes()

    # Section 4: intermediate-entity table (columns + CSR vertex refs).
    _w_uint(out, len(block.mid_dim))
    _w_u1(out, block.mid_dim)
    _w_u1(out, block.mid_etype)
    _w_column(out, block.mid_cref)
    _w_u1(out, block.mid_nverts)
    _w_column(out, block.mid_vrefs)

    # Section 5: per-bundle records (CSR vert/mid refs + element columns).
    _w_column(out, block.b_vcounts)
    _w_column(out, block.b_vrefs)
    _w_column(out, block.b_mcounts)
    _w_column(out, block.b_mrefs)
    _w_u1(out, block.e_dim)
    _w_u1(out, block.e_etype)
    _w_column(out, block.e_gref)
    _w_column(out, block.e_cref)
    _w_u1(out, block.e_nverts)
    _w_column(out, block.e_vrefs)
    _w_u1(out, block.extras)

    # Section 6: ghost extras — home columns (owner pid, owner-local
    # element index; only when some bundle carries one), then the
    # generic-coded tag dicts in bundle order.
    if len(block.home_pid):
        _w_column(out, block.home_pid)
        _w_column(out, block.home_idx)
    for tags in block.tags:
        _enc(tags, out, state)

    # Section 7 (flagged): owner columns, one entry per table row.
    if len(block.owner_pid):
        if len(block.owner_pid) != len(block.vert_gref) + len(block.mid_dim):
            raise CodecError("owner columns must cover every table row")
        _w_column(out, block.owner_pid)
        _w_column(out, block.owner_idx)
        state[0] |= FLAG_OWNERS
    return _frame(KIND_ELEMENTS, state[0], bytes(out))


def decode_element_block(data: Any) -> ElementBlock:
    """Parse a kind-1 frame into an :class:`ElementBlock` (refs validated)."""
    body, state = _unframe(data, KIND_ELEMENTS)
    end = len(body)
    pos = 0
    n, pos = _r_uint(body, pos, end)

    def check_refs(refs: np.ndarray, bound: int, what: str) -> None:
        if len(refs) and int(refs.max()) >= bound:
            raise CodecError(f"{what} ref out of range (>= {bound})")

    def r_bytes(pos: int, count: int) -> Tuple[np.ndarray, int]:
        col, pos = _r_array(body, pos, count, "u1")
        return col.astype(np.int64), pos

    n_classes, pos = _r_uint(body, pos, end)
    flat_classes = []
    for _ in range(2 * n_classes):
        value, pos = _r_int(body, pos, end)
        flat_classes.append(value)
    classes = np.asarray(flat_classes, dtype=np.int64).reshape(n_classes, 2)

    n_gids, pos = _r_uint(body, pos, end)
    gids, pos = _r_column(body, pos, n_gids, signed=True)

    n_verts, pos = _r_uint(body, pos, end)
    vert_gref, pos = _r_column(body, pos, n_verts)
    vert_cref, pos = _r_column(body, pos, n_verts)
    coords, pos = _r_array(body, pos, 3 * n_verts, "<f8")
    check_refs(vert_gref, n_gids, "vertex gid")
    check_refs(vert_cref, n_classes + 1, "vertex classification")

    n_mids, pos = _r_uint(body, pos, end)
    mid_dim, pos = r_bytes(pos, n_mids)
    mid_etype, pos = r_bytes(pos, n_mids)
    mid_cref, pos = _r_column(body, pos, n_mids)
    mid_nverts, pos = r_bytes(pos, n_mids)
    mid_vrefs, pos = _r_column(body, pos, int(mid_nverts.sum()))
    check_refs(mid_cref, n_classes + 1, "mid classification")
    check_refs(mid_vrefs, n_gids, "mid vertex gid")

    b_vcounts, pos = _r_column(body, pos, n)
    b_vrefs, pos = _r_column(body, pos, int(b_vcounts.sum()))
    b_mcounts, pos = _r_column(body, pos, n)
    b_mrefs, pos = _r_column(body, pos, int(b_mcounts.sum()))
    e_dim, pos = r_bytes(pos, n)
    e_etype, pos = r_bytes(pos, n)
    e_gref, pos = _r_column(body, pos, n)
    e_cref, pos = _r_column(body, pos, n)
    e_nverts, pos = r_bytes(pos, n)
    e_vrefs, pos = _r_column(body, pos, int(e_nverts.sum()))
    extras, pos = r_bytes(pos, n)
    check_refs(b_vrefs, n_verts, "bundle vertex")
    check_refs(b_mrefs, n_mids, "bundle mid")
    check_refs(e_gref, n_gids, "element gid")
    check_refs(e_cref, n_classes + 1, "element classification")
    check_refs(e_vrefs, n_gids, "element vertex gid")

    n_home = int(np.count_nonzero(extras & EXTRA_HOME))
    home_pid = home_idx = np.empty(0, dtype=np.int64)
    if n_home:
        home_pid, pos = _r_column(body, pos, n_home)
        home_idx, pos = _r_column(body, pos, n_home)
    tags = []
    for _ in range(int(np.count_nonzero(extras & EXTRA_TAGS))):
        value, pos = _dec(body, pos, end, state)
        tags.append(value)
    owner_pid = owner_idx = np.empty(0, dtype=np.int64)
    if state[0] & FLAG_OWNERS:
        owner_pid, pos = _r_column(body, pos, n_verts + n_mids)
        owner_idx, pos = _r_column(body, pos, n_verts + n_mids)
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after element batch")
    _check_pickled(state)
    return ElementBlock(
        classes=classes, gids=gids, vert_gref=vert_gref, vert_cref=vert_cref,
        vert_coords=coords.reshape(n_verts, 3), mid_dim=mid_dim,
        mid_etype=mid_etype, mid_cref=mid_cref,
        mid_nverts=mid_nverts, mid_vrefs=mid_vrefs, b_vcounts=b_vcounts,
        b_vrefs=b_vrefs, b_mcounts=b_mcounts, b_mrefs=b_mrefs, e_dim=e_dim,
        e_etype=e_etype, e_gref=e_gref, e_cref=e_cref, e_nverts=e_nverts,
        e_vrefs=e_vrefs, extras=extras, home_pid=home_pid, home_idx=home_idx,
        tags=tags, owner_pid=owner_pid, owner_idx=owner_idx,
    )


def block_from_bundles(bundles: Sequence[dict]) -> ElementBlock:
    """Intern a list of bundle dicts into an :class:`ElementBlock`.

    A bundle is ``{"verts": [(gid, xyz, class)], "mids": [(dim, etype,
    vertex gids, class)], "element": (dim, gid, etype, vertex gids,
    class)}`` plus optional ``"tags"`` (dict) and ``"home"`` ``(pid,
    Ent)``, where a class is ``(dim, tag)`` or ``None``.  Tables intern in
    first-seen order, so the block (and its frame) is a pure function of
    the bundles.
    """
    gid_index: Dict[int, int] = {}
    class_index: Dict[Tuple[int, int], int] = {}
    vert_index: Dict[tuple, int] = {}
    mid_index: Dict[tuple, int] = {}
    cols: Dict[str, list] = {
        name: [] for name in (
            "b_vcounts", "b_vrefs", "b_mcounts", "b_mrefs", "e_dim",
            "e_etype", "e_gref", "e_cref", "e_nverts", "e_vrefs", "extras",
            "home_pid", "home_idx", "tags",
        )
    }

    def gref(gid: int) -> int:
        return gid_index.setdefault(gid, len(gid_index))

    def cref(gclass) -> int:
        if gclass is None:
            return 0
        key = (gclass[0], gclass[1])
        return class_index.setdefault(key, len(class_index)) + 1

    pack3 = _F64X3.pack
    for bundle in bundles:
        for gid, coords, gclass in bundle["verts"]:
            # Coordinates are keyed by their packed bytes, so NaN components
            # (never tuple-equal) still intern to one table row.
            key = (gref(gid), pack3(coords[0], coords[1], coords[2]),
                   cref(gclass))
            cols["b_vrefs"].append(vert_index.setdefault(key, len(vert_index)))
        cols["b_vcounts"].append(len(bundle["verts"]))

        for d, etype, vert_gids, gclass in bundle["mids"]:
            row = (d, etype, cref(gclass), tuple([gref(g) for g in vert_gids]))
            cols["b_mrefs"].append(mid_index.setdefault(row, len(mid_index)))
        cols["b_mcounts"].append(len(bundle["mids"]))

        d, gid, etype, vert_gids, gclass = bundle["element"]
        cols["e_dim"].append(d)
        cols["e_etype"].append(etype)
        cols["e_gref"].append(gref(gid))
        cols["e_cref"].append(cref(gclass))
        cols["e_vrefs"].extend([gref(g) for g in vert_gids])
        cols["e_nverts"].append(len(vert_gids))

        extras = 0
        if "tags" in bundle:
            extras |= EXTRA_TAGS
            cols["tags"].append(bundle["tags"])
        if "home" in bundle:
            extras |= EXTRA_HOME
            pid, ent = bundle["home"]
            if ent.dim != d:
                raise CodecError(
                    f"ghost home {ent} is not of the element's dimension {d}"
                )
            cols["home_pid"].append(int(pid))
            cols["home_idx"].append(ent.idx)
        cols["extras"].append(extras)

    def column(values) -> np.ndarray:
        try:
            return np.asarray(values, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise CodecError("integer out of range for wire column") from None

    mids = list(mid_index)
    none = np.empty(0, dtype=np.int64)
    coords = np.frombuffer(
        b"".join(key[1] for key in vert_index), dtype="<f8"
    ).reshape(len(vert_index), 3)
    tags = cols.pop("tags")
    return ElementBlock(
        classes=column(list(class_index)).reshape(len(class_index), 2),
        gids=column(list(gid_index)),
        vert_gref=column([key[0] for key in vert_index]),
        vert_cref=column([key[2] for key in vert_index]),
        vert_coords=coords,
        mid_dim=column([row[0] for row in mids]),
        mid_etype=column([row[1] for row in mids]),
        mid_cref=column([row[2] for row in mids]),
        mid_nverts=column([len(row[3]) for row in mids]),
        mid_vrefs=column([ref for row in mids for ref in row[3]]),
        tags=tags,
        owner_pid=none,
        owner_idx=none,
        **{name: column(values) for name, values in cols.items()},
    )


def bundles_from_block(block: ElementBlock) -> List[dict]:
    """The list-of-dict view of a block (inverse of :func:`block_from_bundles`).

    Raises :class:`CodecError` for a block with owner columns, which the
    view cannot carry.
    """
    if len(block.owner_pid):
        raise CodecError("the bundle view carries no owner columns")
    gid_pool = block.gids.tolist()
    class_rows = [None] + [tuple(row) for row in block.classes.tolist()]
    vert_rows = [
        (gid_pool[g], tuple(xyz), class_rows[c])
        for g, xyz, c in zip(
            block.vert_gref.tolist(), block.vert_coords.tolist(),
            block.vert_cref.tolist(),
        )
    ]
    mid_rows = []
    cursor = 0
    mid_vrefs = block.mid_vrefs.tolist()
    for d, et, c, nv in zip(
        block.mid_dim.tolist(), block.mid_etype.tolist(),
        block.mid_cref.tolist(), block.mid_nverts.tolist(),
    ):
        mid_rows.append((
            d, et,
            tuple([gid_pool[r] for r in mid_vrefs[cursor:cursor + nv]]),
            class_rows[c],
        ))
        cursor += nv

    b_vrefs = block.b_vrefs.tolist()
    b_mrefs = block.b_mrefs.tolist()
    e_vrefs = block.e_vrefs.tolist()
    homes = iter(zip(block.home_pid.tolist(), block.home_idx.tolist()))
    tags = iter(block.tags)
    bundles: List[dict] = []
    vcur = mcur = ecur = 0
    for nv, nm, d, et, g, c, ne, extras in zip(
        block.b_vcounts.tolist(), block.b_mcounts.tolist(),
        block.e_dim.tolist(), block.e_etype.tolist(), block.e_gref.tolist(),
        block.e_cref.tolist(), block.e_nverts.tolist(), block.extras.tolist(),
    ):
        bundle = {
            "verts": [vert_rows[r] for r in b_vrefs[vcur:vcur + nv]],
            "mids": [mid_rows[r] for r in b_mrefs[mcur:mcur + nm]],
            "element": (
                d, gid_pool[g], et,
                tuple([gid_pool[r] for r in e_vrefs[ecur:ecur + ne]]),
                class_rows[c],
            ),
        }
        vcur += nv
        mcur += nm
        ecur += ne
        if extras & EXTRA_TAGS:
            bundle["tags"] = next(tags)
        if extras & EXTRA_HOME:
            pid, idx = next(homes)
            bundle["home"] = (pid, Ent(d, idx))
        bundles.append(bundle)
    return bundles


def encode_element_batch(bundles: Sequence[dict]) -> bytes:
    """Encode bundle dicts as one kind-1 frame (the dict view's writer)."""
    return encode_element_block(block_from_bundles(bundles))


def decode_element_batch(data: Any) -> List[dict]:
    """Decode a kind-1 frame into bundle dicts (the dict view's reader)."""
    return bundles_from_block(decode_element_block(data))


# ---------------------------------------------------------------------------
# kind 2: field-value batches
# ---------------------------------------------------------------------------


def encode_value_batch(items: Sequence[Tuple[Ent, np.ndarray]]) -> bytes:
    """Encode ``(entity, value array)`` pairs as one kind-2 frame.

    Field values are float64 arrays of one shape per field, so the common
    case packs all values as a single stacked ``<f8`` column; heterogeneous
    batches fall back to per-value generic records.
    """
    out = bytearray()
    state = [0]
    _w_uint(out, len(items))
    _w_array(out, [ent.dim for ent, _v in items], "u1")
    _w_ints(out, [ent.idx for ent, _v in items])
    arrays = [np.asarray(value) for _ent, value in items]
    shape = arrays[0].shape if arrays else ()
    homogeneous = all(
        a.dtype == np.float64 and a.shape == shape for a in arrays
    )
    out.append(1 if homogeneous else 0)
    if homogeneous:
        _w_uint(out, len(shape))
        for extent in shape:
            _w_uint(out, extent)
        if arrays:
            stacked = np.ascontiguousarray(
                np.stack(arrays), dtype="<f8"
            )
            out += stacked.tobytes()
    else:
        for value in arrays:
            _enc(value, out, state)
    return _frame(KIND_VALUES, state[0], bytes(out))


def value_head(dims: Any, ids: np.ndarray) -> bytes:
    """The entity section of a kind-2 column frame: the count, the dims and
    ids columns, and the flag saying one stacked value column follows.

    ``dims`` is a column or one dimension for every row.  The section is
    fixed by the entities alone, so a caller shipping many frames over the
    same entities encodes it once and compares received sections with it
    byte for byte.
    """
    ids = np.asarray(ids, dtype=np.int64)
    out = bytearray()
    _w_uint(out, len(ids))
    if np.ndim(dims):
        _w_u1(out, np.asarray(dims))
    elif 0 <= dims <= 0xFF:
        out += bytes((int(dims),)) * len(ids)
    else:
        raise CodecError("integer out of range for wire column dtype u1")
    _w_column(out, ids, signed=True)
    out.append(1)  # homogeneous: one stacked column
    return bytes(out)


def encode_value_columns(head: bytes, values: np.ndarray) -> bytes:
    """Encode one kind-2 frame from an entity section and a value column.

    ``head`` is :func:`value_head` of the frame's entities and ``values``
    their float64 values, one row each, one shape for every row.  The
    bytes are exactly those :func:`encode_value_batch` writes for the same
    ``(Ent, value)`` pairs, without materializing them: the frame header,
    the section, the shape and the values as one contiguous ``<f8`` block
    go out in one ``join``, the CRC chained over the pieces.
    """
    values = np.ascontiguousarray(values, dtype="<f8")
    count, _pos = _r_uint(head, 0, len(head))
    if len(values) != count:
        raise CodecError(f"{len(values)} value row(s) for {count} entities")
    extents = values.shape[1:] if count else ()
    shape = b"".join(map(_uint_bytes, (len(extents), *extents)))
    crc = zlib.crc32(values, zlib.crc32(shape, zlib.crc32(head)))
    size = len(head) + len(shape) + values.nbytes
    return b"".join((
        _HEADER.pack(MAGIC, VERSION, KIND_VALUES, 0, 0, size, crc),
        head, shape, values,
    ))


def _read_values(data: Any) -> Tuple[np.ndarray, np.ndarray, Any]:
    """A kind-2 frame's ``(dims, ids, values)``: ``values`` is one stacked
    array for a homogeneous frame, else a list of per-record arrays."""
    body, state = _unframe(data, KIND_VALUES)
    end = len(body)
    count, pos = _r_uint(body, 0, end)
    dims, pos = _r_array(body, pos, count, "u1")
    ids, pos = _r_column(body, pos, count, signed=True)
    if pos >= end and count:
        raise CodecError("truncated value batch")
    if count == 0 and pos == end:
        return dims, ids, []
    homogeneous = body[pos]
    pos += 1
    values: Any
    if homogeneous:
        values, pos = _r_stacked(body, pos, end, count)
    else:
        values = []
        for _ in range(count):
            value, pos = _dec(body, pos, end, state)
            values.append(np.asarray(value))
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after value batch")
    _check_pickled(state)
    return dims, ids, values


def _r_stacked(body, pos: int, end: int, count: int) -> Tuple[np.ndarray, int]:
    """Read the shape and the stacked ``<f8`` column of ``count`` values."""
    ndim, pos = _r_uint(body, pos, end)
    shape = []
    for _ in range(ndim):
        extent, pos = _r_uint(body, pos, end)
        shape.append(extent)
    per_value = 1
    for extent in shape:
        per_value *= extent
    col, pos = _r_array(body, pos, count * per_value, "<f8")
    return col.reshape([count] + shape).copy(), pos


def decode_value_batch(data: Any) -> List[Tuple[Ent, np.ndarray]]:
    """Decode a kind-2 frame into ``(entity, writable array)`` pairs (the
    list view of :func:`decode_value_columns`)."""
    dims, ids, values = _read_values(data)
    entities = [Ent(d, i) for d, i in zip(dims.tolist(), ids.tolist())]
    return list(zip(entities, values))


def decode_value_columns(data: Any) -> Tuple[memoryview, np.ndarray]:
    """Decode a kind-2 column frame into its entity section and values.

    Returns ``(head, values)``: ``head`` is a view of the frame's entity
    section as :func:`value_head` writes it — compare it with the expected
    one in place, or read the entities with :func:`decode_value_batch` —
    and ``values`` one writable ``(n, *shape)`` float64 array.  A frame of
    generic records (values that were not float64 arrays of one shape) has
    no columnar form and raises :class:`CodecError`.
    """
    body, state = _unframe(data, KIND_VALUES)
    if state[0]:
        raise CodecError("value batch holds pickled records, not columns")
    end = len(body)
    count, pos = _r_uint(body, 0, end)
    pos += count  # the dims column: one byte per entity
    if pos >= end or (True, body[pos]) not in _COLUMN_DTYPE:
        raise CodecError("truncated or invalid entity columns in value batch")
    pos += 1 + body[pos] * count
    if pos >= end or body[pos] != 1:
        raise CodecError("value batch holds generic records, not columns")
    pos += 1
    head = body[:pos]
    values, pos = _r_stacked(body, pos, end, count)
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after value batch")
    return head, values


# ---------------------------------------------------------------------------
# kind 3: ragged integer rows (link-rendezvous batches)
# ---------------------------------------------------------------------------


def encode_int_rows(lengths: np.ndarray, flat: np.ndarray) -> bytes:
    """Encode ragged integer rows held as CSR columns: ``lengths[k]`` values
    of ``flat`` per row (unsigned adaptive lengths + one signed adaptive
    column, straight from the arrays)."""
    out = bytearray()
    _w_uint(out, len(lengths))
    _w_column(out, lengths)
    _w_column(out, flat, signed=True)
    return _frame(KIND_ROWS, 0, bytes(out))


def decode_int_rows(data: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a kind-3 frame back into its ``(lengths, flat)`` columns."""
    body, _state = _unframe(data, KIND_ROWS)
    end = len(body)
    count, pos = _r_uint(body, 0, end)
    lengths, pos = _r_column(body, pos, count)
    total = int(lengths.sum())
    if total < 0:
        raise CodecError("int-row lengths overflow")
    flat, pos = _r_column(body, pos, total, signed=True)
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after int rows")
    return lengths, flat
