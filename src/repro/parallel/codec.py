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

The CRC is validated *before* any decoding, so truncated or bit-flipped
buffers raise :class:`CodecError` instead of unpickling garbage.  Kinds:

====  =======================  =============================================
kind  constructor              schema
====  =======================  =============================================
0     :func:`dumps`            one generic value (tagged, recursive)
1     :func:`encode_element_batch`  element closure bundles (migration/ghosting)
2     :func:`encode_value_batch`    ``(entity, ndarray)`` field-value batch
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
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..mesh.entity import Ent

__all__ = [
    "CodecError",
    "MAGIC",
    "VERSION",
    "dumps",
    "loads",
    "encode_element_batch",
    "decode_element_batch",
    "encode_value_batch",
    "decode_value_batch",
    "encode_int_rows",
    "decode_int_rows",
]

MAGIC = b"RW"
VERSION = 1

KIND_VALUE = 0
KIND_ELEMENTS = 1
KIND_VALUES = 2
KIND_INT_ROWS = 3
_KINDS = (KIND_VALUE, KIND_ELEMENTS, KIND_VALUES, KIND_INT_ROWS)

#: Header flag: the body contains at least one pickled fallback record.
FLAG_PICKLED = 0x01

_HEADER = struct.Struct("<2sBBBxII")
HEADER_SIZE = _HEADER.size  # 14


class CodecError(ValueError):
    """A wire buffer failed validation (magic, version, length, CRC, schema)."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def _frame(kind: int, flags: int, body: bytes) -> bytes:
    return _HEADER.pack(
        MAGIC, VERSION, kind, flags, len(body), zlib.crc32(body) & 0xFFFFFFFF
    ) + body


def _unframe(data: Any, expect_kind: int) -> memoryview:
    """Validate a frame and return its body; raises :class:`CodecError`."""
    buf = memoryview(data).cast("B") if not isinstance(data, bytes) else data
    if len(buf) < HEADER_SIZE:
        raise CodecError(f"buffer too short for header ({len(buf)} bytes)")
    magic, version, kind, _flags, body_len, crc = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    if kind not in _KINDS:
        raise CodecError(f"unknown payload kind {kind}")
    if kind != expect_kind:
        raise CodecError(f"payload kind {kind} where {expect_kind} expected")
    body = memoryview(buf)[HEADER_SIZE:]
    if len(body) != body_len:
        raise CodecError(
            f"length mismatch: header says {body_len} body bytes, "
            f"got {len(body)}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CodecError("CRC mismatch: buffer is corrupt")
    return body


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
_PACK_SIZE = {"I": 4, "B": 1, "q": 8, "d": 8}


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
_SIGNED_CODE = {1: "b", 2: "h", 4: "i", 8: "q"}
_UNSIGNED_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


def _r_ints(buf, pos: int, count: int, codes=_SIGNED_CODE) -> Tuple[list, int]:
    if pos >= len(buf):
        raise CodecError("truncated adaptive column")
    size = buf[pos]
    pos += 1
    code = codes.get(size)
    if code is None:
        raise CodecError(f"invalid adaptive column width {size}")
    nbytes = size * count
    if pos + nbytes > len(buf):
        raise CodecError("truncated adaptive column")
    return (
        list(struct.unpack_from("<%d%s" % (count, code), buf, pos)),
        pos + nbytes,
    )


def _r_uints(buf, pos: int, count: int) -> Tuple[list, int]:
    return _r_ints(buf, pos, count, _UNSIGNED_CODE)


def _r_list(buf, pos: int, count: int, dtype: str) -> Tuple[list, int]:
    """Read a numeric column back as a plain Python list."""
    code = _PACK_CODE[dtype]
    nbytes = _PACK_SIZE[code] * count
    if pos + nbytes > len(buf):
        raise CodecError("truncated numeric column")
    return (
        list(struct.unpack_from("<%d%s" % (count, code), buf, pos)),
        pos + nbytes,
    )


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


def _dec(buf, pos: int, end: int) -> Tuple[Any, int]:
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
            item, pos = _dec(buf, pos, end)
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
            key, pos = _dec(buf, pos, end)
            value, pos = _dec(buf, pos, end)
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
        n, pos = _r_uint(buf, pos, end)
        raw, pos = _take(buf, pos, n)
        return pickle.loads(raw), pos
    raise CodecError(f"unknown value tag {tag}")


def dumps(obj: Any) -> bytes:
    """Encode one generic value as a kind-0 frame."""
    out = bytearray()
    state = [0]
    _enc(obj, out, state)
    return _frame(KIND_VALUE, state[0], bytes(out))


def loads(data: Any) -> Any:
    """Decode a kind-0 frame; raises :class:`CodecError` on a bad buffer."""
    body = _unframe(data, KIND_VALUE)
    obj, pos = _dec(body, 0, len(body))
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing byte(s) after value")
    return obj


# ---------------------------------------------------------------------------
# kind 1: element closure bundles
# ---------------------------------------------------------------------------

_X_TAGS = 0x01  # bundle carries a ghost tag dict
_X_HOME = 0x02  # bundle carries a ghost home (pid, entity)


def encode_element_batch(bundles: Sequence[dict]) -> bytes:
    """Encode element bundles (``_pack_element`` dicts) as one kind-1 frame.

    The batch interns global ids, classification pairs, vertex records and
    intermediate-entity records across all bundles, so closure entities
    shared between elements bound for the same part are shipped once.
    """
    # First-seen-order interning tables, fully inlined (this is the hot
    # path: one dict probe per gid/classification/vertex/mid occurrence),
    # with the per-bundle wire columns accumulated in the same pass.
    gid_index: Dict[int, int] = {}
    gid_rows: List[int] = []
    class_index: Dict[Tuple[int, int], int] = {}
    class_rows: List[Tuple[int, int]] = []
    vert_index: Dict[tuple, int] = {}
    vert_rows: List[tuple] = []
    mid_index: Dict[tuple, int] = {}
    mid_rows: List[tuple] = []

    bvcounts: List[int] = []
    bvrefs: List[int] = []
    bmcounts: List[int] = []
    bmrefs: List[int] = []
    edims: List[int] = []
    eetypes: List[int] = []
    egrefs: List[int] = []
    ecrefs: List[int] = []
    envs: List[int] = []
    evrefs: List[int] = []
    extras_rows: List[Tuple[int, Any, Any]] = []

    pack3 = _F64X3.pack
    for bundle in bundles:
        nv = 0
        for gid, coords, gclass in bundle["verts"]:
            gref = gid_index.get(gid)
            if gref is None:
                gref = gid_index[gid] = len(gid_rows)
                gid_rows.append(gid)
            if gclass is None:
                cref = 0
            else:
                ckey = (gclass[0], gclass[1])
                cref = class_index.get(ckey)
                if cref is None:
                    cref = class_index[ckey] = len(class_rows)
                    class_rows.append(ckey)
                cref += 1
            # Coordinates are keyed by their packed bytes, so NaN components
            # (never tuple-equal) still intern to one table row.
            key = (gref, pack3(coords[0], coords[1], coords[2]), cref)
            ref = vert_index.get(key)
            if ref is None:
                ref = vert_index[key] = len(vert_rows)
                vert_rows.append(key)
            bvrefs.append(ref)
            nv += 1
        bvcounts.append(nv)

        nm = 0
        for d, gid, etype, vert_gids, gclass in bundle["mids"]:
            if gid is None:
                gref = 0
            else:
                gref = gid_index.get(gid)
                if gref is None:
                    gref = gid_index[gid] = len(gid_rows)
                    gid_rows.append(gid)
                gref += 1
            if gclass is None:
                cref = 0
            else:
                ckey = (gclass[0], gclass[1])
                cref = class_index.get(ckey)
                if cref is None:
                    cref = class_index[ckey] = len(class_rows)
                    class_rows.append(ckey)
                cref += 1
            vg = []
            for g in vert_gids:
                r = gid_index.get(g)
                if r is None:
                    r = gid_index[g] = len(gid_rows)
                    gid_rows.append(g)
                vg.append(r)
            row = (d, gref, etype, tuple(vg), cref)
            ref = mid_index.get(row)
            if ref is None:
                ref = mid_index[row] = len(mid_rows)
                mid_rows.append(row)
            bmrefs.append(ref)
            nm += 1
        bmcounts.append(nm)

        d, gid, etype, vert_gids, gclass = bundle["element"]
        edims.append(d)
        eetypes.append(etype)
        gref = gid_index.get(gid)
        if gref is None:
            gref = gid_index[gid] = len(gid_rows)
            gid_rows.append(gid)
        egrefs.append(gref)
        if gclass is None:
            ecrefs.append(0)
        else:
            ckey = (gclass[0], gclass[1])
            cref = class_index.get(ckey)
            if cref is None:
                cref = class_index[ckey] = len(class_rows)
                class_rows.append(ckey)
            ecrefs.append(cref + 1)
        ne = 0
        for g in vert_gids:
            r = gid_index.get(g)
            if r is None:
                r = gid_index[g] = len(gid_rows)
                gid_rows.append(g)
            evrefs.append(r)
            ne += 1
        envs.append(ne)

        extras = 0
        if "tags" in bundle:
            extras |= _X_TAGS
        if "home" in bundle:
            extras |= _X_HOME
        extras_rows.append((extras, bundle.get("tags"), bundle.get("home")))

    out = bytearray()
    state = [0]
    _w_uint(out, len(extras_rows))

    # Section 1: classification table (zigzag dim, tag pairs).
    _w_uint(out, len(class_rows))
    for dim, tag in class_rows:
        _w_int(out, dim)
        _w_int(out, tag)

    # Section 2: global-id pool (adaptive signed column).
    _w_uint(out, len(gid_rows))
    _w_ints(out, gid_rows)

    # Section 3: vertex table (gid ref, class ref columns + f64 coords).
    _w_uint(out, len(vert_rows))
    _w_uints(out, [row[0] for row in vert_rows])
    _w_uints(out, [row[2] for row in vert_rows])
    for _gref, cbytes, _cref in vert_rows:
        out += cbytes

    # Section 4: intermediate-entity table (columns + CSR vertex refs).
    _w_uint(out, len(mid_rows))
    _w_array(out, [row[0] for row in mid_rows], "u1")
    _w_uints(out, [row[1] for row in mid_rows])
    _w_array(out, [row[2] for row in mid_rows], "u1")
    _w_uints(out, [row[4] for row in mid_rows])
    _w_array(out, [len(row[3]) for row in mid_rows], "u1")
    _w_uints(out, [g for row in mid_rows for g in row[3]])

    # Section 5: per-bundle records (CSR vert/mid refs + element columns).
    _w_uints(out, bvcounts)
    _w_uints(out, bvrefs)
    _w_uints(out, bmcounts)
    _w_uints(out, bmrefs)
    _w_array(out, edims, "u1")
    _w_array(out, eetypes, "u1")
    _w_uints(out, egrefs)
    _w_uints(out, ecrefs)
    _w_array(out, envs, "u1")
    _w_uints(out, evrefs)
    _w_array(out, [row[0] for row in extras_rows], "u1")

    # Section 6: ghost extras, in bundle order (generic-coded tag dicts,
    # LEB-coded home handles).
    for extras, tags, home in extras_rows:
        if extras & _X_TAGS:
            _enc(tags, out, state)
        if extras & _X_HOME:
            pid, ent = home
            _w_uint(out, int(pid))
            _w_uint(out, ent.dim)
            _w_int(out, ent.idx)

    return _frame(KIND_ELEMENTS, state[0], bytes(out))


def decode_element_batch(data: Any) -> List[dict]:
    """Decode a kind-1 frame back into ``_pack_element``-shaped bundles."""
    body = _unframe(data, KIND_ELEMENTS)
    end = len(body)
    pos = 0
    n_bundles, pos = _r_uint(body, pos, end)

    n_classes, pos = _r_uint(body, pos, end)
    class_rows: List[Tuple[int, int]] = []
    for _ in range(n_classes):
        dim, pos = _r_int(body, pos, end)
        tag, pos = _r_int(body, pos, end)
        class_rows.append((dim, tag))

    def check_refs(refs: list, bound: int, what: str) -> None:
        if refs and max(refs) >= bound:
            raise CodecError(f"{what} ref out of range (>= {bound})")

    n_gids, pos = _r_uint(body, pos, end)
    gid_pool, pos = _r_ints(body, pos, n_gids)

    n_verts, pos = _r_uint(body, pos, end)
    vgrefs, pos = _r_uints(body, pos, n_verts)
    vcrefs, pos = _r_uints(body, pos, n_verts)
    coords_col, pos = _r_array(body, pos, 3 * n_verts, "<f8")
    check_refs(vgrefs, n_gids, "vertex gid")
    check_refs(vcrefs, n_classes + 1, "vertex classification")
    coords_rows = coords_col.reshape(n_verts, 3).tolist() if n_verts else []
    vert_rows = [
        (gid_pool[g], tuple(xyz), class_rows[c - 1] if c else None)
        for g, xyz, c in zip(vgrefs, coords_rows, vcrefs)
    ]

    n_mids, pos = _r_uint(body, pos, end)
    mdims, pos = _r_list(body, pos, n_mids, "u1")
    mgrefs, pos = _r_uints(body, pos, n_mids)
    metypes, pos = _r_list(body, pos, n_mids, "u1")
    mcrefs, pos = _r_uints(body, pos, n_mids)
    mnverts, pos = _r_list(body, pos, n_mids, "u1")
    mvrefs, pos = _r_uints(body, pos, sum(mnverts))
    check_refs(mgrefs, n_gids + 1, "mid gid")
    check_refs(mcrefs, n_classes + 1, "mid classification")
    check_refs(mvrefs, n_gids, "mid vertex gid")
    mid_rows = []
    cursor = 0
    for d, gref, et, c, nv in zip(mdims, mgrefs, metypes, mcrefs, mnverts):
        mid_rows.append(
            (
                d,
                gid_pool[gref - 1] if gref else None,
                et,
                tuple([gid_pool[r] for r in mvrefs[cursor:cursor + nv]]),
                class_rows[c - 1] if c else None,
            )
        )
        cursor += nv

    bvcounts, pos = _r_uints(body, pos, n_bundles)
    bvrefs, pos = _r_uints(body, pos, sum(bvcounts))
    bmcounts, pos = _r_uints(body, pos, n_bundles)
    bmrefs, pos = _r_uints(body, pos, sum(bmcounts))
    edims, pos = _r_list(body, pos, n_bundles, "u1")
    eetypes, pos = _r_list(body, pos, n_bundles, "u1")
    egrefs, pos = _r_uints(body, pos, n_bundles)
    ecrefs, pos = _r_uints(body, pos, n_bundles)
    envs, pos = _r_list(body, pos, n_bundles, "u1")
    evrefs, pos = _r_uints(body, pos, sum(envs))
    extras_col, pos = _r_list(body, pos, n_bundles, "u1")
    check_refs(bvrefs, n_verts, "bundle vertex")
    check_refs(bmrefs, n_mids, "bundle mid")
    check_refs(egrefs, n_gids, "element gid")
    check_refs(ecrefs, n_classes + 1, "element classification")
    check_refs(evrefs, n_gids, "element vertex gid")

    bundles: List[dict] = []
    vcur = mcur = ecur = 0
    for i in range(n_bundles):
        nv = bvcounts[i]
        nm = bmcounts[i]
        ne = envs[i]
        c = ecrefs[i]
        bundle = {
            "verts": [vert_rows[r] for r in bvrefs[vcur:vcur + nv]],
            "mids": [mid_rows[r] for r in bmrefs[mcur:mcur + nm]],
            "element": (
                edims[i],
                gid_pool[egrefs[i]],
                eetypes[i],
                tuple([gid_pool[r] for r in evrefs[ecur:ecur + ne]]),
                class_rows[c - 1] if c else None,
            ),
        }
        vcur += nv
        mcur += nm
        ecur += ne
        bundles.append(bundle)

    for i in range(n_bundles):
        extras = int(extras_col[i])
        if extras & _X_TAGS:
            tags, pos = _dec(body, pos, end)
            bundles[i]["tags"] = tags
        if extras & _X_HOME:
            pid, pos = _r_uint(body, pos, end)
            dim, pos = _r_uint(body, pos, end)
            idx, pos = _r_int(body, pos, end)
            bundles[i]["home"] = (pid, Ent(dim, idx))
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after element batch")
    return bundles


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


def decode_value_batch(data: Any) -> List[Tuple[Ent, np.ndarray]]:
    """Decode a kind-2 frame into ``(entity, writable array)`` pairs."""
    body = _unframe(data, KIND_VALUES)
    end = len(body)
    pos = 0
    count, pos = _r_uint(body, pos, end)
    dims, pos = _r_list(body, pos, count, "u1")
    idxs, pos = _r_ints(body, pos, count)
    if pos >= end and count:
        raise CodecError("truncated value batch")
    if count == 0 and pos == end:
        return []
    homogeneous = body[pos]
    pos += 1
    entities = [Ent(d, i) for d, i in zip(dims, idxs)]
    values: List[np.ndarray]
    if homogeneous:
        ndim, pos = _r_uint(body, pos, end)
        shape = []
        for _ in range(ndim):
            extent, pos = _r_uint(body, pos, end)
            shape.append(extent)
        per_value = 1
        for extent in shape:
            per_value *= extent
        col, pos = _r_array(body, pos, count * per_value, "<f8")
        stacked = col.reshape([count] + shape).copy()
        values = [stacked[i] for i in range(count)]
    else:
        values = []
        for _ in range(count):
            value, pos = _dec(body, pos, end)
            values.append(np.asarray(value))
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after value batch")
    return list(zip(entities, values))


# ---------------------------------------------------------------------------
# kind 3: ragged integer rows (link-rendezvous batches)
# ---------------------------------------------------------------------------


def encode_int_rows(rows: Sequence[Sequence[int]]) -> bytes:
    """Encode ragged integer rows (CSR lengths + one adaptive column)."""
    out = bytearray()
    _w_uint(out, len(rows))
    _w_uints(out, [len(row) for row in rows])
    _w_ints(out, [value for row in rows for value in row])
    return _frame(KIND_INT_ROWS, 0, bytes(out))


def decode_int_rows(data: Any) -> List[Tuple[int, ...]]:
    """Decode a kind-3 frame back into integer tuples."""
    body = _unframe(data, KIND_INT_ROWS)
    end = len(body)
    pos = 0
    count, pos = _r_uint(body, pos, end)
    lengths, pos = _r_uints(body, pos, count)
    flat, pos = _r_ints(body, pos, sum(lengths))
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after int rows")
    rows: List[Tuple[int, ...]] = []
    cursor = 0
    for n in lengths:
        rows.append(tuple(flat[cursor:cursor + n]))
        cursor += n
    return rows
