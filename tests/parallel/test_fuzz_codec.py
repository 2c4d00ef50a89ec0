"""Seeded fuzz tests for the binary wire codec.

Two properties under test:

1. **Round-trip stability**: random element bundles — mixed cell types,
   unicode tags, empty batches, max-gid edge values — survive
   encode → decode → re-encode *byte-identically* across 200 seeded cases
   (the re-encode equality is strictly stronger than value equality: it
   proves the interning tables and column layouts are pure functions of the
   decoded content).
2. **Corruption safety**: truncated or bit-flipped buffers raise the typed
   :class:`~repro.parallel.codec.CodecError` instead of unpickling garbage
   (the CRC is validated before any record is interpreted).

Both hold for frames built from bundle dicts (the list-of-dict view) and for
frames the columnar writer produces straight from mesh arrays
(``_pack_blocks``); for the latter, block → dict view → block is also the
identity, i.e. the packer emits the view's canonical table order.
"""

import random

import numpy as np
import pytest

from repro.mesh.entity import Ent
from repro.mesh.topology import EDGE, HEX, PRISM, PYRAMID, QUAD, TET, TRI, type_info
from repro.parallel import codec

MAX_GID = 2**63 - 1

_ELEMENT_TYPES = {
    2: (TRI, QUAD),
    3: (TET, PYRAMID, PRISM, HEX),
}

_UNICODE_POOL = [
    "plain",
    "héllo",
    "✓ tick",
    "名前",
    "προσ",
    "",
    "a\x00b",
    "🙂" * 3,
]


def _random_gid(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.05:
        return MAX_GID  # max-gid edge value
    if roll < 0.10:
        return 0
    return rng.randrange(0, 10_000_000)


def _random_coords(rng: random.Random):
    def component():
        roll = rng.random()
        if roll < 0.04:
            return float("nan")
        if roll < 0.08:
            return rng.choice([1e300, -1e300, 5e-324, -0.0])
        return rng.uniform(-100.0, 100.0)

    return (component(), component(), component())


def _random_class(rng: random.Random):
    if rng.random() < 0.3:
        return None
    return (rng.randrange(0, 4), rng.randrange(-5, 50))


def _random_tag_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(_UNICODE_POOL)
    if roll < 0.45:
        return rng.uniform(-1e6, 1e6)
    if roll < 0.60:
        return rng.randrange(-(2**40), 2**40)
    if roll < 0.75:
        return np.asarray(
            [rng.uniform(-1, 1) for _ in range(rng.randrange(1, 4))]
        )
    if roll < 0.85:
        return None
    return {rng.choice(_UNICODE_POOL): rng.randrange(0, 99)}


def _random_bundle(rng: random.Random, ghost: bool) -> dict:
    dim = rng.choice((2, 3))
    etype = rng.choice(_ELEMENT_TYPES[dim])
    nverts = type_info(etype).nverts
    vert_gids = []
    while len(vert_gids) < nverts:
        gid = _random_gid(rng)
        if gid not in vert_gids:
            vert_gids.append(gid)
    verts = [
        (gid, _random_coords(rng), _random_class(rng)) for gid in vert_gids
    ]
    mids = []
    for _ in range(rng.randrange(0, 6)):
        d = rng.randrange(1, dim)
        mid_type = EDGE if d == 1 else rng.choice((TRI, QUAD))
        mid_nverts = type_info(mid_type).nverts
        mids.append(
            (
                d,
                mid_type,
                tuple(rng.choice(vert_gids) for _ in range(mid_nverts)),
                _random_class(rng),
            )
        )
    bundle = {
        "verts": verts,
        "mids": mids,
        "element": (
            dim,
            _random_gid(rng),
            etype,
            tuple(vert_gids),
            _random_class(rng),
        ),
    }
    if ghost:
        bundle["tags"] = {
            rng.choice(_UNICODE_POOL): _random_tag_value(rng)
            for _ in range(rng.randrange(0, 4))
        }
        bundle["home"] = (
            rng.randrange(0, 64),
            Ent(dim, rng.randrange(0, 10_000)),
        )
    return bundle


def _random_batch(rng: random.Random):
    # ~5% empty batches: the empty-part edge case.
    if rng.random() < 0.05:
        return []
    ghost = rng.random() < 0.5
    return [_random_bundle(rng, ghost) for _ in range(rng.randrange(1, 12))]


@pytest.mark.parametrize("seed", range(200))
def test_element_batch_round_trips_byte_identically(seed):
    rng = random.Random(seed)
    batch = _random_batch(rng)
    blob = codec.encode_element_batch(batch)
    decoded = codec.decode_element_batch(blob)
    assert len(decoded) == len(batch)
    for original, back in zip(batch, decoded):
        assert back["element"] == original["element"]
        assert back["mids"] == original["mids"]
        assert len(back["verts"]) == len(original["verts"])
        for (g1, c1, k1), (g2, c2, k2) in zip(
            original["verts"], back["verts"]
        ):
            assert g1 == g2 and k1 == k2
            for a, b in zip(c1, c2):
                assert (a != a and b != b) or a == b  # NaN-aware
        if "home" in original:
            assert back["home"] == original["home"]
            assert isinstance(back["home"][1], Ent)
    # Byte-identical re-encode: the layout is canonical.
    assert codec.encode_element_batch(decoded) == blob


@pytest.mark.parametrize("seed", range(40))
def test_generic_value_round_trips_byte_identically(seed):
    rng = random.Random(1000 + seed)

    def value(depth=0):
        roll = rng.random()
        if depth > 3 or roll < 0.45:
            return rng.choice(
                [
                    None,
                    True,
                    False,
                    rng.randrange(-MAX_GID, MAX_GID),
                    rng.uniform(-1e9, 1e9),
                    rng.choice(_UNICODE_POOL),
                    bytes(rng.randrange(256) for _ in range(rng.randrange(5))),
                    Ent(rng.randrange(4), rng.randrange(10**6)),
                ]
            )
        if roll < 0.60:
            return tuple(value(depth + 1) for _ in range(rng.randrange(4)))
        if roll < 0.75:
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        if roll < 0.90:
            return {
                rng.choice(_UNICODE_POOL): value(depth + 1)
                for _ in range(rng.randrange(3))
            }
        return np.asarray(
            [rng.uniform(-10, 10) for _ in range(rng.randrange(1, 5))]
        )

    obj = value()
    blob = codec.dumps(obj)
    back = codec.loads(blob)
    assert codec.dumps(back) == blob


@pytest.mark.parametrize("seed", range(60))
def test_truncated_buffers_raise_codec_error(seed):
    rng = random.Random(2000 + seed)
    blob = codec.encode_element_batch(_random_batch(rng))
    cut = rng.randrange(0, len(blob))
    with pytest.raises(codec.CodecError):
        codec.decode_element_batch(blob[:cut])


@pytest.mark.parametrize("seed", range(60))
def test_bit_flipped_buffers_raise_codec_error(seed):
    rng = random.Random(3000 + seed)
    batch = _random_batch(rng)
    while not batch:  # need at least one byte beyond a fixed header
        batch = _random_batch(rng)
    blob = bytearray(codec.encode_element_batch(batch))
    pos = rng.randrange(len(blob))
    blob[pos] ^= 1 << rng.randrange(8)
    with pytest.raises(codec.CodecError):
        codec.decode_element_batch(bytes(blob))


def test_wrong_kind_is_rejected():
    blob = codec.encode_int_rows(np.array([3]), np.array([1, 2, 3]))
    with pytest.raises(codec.CodecError):
        codec.decode_element_batch(blob)
    with pytest.raises(codec.CodecError):
        codec.loads(blob)


def test_wrong_version_is_rejected():
    blob = bytearray(codec.dumps([1, 2]))
    blob[2] = codec.VERSION + 1
    with pytest.raises(codec.CodecError):
        codec.loads(bytes(blob))


def test_bad_magic_is_rejected():
    blob = b"ZZ" + codec.dumps("x")[2:]
    with pytest.raises(codec.CodecError):
        codec.loads(blob)


def _one_frame_per_kind():
    """``(frame, its decoder)`` for each payload kind."""
    ids = np.arange(5)
    triangle = {
        "verts": [(g, (float(g), 0.0, 0.0), (0, g)) for g in (4, 5, 6)],
        "mids": [],
        "element": (2, 9, TRI, (4, 5, 6), (2, 1)),
        "home": (1, Ent(2, 3)),
        "tags": {"w": 2.5},
    }
    owned = codec.block_from_bundles([triangle])
    owned.owner_pid, owned.owner_idx = np.array([0, 1, 0]), np.array([7, 8, 9])
    return [
        (codec.dumps({"a": [1, 2, 3]}), codec.loads),
        (codec.encode_element_batch([triangle]), codec.decode_element_block),
        (codec.encode_element_block(owned), codec.decode_element_block),
        (codec.encode_value_columns(
            codec.value_head(0, ids), np.ones((5, 2))
        ), codec.decode_value_columns),
        (codec.encode_value_batch([(Ent(0, 1), np.arange(3))]),
         codec.decode_value_batch),
        (codec.encode_int_rows(np.array([2, 1]), np.array([4, 5, 6])),
         codec.decode_int_rows),
    ]


def test_every_header_bit_flip_raises():
    """All 112 single-bit flips of the 14 header bytes, flags and reserved
    byte included, raise for a frame of every kind."""
    for blob, decode in _one_frame_per_kind():
        decode(blob)
        for pos in range(codec.HEADER_SIZE):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                with pytest.raises(codec.CodecError):
                    decode(bytes(flipped))


def _reframed(blob, flags):
    """``blob`` with its header flags byte set to ``flags``."""
    return blob[:4] + bytes([flags]) + blob[5:]


def test_pickled_records_need_the_flag(monkeypatch):
    """A pickled record is read only from a frame flagged for one — the
    decoder raises before unpickling — and a flagged frame must hold one."""
    pickled = codec.dumps([1, {2, 3}, _Blob(b"x")])
    assert pickled[4] == codec.FLAG_PICKLED
    assert isinstance(codec.loads(pickled)[2], _Blob)
    plain = codec.dumps([1, 2])
    assert plain[4] == 0

    def refuse(*_args):
        raise AssertionError("a pickled record was unpickled")

    monkeypatch.setattr(codec.pickle, "loads", refuse)
    with pytest.raises(codec.CodecError, match="not flagged"):
        codec.loads(_reframed(pickled, 0))
    with pytest.raises(codec.CodecError, match="holds no pickled record"):
        codec.loads(_reframed(plain, codec.FLAG_PICKLED))
    bundle = codec.dumps([(1, b"x")])
    with pytest.raises(codec.CodecError, match="holds no pickled record"):
        codec.loads(_reframed(bundle, codec.FLAG_PICKLED))


def test_gid_overflow_raises_codec_error():
    bundle = {
        "verts": [(2**63, (0.0, 0.0, 0.0), None)],
        "mids": [],
        "element": (2, 2**63, TRI, (2**63,), None),
    }
    with pytest.raises(codec.CodecError):
        codec.encode_element_batch([bundle])


def test_value_batch_round_trip_and_corruption():
    rng = random.Random(77)
    items = [
        (
            Ent(0, rng.randrange(10**6)),
            np.asarray([rng.uniform(-5, 5) for _ in range(3)]),
        )
        for _ in range(17)
    ]
    blob = codec.encode_value_batch(items)
    back = codec.decode_value_batch(blob)
    assert [e for e, _ in back] == [e for e, _ in items]
    for (_, v1), (_, v2) in zip(items, back):
        assert (v1 == v2).all()
        assert v2.flags.writeable
    assert codec.encode_value_batch(back) == blob
    with pytest.raises(codec.CodecError):
        codec.decode_value_batch(blob[:-3])


@pytest.mark.parametrize(
    "n, shape", [(0, (1,)), (5, (1,)), (40, (3,)), (1100, (2, 2))]
)
def test_value_columns_write_the_list_views_bytes(n, shape):
    """The column writer is the list view's frame, byte for byte (struct
    and numpy column paths both), and reads back into the same columns."""
    rng = np.random.default_rng(n)
    ids = rng.integers(0, 70_000, n)
    values = rng.normal(size=(n, *shape))
    items = [(Ent(1, int(i)), v) for i, v in zip(ids, values)]
    head = codec.value_head(1, ids)
    assert head == codec.value_head(np.full(n, 1), ids)
    blob = codec.encode_value_columns(head, values)
    assert blob == codec.encode_value_batch(items)
    back_head, back = codec.decode_value_columns(blob)
    assert back_head == head and back.tobytes() == values.tobytes()
    assert back.flags.writeable
    with pytest.raises(codec.CodecError):
        codec.encode_value_columns(head, values[:-1] if n else np.zeros((1, 1)))


def test_value_columns_reject_generic_and_damaged_frames():
    generic = codec.encode_value_batch([(Ent(0, 1), np.array([1, 2]))])
    with pytest.raises(codec.CodecError):
        codec.decode_value_columns(generic)
    blob = codec.encode_value_columns(
        codec.value_head(0, np.arange(5)), np.ones((5, 1))
    )
    for cut in range(1, len(blob)):
        with pytest.raises(codec.CodecError):
            codec.decode_value_columns(blob[:cut])


def _int_row_columns(rows):
    return (
        np.asarray([len(row) for row in rows], dtype=np.int64),
        np.asarray([v for row in rows for v in row], dtype=np.int64),
    )


def test_int_rows_round_trip_includes_extremes():
    rows = [(0,), (), (1, -(2**62), 2**62, 5)]
    lengths, flat = _int_row_columns(rows)
    blob = codec.encode_int_rows(lengths, flat)
    back_lengths, back_flat = codec.decode_int_rows(blob)
    assert back_lengths.tolist() == lengths.tolist()
    assert back_flat.tolist() == flat.tolist()
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    with pytest.raises(codec.CodecError):
        codec.decode_int_rows(bytes(flipped))


def _random_int_rows(rng: random.Random):
    """Ragged rows shaped like link-rendezvous traffic, with the column
    width pushed through every adaptive size."""
    span = rng.choice([100, 30_000, 2_000_000_000, MAX_GID])
    return [
        tuple(
            rng.randrange(-span, span) if rng.random() < 0.2
            else rng.randrange(0, span)
            for _ in range(rng.choice([0, 2, 3, 4, 5, 9, rng.randrange(300)]))
        )
        for _ in range(rng.choice([0, 1, 7, rng.randrange(400)]))
    ]


def _list_writer(rows) -> bytes:
    """The kind-3 frame as the per-value list writers lay it out."""
    out = bytearray()
    codec._w_uint(out, len(rows))
    codec._w_uints(out, [len(row) for row in rows])
    codec._w_ints(out, [v for row in rows for v in row])
    return codec._frame(codec.KIND_ROWS, 0, bytes(out))


@pytest.mark.parametrize("seed", range(60))
def test_int_rows_array_writer_matches_list_writer(seed):
    rows = _random_int_rows(random.Random(4000 + seed))
    lengths, flat = _int_row_columns(rows)
    blob = codec.encode_int_rows(lengths, flat)
    assert blob == _list_writer(rows)
    back_lengths, back_flat = codec.decode_int_rows(blob)
    assert back_lengths.dtype == back_flat.dtype == np.int64
    assert back_lengths.tolist() == lengths.tolist()
    assert back_flat.tolist() == flat.tolist()


@pytest.mark.parametrize("seed", range(60))
def test_int_rows_truncated_or_flipped_raise_codec_error(seed):
    rng = random.Random(5000 + seed)
    lengths, flat = _int_row_columns(_random_int_rows(rng))
    blob = codec.encode_int_rows(lengths, flat)
    with pytest.raises(codec.CodecError):
        codec.decode_int_rows(blob[: rng.randrange(len(blob))])
    flipped = bytearray(blob)
    pos = rng.randrange(len(blob))
    flipped[pos] ^= 1 << rng.randrange(8)
    with pytest.raises(codec.CodecError):
        codec.decode_int_rows(bytes(flipped))


def test_int_rows_reader_rejects_inconsistent_body():
    """A frame with a valid CRC whose columns disagree is still an error."""
    def framed(body: bytes) -> bytes:
        return codec._frame(codec.KIND_ROWS, 0, body)

    good = codec.encode_int_rows(np.array([2, 1]), np.array([7, 8, 9]))
    body = bytes(good[codec.HEADER_SIZE:])
    for bad in (
        body + b"\x00",            # trailing byte
        body[:-1],                 # value column one byte short
        bytes([5]) + body[1:],     # more rows declared than lengths shipped
        body[:1] + bytes([3]) + body[2:],  # invalid adaptive width
    ):
        with pytest.raises(codec.CodecError):
            codec.decode_int_rows(framed(bad))


# -- frames written straight from mesh columns --------------------------------


_COLUMNAR_PARTS = {}


def _columnar_dmesh(kind):
    """A small distributed mesh to pack blocks from (built once per kind)."""
    if kind not in _COLUMNAR_PARTS:
        from repro.mesh import box_tet, extrude_to_prisms, rect_tri
        from repro.partition import distribute

        mesh = {
            "tet": lambda: box_tet(3),
            "tri": lambda: rect_tri(5),
            "prism": lambda: extrude_to_prisms(rect_tri(3), 2, 0.5),
        }[kind]()
        nparts = 3
        assignment = [
            min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
            for e in mesh.entities(mesh.dim())
        ]
        _COLUMNAR_PARTS[kind] = distribute(mesh, assignment)
    return _COLUMNAR_PARTS[kind]


def _columnar_block(seed):
    """A block packed from core arrays: random part, random element subset,
    half of them ghost-style (home, and sometimes tags)."""
    from repro.partition.migration import _pack_blocks

    rng = random.Random(4000 + seed)
    dmesh = _columnar_dmesh(rng.choice(("tet", "tri", "prism")))
    part = dmesh.part(rng.randrange(dmesh.nparts))
    dim = dmesh.element_dim()
    ids = part.mesh.entity_ids(dim).tolist()
    chosen = rng.sample(ids, rng.randrange(1, min(len(ids), 24) + 1))
    ghost = rng.random() < 0.5
    tags = ()
    if ghost and rng.random() < 0.5:
        tag = part.mesh.tag("w")
        for idx in chosen[::2]:
            tag.set(Ent(dim, idx), _random_tag_value(rng))
        tags = ("w", "absent")
    return _pack_blocks(
        part.mesh, part.gid_array(0), part.gid_array(dim), dim,
        np.asarray(chosen), [len(chosen)],
        home=part.pid if ghost else None, tags=tags,
    )[0]


def _block_columns(block):
    out = {}
    for name in codec.ElementBlock.__slots__:
        value = getattr(block, name)
        out[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


@pytest.mark.parametrize("seed", range(200))
def test_columnar_frames_round_trip_and_reject_corruption(seed):
    rng = random.Random(5000 + seed)
    block = _columnar_block(seed)
    blob = codec.encode_element_block(block)

    # bytes -> block -> bytes, and block -> dict view -> block: identity.
    parsed = codec.decode_element_block(blob)
    assert repr(_block_columns(parsed)) == repr(_block_columns(block))
    assert codec.encode_element_block(parsed) == blob
    bundles = codec.bundles_from_block(block)
    assert len(bundles) == len(block)
    again = codec.block_from_bundles(bundles)
    assert repr(_block_columns(again)) == repr(_block_columns(block))
    assert codec.encode_element_batch(codec.decode_element_batch(blob)) == blob

    # Truncation and bit flips never decode.
    with pytest.raises(codec.CodecError):
        codec.decode_element_block(blob[: rng.randrange(0, len(blob))])
    flipped = bytearray(blob)
    flipped[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
    with pytest.raises(codec.CodecError):
        codec.decode_element_block(bytes(flipped))


def _migration_block(kind, pid):
    """The block part ``pid`` packs for a migration of every third of its
    elements: owner columns on."""
    from repro.partition.migration import _pack_blocks

    dmesh = _columnar_dmesh(kind)
    part = dmesh.part(pid)
    dim = dmesh.element_dim()
    chosen = part.mesh.entity_ids(dim)[::3]
    return part, _pack_blocks(
        part.mesh, part.gid_array(0), part.gid_array(dim), dim, chosen,
        [len(chosen)], owners=part,
    )[0]


@pytest.mark.parametrize("kind", ("tet", "tri", "prism"))
@pytest.mark.parametrize("pid", (1, 2))
def test_owner_columns_round_trip_and_reject_corruption(kind, pid):
    """Section 7 of a migration frame: one (owner part, owner handle) pair
    per table row, flagged in the header; without it the frame is the
    same block's frame byte for byte, unflagged."""
    part, block = _migration_block(kind, pid)
    rows = len(block.vert_gref) + len(block.mid_dim)
    assert len(block.owner_pid) == len(block.owner_idx) == rows
    assert (block.owner_pid < pid).any()
    for gid, owner, handle in zip(
        block.gids[block.vert_gref].tolist(), block.owner_pid[: len(block.vert_gref)],
        block.owner_idx[: len(block.vert_gref)],
    ):
        vertex = part.by_gid(0, gid)
        assert owner == part.owner(vertex)
        if owner == pid:
            assert handle == vertex.idx

    blob = codec.encode_element_block(block)
    assert blob[4] == codec.FLAG_OWNERS
    parsed = codec.decode_element_block(blob)
    assert repr(_block_columns(parsed)) == repr(_block_columns(block))
    assert codec.encode_element_block(parsed) == blob
    with pytest.raises(codec.CodecError, match="no owner columns"):
        codec.decode_element_batch(blob)

    plain, short = (codec.ElementBlock(**{
        name: getattr(block, name) for name in codec.ElementBlock.__slots__
    }) for _ in range(2))
    plain.owner_pid = plain.owner_idx = np.empty(0, dtype=np.int64)
    bare = codec.encode_element_block(plain)
    assert bare[4] == 0
    body, bare_body = blob[codec.HEADER_SIZE:], bare[codec.HEADER_SIZE:]
    assert body.startswith(bare_body) and len(body) > len(bare_body)

    # Every truncation inside the section, under a valid header and CRC,
    # and the flag on the wrong body either way, raise.
    for end in range(len(bare_body), len(body)):
        with pytest.raises(codec.CodecError):
            codec.decode_element_block(
                codec._frame(codec.KIND_ELEMENTS, codec.FLAG_OWNERS, body[:end])
            )
    with pytest.raises(codec.CodecError, match="trailing"):
        codec.decode_element_block(codec._frame(codec.KIND_ELEMENTS, 0, body))
    with pytest.raises(codec.CodecError, match="truncated"):
        codec.decode_element_block(
            codec._frame(codec.KIND_ELEMENTS, codec.FLAG_OWNERS, bare_body)
        )
    # A flipped bit in the section fails the CRC.
    for at in range(len(bare), len(blob)):
        flipped = bytearray(blob)
        flipped[at] ^= 1 << (at % 8)
        with pytest.raises(codec.CodecError, match="CRC"):
            codec.decode_element_block(bytes(flipped))
    # The writer refuses owner columns that miss a table row.
    short.owner_pid, short.owner_idx = block.owner_pid[1:], block.owner_idx[1:]
    with pytest.raises(codec.CodecError, match="every table row"):
        codec.encode_element_block(short)


# -- bundles: a router's [(int tag, bytes)] message ------------------------------


def _random_message_bundle(rng: random.Random, max_payload: int = 300):
    """A bundle with small, negative, huge and edge tags and payloads from
    empty to a few hundred bytes (an empty bundle now and then)."""
    tags = [
        lambda: 40,
        lambda: -714,
        lambda: rng.randrange(-200, 200),
        lambda: rng.randrange(-(2**70), 2**70),
        lambda: rng.choice([0, 63, 64, -64, -65, 2**63 - 1, -(2**63)]),
    ]
    return [
        (
            rng.choice(tags)(),
            bytes(
                rng.randrange(256)
                for _ in range(rng.choice([0, 1, rng.randrange(max_payload + 1)]))
            ),
        )
        for _ in range(rng.choice([0, 1, 1, 2, rng.randrange(3, 12)]))
    ]


def generic_dumps(obj):
    """``dumps`` through the recursive encoder alone: the bundle writer's
    oracle."""
    out = bytearray()
    state = [0]
    codec._enc(obj, out, state)
    return codec._frame(codec.KIND_VALUE, state[0], bytes(out))


def generic_loads(data):
    """``loads`` through the recursive decoder alone: the bundle reader's
    oracle."""
    body, state = codec._unframe(data, codec.KIND_VALUE)
    obj, pos = codec._dec(body, 0, len(body), state)
    if pos != len(body):
        raise codec.CodecError("trailing bytes")
    return obj


@pytest.mark.parametrize("seed", range(200))
def test_bundle_writer_and_reader_are_the_generic_codec(seed):
    bundle = _random_message_bundle(random.Random(6000 + seed))
    blob = codec.dumps(bundle)
    assert blob == generic_dumps(bundle)
    back = codec.loads(blob)
    assert back == generic_loads(blob) == bundle
    assert [type(pair) for pair in back] == [tuple] * len(bundle)
    assert codec.loads(bytearray(blob)) == back
    assert codec.loads(memoryview(blob)) == back


def test_bundles_skip_the_recursive_codec(monkeypatch):
    """A bundle is written and read without ``_enc``/``_dec``."""
    bundle = [(40, b"\x01\x02"), (-714, b""), (2**70, b"x" * 200)]
    blob, empty = generic_dumps(bundle), generic_dumps([])

    def refuse(*_args):
        raise AssertionError("the recursive codec ran on a bundle")

    monkeypatch.setattr(codec, "_enc", refuse)
    monkeypatch.setattr(codec, "_dec", refuse)
    assert codec.dumps(bundle) == blob
    assert codec.dumps([]) == empty and codec.loads(empty) == []
    assert codec.loads(blob) == bundle
    assert codec.loads(memoryview(blob)) == bundle


@pytest.mark.parametrize("seed", range(20))
def test_damaged_bundles_raise_codec_error(seed):
    """Every truncation and every bit flip raises."""
    blob = codec.dumps(_random_message_bundle(random.Random(7000 + seed), 24))
    for cut in range(len(blob)):
        with pytest.raises(codec.CodecError):
            codec.loads(blob[:cut])
    for pos in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << bit
            with pytest.raises(codec.CodecError):
                codec.loads(bytes(flipped))


class _Blob(bytes):
    pass


@pytest.mark.parametrize(
    "payload",
    [
        [(1, "text")],
        [(1, b"x", 2)],
        [(True, b"x")],
        [(1, bytearray(b"x"))],
        [(1, _Blob(b"x"))],
        [[1, b"x"]],
        ((1, b"x"),),
        [(1, b"x"), (2, "y")],
        [(1, b"x"), [2, b"y"]],
        [[(1, b"x")]],
        [(1, b"x"), 3],
        {"k": b"x"},
    ],
)
def test_near_miss_bundles_take_the_generic_path(payload):
    """Shapes that are almost bundles — some only past their first pair —
    are written and read exactly as the recursive codec does."""
    blob = codec.dumps(payload)
    assert blob == generic_dumps(payload)
    assert repr(codec.loads(blob)) == repr(generic_loads(blob))
