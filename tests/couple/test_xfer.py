"""Tests for repro.couple.xfer: transformer stages and cross-mesh transfer.

The heart of this file is the bit-parity gate: the distributed
``transfer_between`` must reproduce the serial ``transfer_vertex_field``
output exactly — same bytes — at every part-count combination, because the
winner key ``(not contained, d2, gid, values)`` is partition-invariant.
"""

import numpy as np
import pytest

from repro.couple import (
    CoupleError,
    Interpolate,
    Scale,
    TimeWindow,
    TransformSpec,
    apply_stages,
    build_stages,
    transfer_between,
)
from repro.couple.xfer import elect
from repro.field import Field, transfer_vertex_field
from repro.mesh import rect_tri
from repro.mesh.generate import delaunay_rect
from repro.partition import distribute
from repro.partition.fieldsync import DistributedField
from repro.partitioners import partition


def front(x):
    x = np.asarray(x, dtype=float)
    return float(np.sin(3 * x[0]) + np.cos(2 * x[1]) + 0.5 * x[0] * x[1])


def make_distributed(mesh, nparts):
    return distribute(mesh, partition(mesh, nparts, method="rcb"))


# -- stages ------------------------------------------------------------------


def test_build_stages_order_and_kinds():
    stages = build_stages(
        (
            TransformSpec(kind="interpolate"),
            TransformSpec(kind="scale", param=3.0),
            TransformSpec(kind="time-window", param=2),
        )
    )
    assert [type(s) for s in stages] == [Interpolate, Scale, TimeWindow]


def test_scale_and_interpolate():
    values = np.arange(4, dtype=float).reshape(2, 2)
    assert np.array_equal(Interpolate().apply(values, 0), values)
    assert np.array_equal(Scale(2.0).apply(values, 0), 2.0 * values)


def test_time_window_moving_average():
    win = TimeWindow(2)
    a = np.full((2, 1), 1.0)
    b = np.full((2, 1), 3.0)
    c = np.full((2, 1), 5.0)
    assert np.array_equal(win.apply(a, 0), a)
    assert np.array_equal(win.apply(b, 1), np.full((2, 1), 2.0))
    assert np.array_equal(win.apply(c, 2), np.full((2, 1), 4.0))  # (3+5)/2


def test_time_window_rejects_bad_width():
    with pytest.raises(CoupleError):
        TimeWindow(0)


def test_apply_stages_chains_in_order():
    stages = build_stages(
        (
            TransformSpec(kind="scale", param=2.0),
            TransformSpec(kind="time-window", param=2),
        )
    )
    one = np.full((1, 1), 1.0)
    assert apply_stages(stages, one, 0)[0, 0] == 2.0
    # Second frame: scaled to 6, averaged with the previous scaled 2 -> 4.
    three = np.full((1, 1), 3.0)
    assert apply_stages(stages, three, 1)[0, 0] == 4.0


# -- cross-mesh transfer parity ---------------------------------------------


@pytest.mark.parametrize("nsrc", [1, 2, 4])
@pytest.mark.parametrize("ndst", [1, 2])
def test_transfer_between_matches_serial_bit_for_bit(nsrc, ndst):
    src = rect_tri(6)
    dst = delaunay_rect(8, seed=3)
    field = Field(src, "u", 0, 1)
    field.set_from_coords(front)
    serial = transfer_vertex_field(src, field, dst)

    src_d = make_distributed(src, nsrc)
    dst_d = make_distributed(dst, ndst)
    sfield = DistributedField(src_d, "u", 0, 1)
    sfield.set_from_coords(front)
    dfield, stats = transfer_between(src_d, sfield, dst_d)

    checked = 0
    for part in dst_d:
        ids = part.mesh.core.live_ids(0)
        gids = part.gids_of(0, ids)
        assert np.array_equal(
            dfield.on(part.pid).get_many(ids), serial.get_many(gids)
        )
        checked += len(ids)
    assert checked >= dst.count(0)
    assert stats.nsrc == nsrc and stats.ndst == ndst
    assert stats.sf_ops == 2 and stats.supersteps == 2
    assert stats.messages == 2 * nsrc * ndst
    assert stats.points == checked


def test_election_picks_what_min_over_the_winner_keys_picks():
    """Candidates that tie on (contained, d2, gid) — duplicate gids from
    several source parts among them — are told apart by their values, and
    a full tie goes to the first part, as Python's ``min`` has it."""
    rng = np.random.default_rng(7)
    nsrc, npoints = 3, 60
    candidates = [
        (
            rng.choice([-1.0, 0.0, -0.0, 2.0], (npoints, 2)),
            rng.choice([3, 4], npoints),
            rng.random(npoints) < 0.7,
            rng.choice([0.0, 0.25], npoints),
        )
        for _s in range(nsrc)
    ]
    for j in range(0, npoints, 4):  # (contained, d2, gid) tie across parts
        for values, gids, contained, d2 in candidates[1:]:
            gids[j], contained[j], d2[j] = (
                candidates[0][1][j], candidates[0][2][j], candidates[0][3][j]
            )
    values, contained = elect(candidates)
    for j in range(npoints):
        best = min(
            (int(not c[2][j]), float(c[3][j]), int(c[1][j]),
             tuple(float(v) for v in c[0][j]))
            for c in candidates
        )
        assert np.array(best[3]).tobytes() == values[j].tobytes()
        assert bool(contained[j]) == (best[0] == 0)


def test_transfer_between_multicomponent():
    src = rect_tri(5)
    dst = rect_tri(7)

    def vec(x):
        return [front(x), -2.0 * front(x)]

    field = Field(src, "v", 0, 2)
    field.set_from_coords(vec)
    serial = transfer_vertex_field(src, field, dst)

    src_d = make_distributed(src, 2)
    dst_d = make_distributed(dst, 2)
    sfield = DistributedField(src_d, "v", 0, 2)
    sfield.set_from_coords(vec)
    dfield, _stats = transfer_between(src_d, sfield, dst_d)
    for part in dst_d:
        ids = part.mesh.core.live_ids(0)
        gids = part.gids_of(0, ids)
        assert np.array_equal(
            dfield.on(part.pid).get_many(ids), serial.get_many(gids)
        )


def test_transfer_between_deterministic_stats():
    src = rect_tri(5)
    dst = rect_tri(6)

    def run():
        src_d = make_distributed(src, 2)
        dst_d = make_distributed(dst, 2)
        sfield = DistributedField(src_d, "u", 0, 1)
        sfield.set_from_coords(front)
        _dfield, stats = transfer_between(src_d, sfield, dst_d)
        return stats.to_dict()

    assert run() == run()


def test_transfer_between_rejects_non_vertex_fields():
    src = rect_tri(3)
    dst = rect_tri(4)
    src_d = make_distributed(src, 1)
    dst_d = make_distributed(dst, 1)
    efield = DistributedField(src_d, "e", 2, 1)
    with pytest.raises(CoupleError):
        transfer_between(src_d, efield, dst_d)


def test_transfer_between_renames_output():
    src = rect_tri(3)
    dst = rect_tri(4)
    src_d = make_distributed(src, 1)
    dst_d = make_distributed(dst, 1)
    sfield = DistributedField(src_d, "u", 0, 1)
    sfield.set_from_coords(front)
    dfield, _ = transfer_between(src_d, sfield, dst_d, name="u_in")
    assert dfield.on(0).name == "u_in"
