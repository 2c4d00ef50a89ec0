"""Mesh validity, checked as PUMI's ``apf::verify`` does: each invariant is a
whole-array fact about the :class:`MeshCore` columns of one dimension ``d``.

* ``free[d]`` holds exactly the dead slots below ``top[d]``, once each;
* a row of ``live_ids(d)`` has a dim-``d`` ``etype``, whose counts its
  ``nverts`` and ``ndown`` are;
* every ``down`` and ``up`` entry is live, and the ``(child, parent)`` pairs
  of the ``down`` rows of ``d`` and the ``up`` rows of ``d - 1`` agree;
* a row's ``verts`` are, as a set, its live children's ``verts``;
* ``nup > 0`` below the mesh dimension, unless ``allow_dangling``;
* ``up`` rows ascend strictly;
* ``gclass`` is a ``class_pairs()`` code of dimension ``>= d``;
* tri and tet elements have positive measure.

The first ``_MAX_ERRORS`` flagged cells in ``(dim, idx, check, slot)``
order are reported; an entity of the wrong type reports only that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import MeshCore
from .mesh import Mesh
from .quality import tet_volume, tri_area
from .topology import TET, TRI, TYPE_NAMES, TYPES

_MAX_ERRORS = 20

#: Per type code, then for an unknown code: dimension, nverts, ndown.
_DIM, _NVERTS, _NDOWN = np.array([
    (t.dim, t.nverts, t.downward_count(t.dim - 1) if t.dim else 0)
    for _code, t in sorted(TYPES.items())
] + [(-1, 0, 0)]).T


class MeshInvalidError(AssertionError):
    """The mesh violates a representation invariant."""


class _Flags(list):
    """Per check, its flagged cells as ``(major, idx, rank, slot, row, check)``
    columns and the ``text(row, slot)`` that formats one of them."""

    def add(self, major: int, rank: int, at, bad: np.ndarray, text) -> None:
        rows, slots = np.nonzero(bad) if bad.ndim == 2 else (np.flatnonzero(bad), 0)
        if len(rows):
            cells = np.broadcast_arrays(major, at[rows], rank, slots, rows, len(self))
            self.append((np.stack(cells), text))

    def report(self) -> str:
        major, idx, rank, slots, rows, check = np.hstack([c for c, _ in self])
        order = np.lexsort((slots, rank, idx, major))[:_MAX_ERRORS]
        return f"mesh verification failed ({len(idx)} issue(s)):\n  " + "\n  ".join(
            self[check[k]][1](rows[k], slots[k]) for k in order)


def _rows(rows: np.ndarray, counts: np.ndarray, ids: np.ndarray):
    """The padded rows of ``ids`` (any shape) and the mask of their prefixes."""
    block = rows[ids]
    return block, np.arange(block.shape[-1]) < counts[ids][..., None]


def _dim(mesh: Mesh, d: int, flags: _Flags, dangling: bool, classes: bool,
         volumes: bool) -> None:
    """Flag the free list and the entities of dimension ``d``."""
    core, ids = mesh.core, mesh.core.live_ids(d)
    top, free = core.top[d], np.asarray(core.free[d], dtype=np.int64)
    inside, at = (free >= 0) & (free < top), np.arange(len(free))
    repeat = ~np.isin(at, np.unique(free, return_index=True)[1])
    listed = np.bincount(free[inside], minlength=top) > 0
    missing = np.flatnonzero(~core.alive[d][:top] & ~listed)
    flags.add(d - 4, 0, at, ~inside | core.alive_at(d, free), lambda r, s: (
        f"M{d}_{free[r]}: live entity on the free-list" if inside[r]
        else f"M{d}_{free[r]}: free-list entry out of range (top={top})"))
    flags.add(d - 4, 1, at, repeat,
              lambda r, s: f"M{d}_{free[r]}: duplicated on the free-list")
    flags.add(d - 4, 2, len(free) + missing, np.ones(len(missing), dtype=bool),
              lambda r, s: f"M{d}_{missing[r]}: dead slot missing from the free-list")
    etype = core.etype[d][ids].astype(np.int64)
    code = np.where((etype >= 0) & (etype < len(TYPES)), etype, -1)
    typed = _DIM[code] == d
    flags.add(d, 0, ids, ~typed, lambda r, s: f"M{d}_{ids[r]}: type "
              f"{TYPE_NAMES.get(etype[r], etype[r])} in dim-{d} store")

    def flag(rank, bad, text):  # every name a text reads is bound once
        flags.add(d, rank, ids, (bad.T & typed).T,
                  lambda r, s: f"M{d}_{ids[r]}: " + text(r, s))

    (verts, von), (down, don), (up, uon) = (_rows(rows[d], n[d], ids) for rows, n in (
        (core.verts, core.nverts), (core.down, core.ndown), (core.up, core.nup)))
    flag(1, von.sum(axis=1) != _NVERTS[code],
         lambda r, s: f"{von[r].sum()} vertices, expected {_NVERTS[code[r]]}")
    if d:
        flag(2, don.sum(axis=1) != _NDOWN[code], lambda r, s: (
            f"{don[r].sum()} downward entities, expected {_NDOWN[code[r]]}"))
        child = don & core.alive_at(d - 1, down)
        rows, on = _rows(core.up[d - 1], core.nup[d - 1], np.where(child, down, 0))
        flag(3, don & ~(child & ((rows == ids[:, None, None]) & on).any(axis=2)),
             lambda r, s: f"missing upward link from M{d - 1}_{down[r, s]}"
             if child[r, s] else f"dead downward entity {down[r, s]}")
        cverts, con = ((down[:, :, None], child[:, :, None]) if d == 1 else _rows(
            core.verts[d - 1], core.nverts[d - 1], np.where(child, down, 0)))
        con = con & child[:, :, None]
        same = cverts[..., None] == verts[:, None, None, :]
        stray = (con & ~(same & von[:, None, None, :]).any(axis=3)).any(axis=(1, 2))
        unmet = (von & ~(same & con[..., None]).any(axis=(1, 2))).any(axis=1)
        flag(4, con.any(axis=(1, 2)) & (stray | unmet), lambda r, s: (
            f"downward closure vertices {sorted(set(cverts[r][con[r]].tolist()))}"
            f" != canonical vertices {sorted(verts[r][von[r]].tolist())}"))
    if dangling:
        flag(5, core.nup[d][ids] == 0, lambda r, s: "dangles (bounds nothing)")
    if d < 3:
        flag(6, ((up[:, 1:] <= up[:, :-1]) & uon[:, 1:]).any(axis=1), lambda r, s: (
            f"upward row not sorted ascending: {up[r][uon[r]].tolist()}"))
        parent = uon & core.alive_at(d + 1, up)
        rows, on = _rows(core.down[d + 1], core.ndown[d + 1], np.where(parent, up, 0))
        flag(7, uon & ~(parent & ((rows == ids[:, None, None]) & on).any(axis=2)),
             lambda r, s: f"upward link to M{d + 1}_{up[r, s]} not reciprocated"
             if parent[r, s] else f"dead upward entity {up[r, s]}")
    if classes:
        gclass, table = core.gclass[d][ids].astype(np.int64), mesh.class_pairs()
        coded = (gclass >= 0) & (gclass < len(table))
        gdim = np.append(table[:, 0], d)[np.where(coded, gclass, -1)]
        flag(8, ~coded | (gdim < d), lambda r, s: (
            "unclassified" if gclass[r] == -1 else "classified on lower-dimension "
            "G{}_{}".format(*table[gclass[r]]) if coded[r]
            else f"unknown classification code {gclass[r]}"))
    if volumes and d >= 2:
        simplex, formula = ((TRI, tri_area), (TET, tet_volume))[d - 2]
        pts = np.take(mesh.coords_view(), verts[:, :d + 1], axis=0, mode="clip")
        size = np.where(code == simplex, formula(*pts.transpose(1, 0, 2)), np.inf)
        flag(9, size <= 0.0, lambda r, s: f"non-positive measure {float(size[r])}")


def verify(mesh: Mesh, allow_dangling: bool = False,
           check_classification: Optional[bool] = None,
           check_volumes: bool = False) -> None:
    """Raise :class:`MeshInvalidError` listing the first violated invariants."""
    if check_classification is None:
        check_classification = mesh.model is not None
    flags, top = _Flags(), mesh.dim()
    for d in range(4):
        _dim(mesh, d, flags, d < top and not allow_dangling, check_classification,
             check_volumes and d == top)
    if flags:
        raise MeshInvalidError(flags.report())
