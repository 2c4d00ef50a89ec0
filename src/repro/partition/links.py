"""Part-boundary link discovery: which parts hold a copy of which entity.

The array kernels under everything that derives remote-copy links —
:func:`~repro.partition.distribute.distribute` (in process),
:func:`~repro.partition.migration.rebuild_links` (at the hash homes of its
rendezvous), ``migrate``'s relink (at the owners) and
:meth:`DistributedMesh.verify <repro.partition.dmesh.DistributedMesh.verify>`
(as the completeness oracle).  Nothing here communicates.

* :func:`surface_ids` — the candidate set: an entity shared with another
  part necessarily lies on its part's topological surface;
* :func:`link_answers` — the grouping job: copies of one identity (an
  entity key, or an owner's handle) held by two or more parts, answered
  to every holder with the list of the others;
* :func:`link_owners` — every entity's owner (its lowest holder) and its
  handle there, read off a part's link columns;
* :func:`answer_columns` — reading the answers back as link columns for
  :meth:`Part.replace_links <repro.partition.part.Part.replace_links>`.

Link rows are ragged integer rows in CSR form (``lengths``, ``flat``), the
columns of a kind-3 wire frame (:func:`repro.parallel.codec.encode_int_rows`).
An *answer* row is ``(dim, idx, q0, j0, q1, j1, ...)``: the receiving part
holds the entity at ``Ent(dim, idx)`` and part ``qk`` holds it at
``Ent(dim, jk)``; a row with no pairs says nobody else does.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .part import Links, Part


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + counts[k])`` for every k, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
        starts - (ends - counts), counts
    )


def surface_masks(part: Part) -> List[np.ndarray]:
    """Per dimension below the part's element dimension, the handle mask of
    the entities on the part's topological surface.

    The surface is the facets (dimension D-1) bounding exactly one
    non-ghost element, plus their closure; ghost copies are never on it.
    """
    core = part.mesh.core
    dim = part.mesh.dim()
    masks = [np.zeros(core.top[d], dtype=bool) for d in range(dim)]
    if dim == 0:
        return masks
    fdim = dim - 1
    top = core.top[fdim]
    nup = core.nup[fdim][:top]
    ghost_elements = part.ghost_ids(dim)
    if len(ghost_elements):
        nup = nup - np.bincount(
            core.gather_down(dim, ghost_elements), minlength=top
        )
    surf = np.flatnonzero(core.alive[fdim][:top] & (nup == 1))
    masks[fdim][surf] = True
    if fdim >= 1:
        masks[0][core.gather_verts(fdim, surf)] = True
    if fdim == 2:
        masks[1][core.gather_down(2, surf)] = True
    return masks


def surface_ids(part: Part) -> List[np.ndarray]:
    """Ids of the part's surface entities, ascending, one array per
    dimension below its element dimension.

    A complete (and cheap) candidate set for remote-link discovery.
    """
    return [np.flatnonzero(mask) for mask in surface_masks(part)]


def link_owners(
    pid: int, links: Links, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Owner part and the handle there of part ``pid``'s entities ``ids``,
    read off one dimension's link columns ``links``: the lowest holder,
    :meth:`Part.owner <repro.partition.part.Part.owner>`'s rule."""
    lids, pids, rids = links
    if not len(lids):
        return np.full(len(ids), pid, dtype=np.int64), ids
    # Rows sort by (id, pid): an id's first row names its lowest copy.
    at = np.minimum(lids.searchsorted(ids), len(lids) - 1)
    remote = (lids[at] == ids) & (pids[at] < pid)
    return np.where(remote, pids[at], pid), np.where(remote, rids[at], ids)


def link_answers(
    dim: np.ndarray,
    keys: np.ndarray,
    pid: np.ndarray,
    idx: np.ndarray,
    lone: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group copy records by identity; answer the holders of shared ones.

    One record per copy: the entity's dimension, its identity (a row of the
    fixed-width integer matrix ``keys``), the holding part and the handle
    there.  ``lone`` answers the holder of an identity held once too.

    Returns ``(dest, lengths, flat)``: one answer row per holder of every
    identity with two or more holders (or one, with ``lone``), sorted by
    destination part ``dest`` (stable: ascending ``(dim, key)`` within a
    destination), with the other holders in ascending part order.
    """
    order = np.lexsort(
        (pid,) + tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1))
        + (dim,)
    )
    dim, keys, pid, idx = dim[order], keys[order], pid[order], idx[order]
    new_key = np.ones(len(dim), dtype=bool)
    new_key[1:] = (dim[1:] != dim[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
    size = np.diff(np.append(np.flatnonzero(new_key), len(dim)))
    shared = size >= (1 if lone else 2)
    keep = np.repeat(shared, size)
    dim, pid, idx, size = dim[keep], pid[keep], idx[keep], size[shared]
    start = np.repeat(np.cumsum(size) - size, size)
    size = np.repeat(size, size)

    by_dest = np.argsort(pid, kind="stable")
    size = size[by_dest]
    partner = ragged_arange(start[by_dest], size)
    partner = partner[partner != np.repeat(by_dest, size)]
    lengths = 2 * size
    flat = np.empty(int(lengths.sum()), dtype=np.int64)
    heads = np.cumsum(lengths) - lengths
    flat[heads] = dim[by_dest]
    flat[heads + 1] = idx[by_dest]
    tail = np.ones(len(flat), dtype=bool)
    tail[heads] = tail[heads + 1] = False
    flat[tail] = np.column_stack((pid[partner], idx[partner])).reshape(-1)
    return pid[by_dest], lengths, flat


def split_rows(
    dest: np.ndarray, lengths: np.ndarray, flat: np.ndarray
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Cut rows sorted by ``dest`` into one ``(dest, lengths, flat)`` run per
    distinct destination."""
    if not len(dest):
        return
    cut = np.flatnonzero(dest[1:] != dest[:-1]) + 1
    rows = [0, *cut.tolist(), len(dest)]
    values = [0, *np.cumsum(lengths)[cut - 1].tolist(), len(flat)]
    for k, d in enumerate(dest[rows[:-1]].tolist()):
        yield (
            d, lengths[rows[k]:rows[k + 1]], flat[values[k]:values[k + 1]]
        )


def answer_columns(
    lengths: np.ndarray, flat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Answer rows as link columns ``(dim, idx, pid, rid)``, one per named
    copy, in row order."""
    starts = np.cumsum(lengths) - lengths
    pairs = flat[ragged_arange(starts + 2, lengths - 2)].reshape(-1, 2)
    row = np.repeat(np.arange(len(lengths)), (lengths - 2) // 2)
    return flat[starts][row], flat[starts + 1][row], pairs[:, 0], pairs[:, 1]
