"""Part-boundary link discovery: which parts hold a copy of which entity.

The array kernels under everything that derives remote-copy links —
:func:`~repro.partition.distribute.distribute` (in process),
:func:`~repro.partition.migration.rebuild_links` and the ``migrate`` delta
(at the hash homes of their rendezvous) and
:meth:`DistributedMesh.verify <repro.partition.dmesh.DistributedMesh.verify>`
(as the completeness oracle).  Nothing here communicates.

* :func:`surface_ids` — the candidate set: an entity shared with another
  part necessarily lies on its part's topological surface;
* :func:`link_answers` — the grouping job: copies of one identity held by
  two or more parts, answered to every holder with the list of the others;
* :func:`answer_columns` — reading the answers back as link columns for
  :meth:`Part.replace_links <repro.partition.part.Part.replace_links>`.

Link rows are ragged integer rows in CSR form (``lengths``, ``flat``), the
columns of a kind-3 wire frame (:func:`repro.parallel.codec.encode_int_rows`).
An *answer* row is ``(dim, idx, q0, j0, q1, j1, ...)``: the receiving part
holds the entity at ``Ent(dim, idx)`` and part ``qk`` holds it at
``Ent(dim, jk)``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from .part import Part


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


def link_answers(
    dim: np.ndarray,
    keys: np.ndarray,
    pid: np.ndarray,
    idx: np.ndarray,
    alive: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group copy records by identity; answer the holders of shared ones.

    One record per known copy: the entity's dimension, its identity (a row
    of the fixed-width integer matrix ``keys``), the holding part and the
    handle there.  ``alive`` false marks a *tombstone*: that part destroyed
    its copy, which cancels every other record naming the same part for the
    same identity.  Several records of one copy count once.

    Returns ``(dest, lengths, flat)``: one answer row per holder of every
    identity left with two or more holders, sorted by destination part
    ``dest`` (stable: ascending ``(dim, key)`` within a destination), with
    the other holders in ascending part order.
    """
    n = len(dim)
    if alive is None:
        alive = np.ones(n, dtype=bool)
    order = np.lexsort(
        (alive, pid) + tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1))
        + (dim,)
    )
    dim, keys, pid, idx, alive = (
        dim[order], keys[order], pid[order], idx[order], alive[order]
    )
    new_key = np.ones(n, dtype=bool)
    new_key[1:] = (dim[1:] != dim[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
    new_holder = new_key.copy()
    new_holder[1:] |= pid[1:] != pid[:-1]
    # A tombstone sorts first within its (identity, part) run, so keeping
    # only run heads that are alive drops the whole run with it.
    keep = new_holder & alive
    group = np.cumsum(new_key)[keep] - 1
    size = np.bincount(group)
    keep[keep] = size[group] >= 2
    dim, pid, idx = dim[keep], pid[keep], idx[keep]
    size = size[size >= 2]
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
