"""The part's gid and link columns against plain-Python oracles.

``Part.handles`` (gid -> handle, a sorted join over the gid column) is
checked against a dict built from the column after random writes and
drops; ``Part.replace_links``, which merges new rows into the kept ones,
against the one-sort rebuild it replaced, kept here as the oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mesh import Ent
from repro.partition.part import Part


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([0, 3]))
def test_handles_match_a_dict_of_the_column(seed, dim):
    rng = np.random.default_rng(seed)
    part = Part(0)
    held = {}
    for _ in range(int(rng.integers(1, 6))):
        free = [i for i in range(40) if i not in held]
        unused = [g for g in range(100) if g not in held.values()]
        n = int(rng.integers(0, 7))
        ids = rng.choice(free, size=n, replace=False)
        gids = rng.choice(unused, size=n, replace=False)
        part.set_gids(dim, ids, gids)
        held.update(zip(ids.tolist(), gids.tolist()))
        for idx in rng.choice(40, size=int(rng.integers(0, 4))).tolist():
            part.drop_gid(Ent(dim, idx))
            held.pop(idx, None)
    col = part._gid_arr[dim]
    oracle = {int(g): i for i, g in enumerate(col.tolist()) if g >= 0}
    asked = rng.integers(-2, 110, size=30)
    want = [oracle.get(int(g), -1) for g in asked]
    assert part.handles(dim, asked).tolist() == want
    assert part.handles(dim, np.empty(0, dtype=np.int64)).tolist() == []
    for g in asked[:5].tolist():
        ent = part.by_gid(dim, g)
        assert (ent.idx if ent is not None else -1) == oracle.get(g, -1)


def lexsort_replace(old, drop_ids, ids, pids, rids):
    """The former ``replace_links``: drop by mask, concatenate, one lexsort."""
    new = [np.asarray(col, dtype=np.int64) for col in (ids, pids, rids)]
    drop = np.concatenate((np.asarray(drop_ids, dtype=np.int64), new[0]))
    if not len(drop):
        return old
    keep = ~np.isin(old[0], drop)
    rows = [np.concatenate((o[keep], n)) for o, n in zip(old, new)]
    if len(new[0]):
        order = np.lexsort((rows[1], rows[0]))
        rows = [col[order] for col in rows]
    return tuple(rows)


def link_rows(rng, n, ids_below=30, nparts=6):
    """``n`` link rows with distinct ``(id, pid)``, sorted by them."""
    pairs = rng.choice(ids_below * nparts, size=n, replace=False)
    ids, pids = np.divmod(np.sort(pairs), nparts)
    return ids, pids, rng.integers(0, 500, size=n)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_replace_links_merges_like_the_lexsort_rebuild(seed):
    rng = np.random.default_rng(seed)
    part = Part(0)
    columns = link_rows(rng, int(rng.integers(0, 40)))
    part.replace_links(1, [], *columns)
    for _ in range(4):
        old = part.links(1)
        drop = rng.integers(0, 30, size=int(rng.integers(0, 4)))
        ids, pids, rids = link_rows(rng, int(rng.integers(0, 12)))
        order = rng.permutation(len(ids))  # new rows arrive in any order
        ids, pids, rids = ids[order], pids[order], rids[order]
        want = lexsort_replace(old, drop, ids, pids, rids)
        part.replace_links(1, drop, ids, pids, rids)
        got = part.links(1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(col.dtype == np.int64 for col in got)
