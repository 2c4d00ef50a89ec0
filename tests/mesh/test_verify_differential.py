"""Differential test: the columnar ``verify`` against the per-entity walk.

The oracle below is the scalar walk ``verify`` used to be: one Python pass
over every live entity, with per-row accessors.  Each case builds a small
mesh, applies one random corruption straight to the core arrays, and
asserts both report the same messages in the same order (the first
``_MAX_ERRORS`` of them when there are more).
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.adapt import split_edge
from repro.mesh import PRISM, TET, TRI, Ent, Mesh, box_tet, rect_tri
from repro.mesh.quality import measure
from repro.mesh.topology import TYPES, type_info
from repro.mesh.verify import _MAX_ERRORS, MeshInvalidError, verify


# -- the oracle: the per-entity walk -------------------------------------------


def _check_free_lists(mesh: Mesh, errors: List[str]) -> None:
    core = mesh.core
    for dim in range(4):
        top, free = core.top[dim], np.asarray(core.free[dim], dtype=np.int64)
        inside = (free >= 0) & (free < top)
        live = inside & core.alive[dim][np.where(inside, free, 0)]
        repeat = np.ones(len(free), dtype=bool)
        repeat[np.unique(free, return_index=True)[1]] = False
        for k in np.flatnonzero(~inside | live | repeat).tolist():
            idx = int(free[k])
            if not inside[k]:
                errors.append(
                    f"M{dim}_{idx}: free-list entry out of range (top={top})"
                )
            elif live[k]:
                errors.append(f"M{dim}_{idx}: live entity on the free-list")
            if repeat[k]:
                errors.append(f"M{dim}_{idx}: duplicated on the free-list")
        for idx in np.setdiff1d(np.flatnonzero(~core.alive[dim][:top]),
                                free).tolist():
            errors.append(f"M{dim}_{idx}: dead slot missing from the free-list")


def walk_verify(
    mesh: Mesh,
    allow_dangling: bool = False,
    check_classification: Optional[bool] = None,
    check_volumes: bool = False,
) -> List[str]:
    """The reported messages of the per-entity walk, in report order."""
    errors: List[str] = []
    if check_classification is None:
        check_classification = mesh.model is not None
    mesh_dim = mesh.dim()
    core = mesh.core

    _check_free_lists(mesh, errors)

    for dim in range(mesh_dim + 1):
        for idx in core.live_ids(dim).tolist():
            ent = Ent(dim, idx)
            info = type_info(int(core.etype[dim][idx]))
            if info.dim != dim:
                errors.append(f"{ent}: type {info.name} in dim-{dim} store")
                continue
            verts = core.verts_row(dim, idx)
            if len(verts) != info.nverts:
                errors.append(
                    f"{ent}: {len(verts)} vertices, expected {info.nverts}"
                )
            if dim > 0:
                down = core.down_row(dim, idx)
                expected = info.downward_count(dim - 1)
                if len(down) != expected:
                    errors.append(
                        f"{ent}: {len(down)} downward entities, "
                        f"expected {expected}"
                    )
                down_verts = set()
                for j in down:
                    if not core.is_alive(dim - 1, j):
                        errors.append(f"{ent}: dead downward entity {j}")
                        continue
                    if idx not in core.up_row(dim - 1, j):
                        errors.append(
                            f"{ent}: missing upward link from M{dim-1}_{j}"
                        )
                    down_verts.update(
                        core.verts_row(dim - 1, j) if dim > 1 else (j,)
                    )
                if down_verts and down_verts != set(verts):
                    errors.append(
                        f"{ent}: downward closure vertices {sorted(down_verts)}"
                        f" != canonical vertices {sorted(verts)}"
                    )
            if dim < mesh_dim and not allow_dangling:
                if not core.nup[dim][idx]:
                    errors.append(f"{ent}: dangles (bounds nothing)")
            if dim < 3:
                uppers = core.up_row(dim, idx)
                if any(b <= a for a, b in zip(uppers, uppers[1:])):
                    errors.append(
                        f"{ent}: upward row not sorted ascending: {uppers}"
                    )
                for upper in uppers:
                    if not core.is_alive(dim + 1, upper):
                        errors.append(f"{ent}: dead upward entity {upper}")
                    elif idx not in core.down_row(dim + 1, upper):
                        errors.append(
                            f"{ent}: upward link to M{dim+1}_{upper} not reciprocated"
                        )
            if check_classification:
                gent = mesh.classification(ent)
                if gent is None:
                    errors.append(f"{ent}: unclassified")
                elif gent.dim < dim:
                    errors.append(
                        f"{ent}: classified on lower-dimension {gent}"
                    )
            if check_volumes and info.code in (TRI, TET) and dim == mesh_dim:
                size = measure(mesh, ent)
                if size <= 0.0:
                    errors.append(f"{ent}: non-positive measure {size}")
            if errors and len(errors) >= _MAX_ERRORS:
                break
        if errors and len(errors) >= _MAX_ERRORS:
            break

    return errors[:_MAX_ERRORS]


# -- meshes --------------------------------------------------------------------


def mixed_prism_tet():
    """Two prisms sharing a quad face, a tet capping one of them."""
    mesh = Mesh()
    pts = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
        (1, 1, 0), (1, 1, 1), (0.3, 0.3, 2),
    ]
    v = [mesh.create_vertex(p) for p in pts]
    mesh.create(PRISM, [v[i] for i in (0, 1, 2, 3, 4, 5)])
    mesh.create(PRISM, [v[i] for i in (1, 6, 2, 4, 7, 5)])
    mesh.create(TET, [v[i] for i in (3, 4, 5, 8)])
    return mesh


def recycled(rng):
    """A classified triangle mesh whose free lists hold recycled slots:
    two rounds of edge splits, the second reusing the first's dead slots."""
    mesh = rect_tri(int(rng.integers(2, 5)))
    for _round in range(2):
        for _k in range(3):
            edges = mesh.core.live_ids(1)
            split_edge(mesh, Ent(1, int(rng.choice(edges))))
    assert all(mesh.core.free[d] for d in (1, 2))
    return mesh


MESHES = {
    "rect_tri": lambda rng: rect_tri(int(rng.integers(1, 5))),
    "box_tet": lambda rng: box_tet(int(rng.integers(1, 3))),
    "mixed": lambda rng: mixed_prism_tet(),
    "recycled": recycled,
}


# -- mutations -----------------------------------------------------------------


def pick(rng, ids, but=None):
    return int(rng.choice([i for i in np.asarray(ids).tolist() if i != but]))


def drop_up_entry(mesh, rng):
    core = mesh.core
    d = int(rng.integers(0, mesh.dim()))
    idx = pick(rng, core.live_ids(d))
    core.remove_up(d, idx, int(rng.choice(core.up_row(d, idx))))


def unsort_up_row(mesh, rng):
    """Swap two entries of an up row, or repeat one over its successor."""
    core = mesh.core
    d = int(rng.integers(0, mesh.dim()))
    rows = core.live_ids(d)[core.nup[d][core.live_ids(d)] >= 2]
    idx = pick(rng, rows)
    i, j = sorted(rng.choice(int(core.nup[d][idx]), size=2, replace=False))
    if rng.random() < 0.5:
        core.up[d][idx, [i, j]] = core.up[d][idx, [j, i]]
    else:
        core.up[d][idx, i + 1] = core.up[d][idx, i]


def repoint_down_entry(mesh, rng):
    core = mesh.core
    d = int(rng.integers(1, mesh.dim() + 1))
    idx = pick(rng, core.live_ids(d))
    slot = int(rng.integers(0, core.ndown[d][idx]))
    dead = core.free[d - 1] + [core.top[d - 1] + 3, -1]
    live = rng.random() < 0.5
    core.down[d][idx, slot] = pick(
        rng, core.live_ids(d - 1) if live else dead, but=core.down[d][idx, slot]
    )


def shift_vertex(mesh, rng):
    core = mesh.core
    d = int(rng.integers(1, mesh.dim() + 1))
    idx = pick(rng, core.live_ids(d))
    slot = int(rng.integers(0, core.nverts[d][idx]))
    core.verts[d][idx, slot] = pick(rng, core.live_ids(0), but=core.verts[d][idx, slot])


def spoil_classification(mesh, rng):
    core = mesh.core
    d = int(rng.integers(0, mesh.dim() + 1))
    lower = np.flatnonzero(mesh.class_pairs()[:, 0] < d) if len(mesh.class_pairs()) else []
    code = int(rng.choice(lower)) if len(lower) and rng.random() < 0.5 else -1
    core.gclass[d][pick(rng, core.live_ids(d))] = code


def corrupt_free_list(mesh, rng):
    core = mesh.core
    held = [d for d in range(4) if core.free[d]]
    d = int(rng.choice(held)) if held else int(rng.integers(0, mesh.dim() + 1))
    free = core.free[d]
    how = rng.integers(0, 4) if free else rng.integers(0, 2)
    if how == 0:
        free.append(pick(rng, core.live_ids(d)))
    elif how == 1:
        free.insert(int(rng.integers(0, len(free) + 1)), core.top[d] + 1)
    elif how == 2:
        free.append(free[int(rng.integers(0, len(free)))])
    else:
        free.pop(int(rng.integers(0, len(free))))


def wrong_row_counts(mesh, rng):
    core = mesh.core
    d = int(rng.integers(0, mesh.dim() + 1))
    idx = pick(rng, core.live_ids(d))
    column = ("etype", "nverts", "ndown")[int(rng.integers(0, 3 if d else 2))]
    now = int(getattr(core, column)[d][idx])
    if column == "etype":
        choices = [code for code in TYPES if code != now]
    else:
        width = getattr(core, column[1:])[d].shape[1]
        choices = [n for n in range(width + 1) if n != now]
    getattr(core, column)[d][idx] = rng.choice(choices)


def invert_element(mesh, rng):
    core = mesh.core
    d = mesh.dim()
    idx = pick(rng, core.live_ids(d))
    core.verts[d][idx, [0, 1]] = core.verts[d][idx, [1, 0]]


MUTATIONS = {
    "drop_up_entry": drop_up_entry,
    "unsort_up_row": unsort_up_row,
    "repoint_down_entry": repoint_down_entry,
    "shift_vertex": shift_vertex,
    "spoil_classification": spoil_classification,
    "corrupt_free_list": corrupt_free_list,
    "wrong_row_counts": wrong_row_counts,
    "invert_element": invert_element,
    "none": lambda mesh, rng: None,
}


def columnar_messages(mesh, **flags) -> List[str]:
    try:
        verify(mesh, **flags)
    except MeshInvalidError as exc:
        return str(exc).split("\n  ")[1:]
    return []


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("seed", range(8))
def test_columnar_verify_matches_the_walk(kind, mutation, seed):
    rng = np.random.default_rng([seed, sorted(MESHES).index(kind),
                                 sorted(MUTATIONS).index(mutation)])
    mesh = MESHES[kind](rng)
    MUTATIONS[mutation](mesh, rng)
    flags = dict(
        allow_dangling=bool(rng.random() < 0.25),
        # Asked for explicitly, an unmodelled mesh reports every entity.
        check_classification=True if mutation == "spoil_classification" else None,
        # The walk's measure needs each element's table vertex count.
        check_volumes=mutation != "wrong_row_counts",
    )
    want = walk_verify(mesh, **flags)
    assert columnar_messages(mesh, **flags) == want
    if mutation not in ("none", "invert_element"):
        assert want, "the mutation broke no invariant"
