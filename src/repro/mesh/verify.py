"""Mesh validity verification.

``verify`` walks the whole representation and checks the invariants the rest
of the code relies on; every mesh-modifying operation's tests call it.  The
checks mirror PUMI's ``apf::verify``, applied to the SoA core arrays:

* downward/upward consistency (i is in up(j) iff j is in down(i)),
* upward rows sorted strictly ascending (the core's CSR row invariant),
* canonical vertex tuples agree with downward entities' vertices,
* no dangling entities (every edge/face below the mesh dimension bounds
  something, unless ``allow_dangling``),
* free-list consistency: the free-list holds exactly the dead slots below
  the high-water mark, each once — a corrupt free-list would hand out live
  or out-of-range handles,
* geometric classification dimension >= entity dimension, and classification
  present when the mesh carries a model,
* for simplex elements, strictly positive measure (no inverted elements)
  when ``check_volumes`` is set.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .entity import Ent
from .mesh import Mesh
from .quality import measure
from .topology import TET, TRI, type_info

_MAX_ERRORS = 20


class MeshInvalidError(AssertionError):
    """The mesh violates a representation invariant."""


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


def verify(
    mesh: Mesh,
    allow_dangling: bool = False,
    check_classification: Optional[bool] = None,
    check_volumes: bool = False,
) -> None:
    """Raise :class:`MeshInvalidError` on the first violated invariant."""
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

    if errors:
        summary = "\n  ".join(errors[:_MAX_ERRORS])
        raise MeshInvalidError(
            f"mesh verification failed ({len(errors)}+ issue(s)):\n  {summary}"
        )
