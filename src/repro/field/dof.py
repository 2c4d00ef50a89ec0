"""Degree-of-freedom numbering over a distributed mesh.

The paper's motivating example for multi-criteria balance: "one step in a
multi-physics analysis may be using a cell centered FV method where work
load balance is based on the mesh regions only, while another step may be
using second order FE on the same mesh where vertex and edge balance is
more important to scaling than region balance" (Section I).

:class:`DofNumbering` assigns globally consistent dof ids for the standard
Lagrange families:

* ``order=1`` — one dof per vertex,
* ``order=2`` — one per vertex plus one per edge (the quadratic nodes),
* ``order=0`` — one per element (the FV/cell-centered case).

Owned entities receive the ids (numbered by owner part, then owner-local
order); copies learn their ids through one neighbor exchange, exactly the
way an FE code builds its parallel dof maps.  The per-part dof count —
including duplicated boundary dofs — is the load ParMA's priority lists
balance, and :func:`dof_loads` exposes it for direct comparison.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..mesh.entity import Ent
from ..partition.dmesh import DistributedMesh

_TAG_DOF = 41

#: entity dimensions carrying dofs, per polynomial order.
_ORDER_DIMS = {0: None, 1: (0,), 2: (0, 1)}


class DofNumbering:
    """Globally consistent dof ids for one Lagrange order."""

    def __init__(self, dmesh: DistributedMesh, order: int = 1) -> None:
        if order not in _ORDER_DIMS:
            raise ValueError(f"unsupported order {order} (use 0, 1 or 2)")
        self.dmesh = dmesh
        self.order = order
        self.dims: Tuple[int, ...] = (
            (dmesh.element_dim(),)
            if order == 0
            else _ORDER_DIMS[order]
        )
        #: per part: entity -> global dof id.
        self._ids: Dict[int, Dict[Ent, int]] = {p.pid: {} for p in dmesh}
        self.total = 0
        self._number()

    def _number(self) -> None:
        dmesh = self.dmesh
        # Phase 1: owners number their entities (deterministic order).
        next_id = 0
        for part in dmesh:
            ids = self._ids[part.pid]
            for dim in self.dims:
                for idx in part.owned_ids(dim).tolist():
                    ids[Ent(dim, idx)] = next_id
                    next_id += 1
        self.total = next_id

        # Phase 2: owners tell every copy its id (one exchange).
        router = dmesh.router()
        for part in dmesh:
            ids = self._ids[part.pid]
            for dim in sorted(self.dims):
                for idx, pid, rid in zip(*(c.tolist() for c in part.links(dim))):
                    dof = ids.get(Ent(dim, idx))
                    if dof is not None:
                        router.post(part.pid, pid, _TAG_DOF, (Ent(dim, rid), dof))
        inboxes = router.exchange()
        for pid in sorted(inboxes):
            ids = self._ids[pid]
            for _src, _tag, (ent, dof) in inboxes[pid]:
                ids[ent] = dof

    # -- queries ---------------------------------------------------------

    def id_of(self, pid: int, ent: Ent) -> int:
        """Global dof id of an entity on a part."""
        try:
            return self._ids[pid][ent]
        except KeyError:
            raise KeyError(
                f"part {pid}: {ent} carries no dof (order {self.order})"
            ) from None

    def has(self, pid: int, ent: Ent) -> bool:
        return ent in self._ids[pid]

    def element_dofs(self, pid: int, element: Ent) -> List[int]:
        """The element's dof ids in canonical order (vertices, then edges)."""
        part = self.dmesh.part(pid)
        mesh = part.mesh
        dofs: List[int] = []
        if self.order == 0:
            return [self.id_of(pid, element)]
        for v in mesh.verts_of(element):
            dofs.append(self.id_of(pid, v))
        if self.order == 2:
            for e in mesh.adjacent(element, 1):
                dofs.append(self.id_of(pid, e))
        return dofs

    def part_dof_count(self, pid: int) -> int:
        """Dofs present on a part (boundary dofs counted here AND on the
        other holders — the duplication that drives Vtx/Edge balancing)."""
        return len(self._ids[pid])

    def loads(self) -> np.ndarray:
        """Per-part dof counts (the balance metric for this order)."""
        return np.asarray(
            [self.part_dof_count(p.pid) for p in self.dmesh]
        )


def dof_loads(dmesh: DistributedMesh, order: int) -> np.ndarray:
    """Per-part dof counts without keeping the numbering around."""
    return DofNumbering(dmesh, order).loads()


def dof_imbalance(dmesh: DistributedMesh, order: int) -> float:
    """Peak dof imbalance (max/mean) for one discretization order."""
    loads = dof_loads(dmesh, order).astype(float)
    mean = loads.mean()
    return float(loads.max()) / mean if mean > 0 else 1.0
