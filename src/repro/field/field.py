"""Fields: tensor quantities distributed over mesh entities.

"The fields are tensor quantities that define the distributions of the
physical parameters of the PDE over domain (mesh and geometric model)
entities" (paper, Section II).  A :class:`Field` associates a fixed-shape
NumPy value with entities of one dimension of one mesh — most commonly
scalars or vectors on vertices (linear Lagrange dofs), but any entity
dimension works (e.g. per-region material ids, per-edge fluxes).

Storage is structure-of-arrays: one ``(capacity, ncomp)`` value matrix
indexed by entity handle plus a set-mask, so batch reads/writes
(:meth:`Field.get_many` / :meth:`Field.set_many`) are single NumPy gathers
and the owner→copy sync path can ship whole columns.  The field registers a
destroy listener on its mesh: when an entity dies its value is evicted
immediately, so a recycled handle never inherits a stale value.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from ..mesh.entity import Ent
from ..mesh.mesh import Mesh

Shape = Union[int, Tuple[int, ...]]


class Field:
    """A named tensor field over the entities of one dimension of a mesh."""

    def __init__(
        self,
        mesh: Mesh,
        name: str,
        entity_dim: int = 0,
        shape: Shape = 1,
    ) -> None:
        if not 0 <= entity_dim <= 3:
            raise ValueError(f"entity dimension must be 0..3, got {entity_dim}")
        self.mesh = mesh
        self.name = name
        self.entity_dim = entity_dim
        self.shape: Tuple[int, ...] = (
            (shape,) if isinstance(shape, int) else tuple(shape)
        )
        #: Components per value: the product of ``shape``.
        self.ncomp = int(np.prod(self.shape))
        self._values = np.zeros((16, self.ncomp), dtype=float)
        self._mask = np.zeros(16, dtype=bool)
        self._count = 0
        mesh.add_destroy_listener(self._entity_destroyed)

    # -- storage -----------------------------------------------------------

    def _ensure(self, idx: int) -> None:
        if idx >= len(self._mask):
            cap = max(2 * len(self._mask), idx + 1)
            values = np.zeros((cap, self.ncomp), dtype=float)
            values[: len(self._mask)] = self._values
            mask = np.zeros(cap, dtype=bool)
            mask[: len(self._mask)] = self._mask
            self._values = values
            self._mask = mask

    def _entity_destroyed(self, dim: int, ids: np.ndarray) -> None:
        if dim == self.entity_dim:
            known = ids[ids < len(self._mask)]
            self._count -= int(self._mask[known].sum())
            self._mask[known] = False

    def _coerce(self, value) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.shape == () and self.shape == (1,):
            arr = arr.reshape(1)
        if arr.shape != self.shape:
            raise ValueError(
                f"field {self.name!r} expects shape {self.shape}, "
                f"got {arr.shape}"
            )
        return arr

    def _check_ent(self, ent: Ent) -> None:
        if ent.dim != self.entity_dim:
            raise ValueError(
                f"field {self.name!r} lives on dim-{self.entity_dim} "
                f"entities, got {ent}"
            )
        if not self.mesh.has(ent):
            raise KeyError(f"{ent} is not a live entity of the field's mesh")

    # -- per-entity access -------------------------------------------------

    def set(self, ent: Ent, value) -> None:
        self._check_ent(ent)
        self._ensure(ent.idx)
        self._values[ent.idx] = self._coerce(value).reshape(-1)
        if not self._mask[ent.idx]:
            self._mask[ent.idx] = True
            self._count += 1

    def get(self, ent: Ent) -> np.ndarray:
        self._check_ent(ent)
        if ent.idx >= len(self._mask) or not self._mask[ent.idx]:
            raise KeyError(f"field {self.name!r} has no value on {ent}")
        return self._values[ent.idx].reshape(self.shape).copy()

    def get_scalar(self, ent: Ent) -> float:
        """Value of a 1-component field as a plain float."""
        if self.shape != (1,):
            raise ValueError(f"field {self.name!r} is not scalar")
        return float(self.get(ent)[0])

    def has(self, ent: Ent) -> bool:
        return (
            ent.dim == self.entity_dim
            and ent.idx < len(self._mask)
            and bool(self._mask[ent.idx])
        )

    def remove(self, ent: Ent) -> None:
        if ent.dim == self.entity_dim and ent.idx < len(self._mask):
            if self._mask[ent.idx]:
                self._mask[ent.idx] = False
                self._count -= 1

    # -- batch access ------------------------------------------------------

    def set_many(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Assign ``values[k]`` (flattened components) to handle ``ids[k]``.

        Vectorized: one scatter into the value matrix.  Callers are trusted
        to pass live handles of the field's dimension.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return
        self._ensure(int(ids.max()))
        values = np.asarray(values, dtype=float).reshape(len(ids), self.ncomp)
        self._values[ids] = values
        fresh = ~self._mask[ids]
        if fresh.any():
            self._mask[ids] = True
            # Recount exactly: ids may contain duplicates.
            self._count = int(self._mask.sum())

    def get_many(self, ids: np.ndarray) -> np.ndarray:
        """``(len(ids), ncomp)`` value matrix for an array of handles."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return np.empty((0, self.ncomp), dtype=float)
        if int(ids.max()) >= len(self._mask) or not self._mask[ids].all():
            missing = next(
                i for i in ids.tolist()
                if i >= len(self._mask) or not self._mask[i]
            )
            raise KeyError(
                f"field {self.name!r} has no value on "
                f"{Ent(self.entity_dim, missing)}"
            )
        return self._values[ids].copy()

    def has_many(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` (handles of the field's dimension) carry a
        value: :meth:`has` for an array, as one boolean gather."""
        ids = np.asarray(ids, dtype=np.int64)
        if not len(ids) or int(ids.max()) < len(self._mask):
            return self._mask[ids]
        held = np.zeros(len(ids), dtype=bool)
        inside = ids < len(self._mask)
        held[inside] = self._mask[ids[inside]]
        return held

    def set_ids(self) -> np.ndarray:
        """Handles currently carrying a value, ascending."""
        return np.nonzero(self._mask)[0]

    # -- whole-field assignment --------------------------------------------

    def zero_all(self) -> None:
        """Set the field to zero on every live entity of its dimension."""
        ids = self.mesh.entity_ids(self.entity_dim)
        if len(ids) == 0:
            return
        self._ensure(int(ids.max()))
        self._values[ids] = 0.0
        self._mask[ids] = True
        self._count = int(self._mask.sum())

    def set_all(self, fn) -> None:
        """Assign ``fn(ent) -> value`` on every live entity."""
        for ent in self.mesh.entities(self.entity_dim):
            self.set(ent, fn(ent))

    def set_from_coords(self, fn) -> None:
        """Assign ``fn(xyz) -> value`` on every vertex (vertex fields only)."""
        if self.entity_dim != 0:
            raise ValueError("set_from_coords applies to vertex fields")
        ids = self.mesh.entity_ids(0)
        if len(ids) == 0:
            return
        self._ensure(int(ids.max()))
        coords = self.mesh._coords
        for i in ids.tolist():
            self._values[i] = self._coerce(fn(coords[i].copy())).reshape(-1)
        self._mask[ids] = True
        self._count = int(self._mask.sum())

    # -- iteration / aggregates --------------------------------------------

    def items(self) -> Iterator[Tuple[Ent, np.ndarray]]:
        dim = self.entity_dim
        for idx in self.set_ids().tolist():
            yield Ent(dim, idx), self._values[idx].reshape(self.shape).copy()

    def entities(self) -> Iterator[Ent]:
        dim = self.entity_dim
        return iter(Ent(dim, idx) for idx in self.set_ids().tolist())

    def __len__(self) -> int:
        return self._count

    def norm(self, kind: str = "l2") -> float:
        """Aggregate norm over all stored values (``l2`` or ``max``)."""
        if not self._count:
            return 0.0
        stacked = self._values[self._mask]
        if kind == "l2":
            return float(np.sqrt((stacked ** 2).sum()))
        if kind == "max":
            return float(np.abs(stacked).max())
        raise ValueError(f"unknown norm kind {kind!r}")

    def __repr__(self) -> str:
        return (
            f"Field({self.name!r}, dim={self.entity_dim}, "
            f"shape={self.shape}, {self._count} values)"
        )

