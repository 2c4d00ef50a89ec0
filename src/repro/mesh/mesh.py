"""The mesh: a complete topological representation with O(1) adjacency.

"The minimal requirement of any such mesh representation is complete
representation with which the complexity of any mesh adjacency interrogation
is O(1) (i.e., not a function of mesh size)" (paper, Section I).
:class:`Mesh` satisfies this over an array-native core
(:class:`repro.mesh.core.MeshCore`): per-dimension SoA arrays holding
one-level downward and upward adjacencies plus canonical vertex tuples;
every adjacency query — any (d, d') pair, upward or downward, one or many
levels — resolves by walking only the entities local to the query.  So
does "which entity lies on these vertices" (:meth:`Mesh.find`, and the
landing kernel's probes): an upward walk from the least-used vertex, so the
core arrays are the one store of the topology.

The mesh also carries the other per-entity state PUMI maintains:

* **geometric classification** — the association of each mesh entity to the
  highest-level geometric model entity it partly represents,
* **tags** and **sets** — the common utilities of Section II,
* dynamic modification — entities can be created and destroyed at any time
  (edge splits, collapses, migration), with upward users checked so the
  representation can never dangle.

Entity ids ARE reused (the core keeps a free-list per dimension), so any
component that keys external state by handle must register a destroy
listener via :meth:`Mesh.add_destroy_listener` to evict stale entries the
moment an entity dies — the partition and field layers do exactly that.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..gmodel.classify import classify_point
from ..gmodel.model import Model, ModelEntity
from .core import VERT_WIDTH, MeshCore
from .entity import Ent
from .sets import SetManager
from .tag import TagManager
from .topology import (
    EDGE,
    TRI,
    VERTEX,
    type_info,
)

_INITIAL_VERTEX_CAPACITY = 16


class Mesh:
    """An unstructured mesh with full one-level adjacency (serial part).

    A distributed mesh is a collection of these, one per part, linked by the
    partition layer (:mod:`repro.partition`).
    """

    def __init__(self, model: Optional[Model] = None) -> None:
        #: The geometric model this mesh discretizes (may be None).
        self.model = model
        #: Array-native topology storage (SoA/CSR; see repro.mesh.core).
        self.core = MeshCore()
        self._coords = np.zeros((_INITIAL_VERTEX_CAPACITY, 3), dtype=float)
        #: Classification code table: code ``c`` of the ``core.gclass``
        #: columns names ``_gents[c]`` (per mesh: meshes without a model
        #: may still be classified).
        self._gents: List[ModelEntity] = []
        self._gcode: Dict[ModelEntity, int] = {}
        #: Tag component (arbitrary user data per entity).
        self.tags = TagManager()
        #: Set component (named entity groups).
        self.sets = SetManager()
        self._destroy_listeners: List[Any] = []

    # ------------------------------------------------------------------
    # destroy listeners (handle-reuse safety)
    # ------------------------------------------------------------------

    def add_destroy_listener(
        self, fn: Callable[[int, np.ndarray], None]
    ) -> None:
        """Call ``fn(dim, ids)`` whenever entities are destroyed.

        One call per destroyed batch: ``ids`` is the int array of dead
        handles of dimension ``dim`` (length 1 for a scalar
        :meth:`destroy`).  Because the core free-list reuses handles, any
        map keyed by handle outside the mesh (partition gids, field
        columns) must evict entries eagerly or a recycled handle would
        alias stale state.  Bound methods are held weakly so listeners
        never keep their owner alive.
        """
        try:
            self._destroy_listeners.append(weakref.WeakMethod(fn))
        except TypeError:
            self._destroy_listeners.append(lambda: fn)

    def _notify_destroy(self, dim: int, ids: np.ndarray) -> None:
        dead = False
        for ref in self._destroy_listeners:
            fn = ref()
            if fn is None:
                dead = True
            else:
                fn(dim, ids)
        if dead:
            self._destroy_listeners = [
                ref for ref in self._destroy_listeners if ref() is not None
            ]

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def create_vertex(
        self,
        xyz: Sequence[float],
        classification: Optional[ModelEntity] = None,
    ) -> Ent:
        """Create a vertex at ``xyz`` (2D points get z=0)."""
        idx = self.core.create(0, VERTEX, (), ())
        self._reserve_coords(idx + 1)
        point = np.asarray(xyz, dtype=float)
        self._coords[idx] = 0.0
        self._coords[idx, : point.shape[0]] = point
        ent = Ent(0, idx)
        if classification is not None:
            self.set_classification(ent, classification)
        return ent

    def _reserve_coords(self, need: int) -> None:
        """Grow the coordinate array to hold vertex ids below ``need``."""
        if need > len(self._coords):
            grown = np.zeros((max(2 * len(self._coords), need), 3))
            grown[: len(self._coords)] = self._coords
            self._coords = grown

    def create(
        self,
        etype: int,
        verts: Sequence[Ent],
        classification: Optional[ModelEntity] = None,
    ) -> Ent:
        """Find or create the entity of type ``etype`` on ``verts``.

        Intermediate bounding entities (edges of a face, faces of a region)
        are found, one walk per level, or created recursively, so callers
        may build a mesh from element-to-vertex connectivity alone — the
        usual PUMI workflow.
        ``classification``, when given, applies only to the entity itself
        (not to auto-created intermediates; see :meth:`classify_closure`).
        """
        info = type_info(etype)
        if info.dim == 0:
            raise ValueError("use create_vertex for vertices")
        vert_ids = tuple(self._vert_id(v) for v in verts)
        if len(vert_ids) != info.nverts:
            raise ValueError(
                f"{info.name} needs {info.nverts} vertices, got {len(vert_ids)}"
            )
        if len(set(vert_ids)) != len(vert_ids):
            raise ValueError(f"{info.name} has repeated vertices: {vert_ids}")
        existing = int(self.core.find_rows(info.dim, [vert_ids])[0])
        if existing < 0:
            existing = self._add(etype, vert_ids)
        ent = Ent(info.dim, existing)
        if classification is not None:
            self.set_classification(ent, classification)
        return ent

    def _add(self, etype: int, vert_ids: Sequence[int]) -> int:
        """Create the absent entity of type ``etype`` on ``vert_ids``; its
        one-level boundary is found in one walk, the missing part created
        first (template order)."""
        info = type_info(etype)
        if info.dim == 1:
            down = list(vert_ids)
        else:
            subs = (
                [(EDGE, pair) for pair in info.edges] if info.dim == 2
                else info.faces
            )
            rows = np.full((len(subs), VERT_WIDTH[info.dim - 1]), -1)
            for k, (_stype, locals_) in enumerate(subs):
                rows[k, : len(locals_)] = [vert_ids[i] for i in locals_]
            down = self.core.find_rows(info.dim - 1, rows).tolist()
            for k, (stype, locals_) in enumerate(subs):
                if down[k] < 0:
                    down[k] = self._add(stype, [vert_ids[i] for i in locals_])
        core = self.core
        idx = core.create(info.dim, etype, vert_ids, down)
        for down_idx in down:
            core.add_up(info.dim - 1, down_idx, idx)
        return idx

    # ------------------------------------------------------------------
    # destruction
    # ------------------------------------------------------------------

    def destroy(self, ent: Ent, cascade: bool = False) -> None:
        """Destroy ``ent``; with ``cascade`` also remove orphaned boundary.

        Raises if higher-dimension entities still use ``ent`` — the complete
        representation must never dangle.
        """
        core = self.core
        core.check(ent.dim, ent.idx)
        if core.nup[ent.dim][ent.idx]:
            raise ValueError(f"cannot destroy {ent}: higher entities remain")
        down_ids = core.down_row(ent.dim, ent.idx)
        core.destroy(ent.dim, ent.idx)
        self.tags.drop_entity(ent)
        self.sets.drop_entity(ent)
        self._notify_destroy(ent.dim, np.array([ent.idx], dtype=np.int64))
        if ent.dim > 0:
            below = ent.dim - 1
            for down_idx in down_ids:
                core.remove_up(below, down_idx, ent.idx)
            if cascade:
                for down_idx in down_ids:
                    if core.is_alive(below, down_idx) and not core.nup[below][down_idx]:
                        self.destroy(Ent(below, down_idx), cascade=True)

    def destroy_block(self, dim: int, ids: np.ndarray) -> None:
        """Destroy the entities ``ids`` of one dimension in one sweep.

        The bulk twin of :meth:`destroy` (no cascade): every id must be
        live, distinct and have no surviving upward user.
        Classification, tag and set entries are evicted, the destroy
        listeners get one ``(dim, ids)`` call, the lower rows lose their
        upward links in one vectorized pass, and the slots reach the
        free-list in the order given — exactly what a ``destroy`` loop
        over ``ids`` would leave behind.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return
        core = self.core
        core.check_destroyable(dim, ids)
        if dim >= 1:
            lowers = np.unique(core.gather_down(dim, ids))
        core.destroy_block(dim, ids)
        id_list = ids.tolist()
        self.tags.drop_entities(dim, id_list)
        self.sets.drop_entities(dim, id_list)
        self._notify_destroy(dim, ids)
        if dim >= 1:
            dead = np.zeros(len(core.alive[dim]), dtype=bool)
            dead[ids] = True
            core.bulk_remove_up(dim - 1, lowers, dead)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def has(self, ent: Ent) -> bool:
        """Whether ``ent`` refers to a live entity of this mesh."""
        return 0 <= ent.dim <= 3 and self.core.is_alive(ent.dim, ent.idx)

    def find(self, dim: int, verts: Sequence[Ent]) -> Optional[Ent]:
        """The live entity of ``dim`` on exactly these vertices, or None.

        O(local degree) by adjacency: a one-row
        :meth:`~repro.mesh.core.MeshCore.find_rows` walk up from the
        least-used vertex, never a table of the whole mesh.
        """
        if not 1 <= dim <= 3:
            raise ValueError(f"find() supports dims 1..3, got {dim}")
        vert_ids = [self._vert_id(v) for v in verts]
        idx = int(self.core.find_rows(dim, [vert_ids])[0]) if vert_ids else -1
        return Ent(dim, idx) if idx >= 0 else None

    def count(self, dim: int) -> int:
        """Number of live entities of dimension ``dim`` — O(1)."""
        return self.core.n_alive[dim]

    def entities(self, dim: int) -> Iterator[Ent]:
        """Live entities of one dimension in ascending id order."""
        for idx in self.core.live_ids(dim).tolist():
            yield Ent(dim, idx)

    def entity_ids(self, dim: int) -> np.ndarray:
        """Live entity ids of one dimension, ascending (array fast path)."""
        return self.core.live_ids(dim)

    def etype(self, ent: Ent) -> int:
        self.core.check(ent.dim, ent.idx)
        return int(self.core.etype[ent.dim][ent.idx])

    def type_name(self, ent: Ent) -> str:
        return type_info(self.etype(ent)).name

    def dim(self) -> int:
        """The mesh dimension: highest dimension with live entities."""
        for dim in (3, 2, 1, 0):
            if self.core.n_alive[dim]:
                return dim
        return 0

    # -- adjacency ---------------------------------------------------------

    def verts_of(self, ent: Ent) -> List[Ent]:
        """Canonical-order bounding vertices of ``ent``."""
        if ent.dim == 0:
            self.core.check(0, ent.idx)
            return [ent]
        self.core.check(ent.dim, ent.idx)
        return [Ent(0, v) for v in self.core.verts_row(ent.dim, ent.idx)]

    def down(self, ent: Ent) -> List[Ent]:
        """One-level downward adjacency in canonical order."""
        if ent.dim == 0:
            return []
        self.core.check(ent.dim, ent.idx)
        return [Ent(ent.dim - 1, i) for i in self.core.down_row(ent.dim, ent.idx)]

    def up(self, ent: Ent) -> List[Ent]:
        """One-level upward adjacency (ascending id order)."""
        if ent.dim == 3:
            return []
        self.core.check(ent.dim, ent.idx)
        return [Ent(ent.dim + 1, i) for i in self.core.up_row(ent.dim, ent.idx)]

    def adjacent(self, ent: Ent, dim: int) -> List[Ent]:
        """All entities of dimension ``dim`` adjacent to ``ent``.

        Complexity is proportional to the local neighbourhood only — the
        complete-representation guarantee.  ``dim == ent.dim`` returns
        ``[ent]`` for uniformity.  Order is first-occurrence of the
        frontier walk, hop by hop.
        """
        if dim == ent.dim:
            return [ent]
        return [Ent(dim, i) for i in self._adjacent_ids(ent, dim)]

    def _adjacent_ids(self, ent: Ent, dim: int) -> List[int]:
        """Integer-handle adjacency walk (no Ent churn in the hops)."""
        core = self.core
        core.check(ent.dim, ent.idx)
        if dim < ent.dim:
            if dim == 0:
                return list(core.verts_row(ent.dim, ent.idx))
            frontier = list(core.down_row(ent.dim, ent.idx))
            at = ent.dim - 1
            while frontier and at != dim:
                nxt: List[int] = []
                seen = set()
                for idx in frontier:
                    for lower in core.down_row(at, idx):
                        if lower not in seen:
                            seen.add(lower)
                            nxt.append(lower)
                frontier = nxt
                at -= 1
            return frontier
        frontier = core.up_row(ent.dim, ent.idx)
        at = ent.dim + 1
        while frontier and at != dim:
            nxt = []
            seen = set()
            for idx in frontier:
                for upper in core.up_row(at, idx):
                    if upper not in seen:
                        seen.add(upper)
                        nxt.append(upper)
            frontier = nxt
            at += 1
        return frontier

    def second_adjacent(self, ent: Ent, bridge_dim: int, target_dim: int) -> List[Ent]:
        """Entities of ``target_dim`` sharing a ``bridge_dim`` entity with ``ent``.

        The classic second-order adjacency, e.g. face-neighbour regions via
        ``bridge_dim=2``; ``ent`` itself is excluded.
        """
        if bridge_dim == ent.dim:
            bridges = [ent.idx]
        else:
            bridges = self._adjacent_ids(ent, bridge_dim)
        out: List[int] = []
        seen = {ent.idx} if target_dim == ent.dim else set()
        for bridge in bridges:
            targets = (
                [bridge]
                if target_dim == bridge_dim
                else self._adjacent_ids(Ent(bridge_dim, bridge), target_dim)
            )
            for other in targets:
                if other not in seen:
                    seen.add(other)
                    out.append(other)
        return [Ent(target_dim, i) for i in out]

    # -- coordinates ---------------------------------------------------------

    def coords(self, ent: Ent) -> np.ndarray:
        """Coordinates of a vertex (copy; 3-vector, z=0 for 2D meshes)."""
        if ent.dim != 0:
            raise ValueError(f"only vertices carry coordinates, got {ent}")
        self.core.check(0, ent.idx)
        return self._coords[ent.idx].copy()

    def set_coords(self, ent: Ent, xyz: Sequence[float]) -> None:
        if ent.dim != 0:
            raise ValueError(f"only vertices carry coordinates, got {ent}")
        self.core.check(0, ent.idx)
        point = np.asarray(xyz, dtype=float)
        self._coords[ent.idx, : point.shape[0]] = point

    def centroid(self, ent: Ent) -> np.ndarray:
        """Average of ``ent``'s vertex coordinates."""
        if ent.dim == 0:
            return self.coords(ent)
        self.core.check(ent.dim, ent.idx)
        ids = self.core.verts[ent.dim][ent.idx, : self.core.nverts[ent.dim][ent.idx]]
        return self._coords[ids].mean(axis=0)

    def coords_view(self) -> np.ndarray:
        """Read-only view of the raw coordinate array (rows = vertex ids)."""
        view = self._coords[: self.core.top[0]]
        view.flags.writeable = False
        return view

    # -- classification ------------------------------------------------------

    def classification(self, ent: Ent) -> Optional[ModelEntity]:
        """Geometric classification of ``ent`` (None when unset)."""
        column = self.core.gclass[ent.dim]
        code = column[ent.idx] if 0 <= ent.idx < len(column) else -1
        return self._gents[code] if code >= 0 else None

    def set_classification(self, ent: Ent, gent: ModelEntity) -> None:
        if gent.dim < ent.dim:
            raise ValueError(
                f"{ent} cannot be classified on lower-dimension {gent}"
            )
        self.core.check(ent.dim, ent.idx)
        self.core.gclass[ent.dim][ent.idx] = self._code(gent)

    def _code(self, gent: ModelEntity) -> int:
        code = self._gcode.get(gent)
        if code is None:
            code = self._gcode[gent] = len(self._gents)
            self._gents.append(gent)
        return code

    def class_codes(self, pairs: np.ndarray) -> np.ndarray:
        """This mesh's ``core.gclass`` codes of ``(dim, tag)`` rows.

        Codes are interned on first use; a row with ``dim == -1`` maps to
        -1 (unset).
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if not len(pairs):
            return np.empty(0, dtype=np.int16)
        # Distinct rows in (dim, tag) order: one key per row, one unique.
        low = int(pairs[:, 1].min())
        span = int(pairs[:, 1].max()) - low + 1
        distinct, inverse = np.unique(
            (pairs[:, 0] + 1) * span + pairs[:, 1] - low, return_inverse=True
        )
        dims, tags = np.divmod(distinct, span)
        table = np.asarray(
            [
                self._code(ModelEntity(d - 1, t + low)) if d >= 1 else -1
                for d, t in zip(dims.tolist(), tags.tolist())
            ],
            dtype=np.int16,
        )
        return table[inverse.reshape(-1)]

    def class_pairs(self) -> np.ndarray:
        """The code table as ``(ncodes, 2)`` ``(dim, tag)`` rows."""
        return np.asarray(
            [(g.dim, g.tag) for g in self._gents], dtype=np.int64
        ).reshape(-1, 2)

    def copy_classification(
        self, src: Mesh, dim: int, src_ids: np.ndarray, ids: np.ndarray
    ) -> None:
        """Give entities ``ids`` of dim ``dim`` the classification that
        ``src``'s ``src_ids`` have (one column gather and scatter)."""
        lut = np.append(self.class_codes(src.class_pairs()), -1)
        self.core.gclass[dim][ids] = lut[src.core.gclass[dim][src_ids]]

    def classify_against(self, model: Optional[Model] = None, tol: float = 1e-9) -> None:
        """(Re)classify every entity against a geometric model.

        Vertices classify by point location; every other classification is
        reset and re-derived by :meth:`classify_closure`.
        """
        model = model if model is not None else self.model
        if model is None:
            raise ValueError("no geometric model to classify against")
        self.model = model
        ids = self.entity_ids(0)
        gents = [classify_point(model, x, tol) for x in self._coords[ids]]
        if None in gents:
            vert = Ent(0, int(ids[gents.index(None)]))
            raise ValueError(
                f"vertex {vert} at {self.coords(vert)} lies outside the model"
            )
        for column in self.core.gclass:
            column[:] = -1
        self.core.gclass[0][ids] = [self._code(g) for g in gents]
        for dim in range(self.dim(), 0, -1):
            self.classify_closure(dim, self.entity_ids(dim))

    def classify_closure(self, dim: int, ids: np.ndarray) -> None:
        """Classify the unset entities of the closures of ``ids`` (dim ``dim``).

        Every unclassified entity of dimension >= 1 among ``ids`` and
        their bounding entities takes the closure rule over its vertices'
        classifications (:meth:`Model.cover`), run once per distinct
        sorted row of vertex codes.  Entities with an unclassified vertex
        stay unset; without a model this is a no-op.
        """
        from .build import _row_codes

        model = self.model
        if model is None:
            return
        core = self.core
        vcode = core.gclass[0]
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        for d in range(dim, 0, -1):
            todo = ids[core.gclass[d][ids] < 0]
            if len(todo):
                nverts = core.nverts[d][todo]
                codes = vcode[core.verts[d][todo, : int(nverts.max())]]
                # Pad short rows with their first code: the rule sees sets.
                pad = np.arange(codes.shape[1]) >= nverts[:, None]
                codes = np.where(pad, codes[:, :1], codes)
                known = (codes >= 0).all(axis=1)
                # Row codes order as the rows do, so class codes are
                # interned in the rows' lexicographic order.
                rows = np.sort(codes[known], axis=1)
                _codes, first, inverse = np.unique(
                    _row_codes(rows), return_index=True, return_inverse=True
                )
                rows = rows[first]
                gents = self._gents
                covers = [
                    model.cover(tuple(sorted({gents[c] for c in row})))
                    for row in rows.tolist()
                ]
                low = next((g for g in covers if g.dim < d), None)
                if low is not None:
                    raise ValueError(
                        f"a dim-{d} entity cannot be classified on "
                        f"lower-dimension {low}"
                    )
                core.gclass[d][todo[known]] = np.asarray(
                    [self._code(g) for g in covers], dtype=np.int16
                )[inverse.reshape(-1)]
            if d > 1:
                ids = np.unique(core.gather_down(d, ids))

    # -- misc -----------------------------------------------------------------

    def tag(self, name: str):
        """Get or create the tag ``name`` (shortcut to the tag manager)."""
        return self.tags.create(name)

    def entity_counts(self) -> Tuple[int, int, int, int]:
        """(vertices, edges, faces, regions) — the paper's balance metrics."""
        return (self.count(0), self.count(1), self.count(2), self.count(3))

    def __repr__(self) -> str:
        v, e, f, r = self.entity_counts()
        return f"Mesh(verts={v}, edges={e}, faces={f}, regions={r})"

    def _vert_id(self, v: Any) -> int:
        if isinstance(v, Ent):
            if v.dim != 0:
                raise ValueError(f"expected a vertex handle, got {v}")
            if not self.core.is_alive(0, v.idx):
                raise KeyError(f"vertex {v.idx} does not exist")
            return v.idx
        raise TypeError(f"expected an Ent vertex handle, got {type(v).__name__}")

