"""Non-manifold boundary-representation geometric model.

The geometric model is "the high-level (mesh independent) definition of the
domain, typically a non-manifold boundary representation" (paper, Section II,
citing Weiler's radial-edge structure).  PUMI interacts with it through a
functional interface that answers two kinds of questions:

* topological — the adjacencies of model entities (which model edges bound
  this model face, which model regions are adjacent to this face), and
* geometric — the shape of each entity (point location, projection).

:class:`Model` stores the topology; shapes from
:mod:`repro.gmodel.shapes` are attached per entity and queried through
:meth:`Model.shape`.  Model entities are small immutable handles
``(dim, tag)``, mirroring PUMI's ``gmi_ent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True, order=True)
class ModelEntity:
    """Immutable handle of a geometric model entity.

    ``dim`` is the topological dimension (0 vertex, 1 edge, 2 face,
    3 region); ``tag`` is a model-unique id within that dimension.
    """

    dim: int
    tag: int

    def __post_init__(self) -> None:
        if not 0 <= self.dim <= 3:
            raise ValueError(f"model entity dimension must be 0..3, got {self.dim}")

    def __repr__(self) -> str:  # G0_5 style, matching the paper's M^d_i
        return f"G{self.dim}_{self.tag}"


class Model:
    """Topological b-rep: entities per dimension plus boundary adjacencies.

    Adjacency is stored one level downward (entity → bounding entities of
    dimension d-1) with the upward direction derived and cached; multi-level
    queries walk the one-level relations.  This matches the paper's "complete
    representation" requirement at the model level: any adjacency is
    retrievable in time independent of model size.
    """

    def __init__(self) -> None:
        self._entities: List[Set[ModelEntity]] = [set(), set(), set(), set()]
        self._down: Dict[ModelEntity, List[ModelEntity]] = {}
        self._up: Dict[ModelEntity, List[ModelEntity]] = {}
        self._shapes: Dict[ModelEntity, Any] = {}
        #: :meth:`cover` answers, keyed by sorted distinct classifications.
        self._cover: Dict[Tuple[ModelEntity, ...], ModelEntity] = {}

    # -- construction -----------------------------------------------------

    def add(self, dim: int, tag: int) -> ModelEntity:
        """Create (or return the existing) model entity ``(dim, tag)``."""
        ent = ModelEntity(dim, tag)
        if ent not in self._entities[dim]:
            self._entities[dim].add(ent)
            self._down[ent] = []
            self._up[ent] = []
            self._cover.clear()
        return ent

    def add_adjacency(self, upper: ModelEntity, lower: ModelEntity) -> None:
        """Record that ``lower`` bounds ``upper`` (dims must differ by one)."""
        self._require(upper)
        self._require(lower)
        if upper.dim != lower.dim + 1:
            raise ValueError(
                f"boundary adjacency must step one dimension: "
                f"{upper} cannot be bounded by {lower}"
            )
        if lower not in self._down[upper]:
            self._down[upper].append(lower)
            self._up[lower].append(upper)
            self._cover.clear()

    def set_shape(self, ent: ModelEntity, shape: Any) -> None:
        """Attach a geometric shape evaluator to ``ent``."""
        self._require(ent)
        self._shapes[ent] = shape

    # -- queries ------------------------------------------------------------

    def find(self, dim: int, tag: int) -> Optional[ModelEntity]:
        ent = ModelEntity(dim, tag)
        return ent if ent in self._entities[dim] else None

    def entities(self, dim: int) -> Iterator[ModelEntity]:
        """Iterate entities of one dimension in deterministic (tag) order."""
        return iter(sorted(self._entities[dim]))

    def count(self, dim: int) -> int:
        return len(self._entities[dim])

    def downward(self, ent: ModelEntity) -> List[ModelEntity]:
        """Entities of dimension ``ent.dim - 1`` bounding ``ent``."""
        self._require(ent)
        return list(self._down[ent])

    def upward(self, ent: ModelEntity) -> List[ModelEntity]:
        """Entities of dimension ``ent.dim + 1`` bounded by ``ent``."""
        self._require(ent)
        return list(self._up[ent])

    def adjacent(self, ent: ModelEntity, dim: int) -> List[ModelEntity]:
        """All entities of dimension ``dim`` adjacent to ``ent`` (any gap).

        Walks the one-level boundary relations up or down as needed and
        deduplicates, preserving first-encounter order.
        """
        self._require(ent)
        if dim == ent.dim:
            return [ent]
        step = self._down if dim < ent.dim else self._up
        frontier = [ent]
        while frontier and frontier[0].dim != dim:
            seen: Set[ModelEntity] = set()
            advanced: List[ModelEntity] = []
            for item in frontier:
                for nxt in step[item]:
                    if nxt not in seen:
                        seen.add(nxt)
                        advanced.append(nxt)
            frontier = advanced
        return frontier

    def closure(self, ent: ModelEntity) -> List[ModelEntity]:
        """``ent`` plus every lower-dimension entity on its boundary."""
        result = [ent]
        for dim in range(ent.dim - 1, -1, -1):
            result.extend(self.adjacent(ent, dim))
        return result

    def cover(self, gents: Tuple[ModelEntity, ...]) -> ModelEntity:
        """:func:`~repro.gmodel.classify.classify_from_closure`, memoized.

        ``gents`` is the sorted tuple of a mesh entity's distinct vertex
        classifications.  The rule depends only on that set, and the memo
        holds only the rule's own answers (cleared whenever the topology
        changes), so it is exact by construction.
        """
        found = self._cover.get(gents)
        if found is None:
            from .classify import classify_from_closure

            found = self._cover[gents] = classify_from_closure(self, gents)
        return found

    def shape(self, ent: ModelEntity) -> Optional[Any]:
        return self._shapes.get(ent)

    def dim(self) -> int:
        """Highest dimension with any entity (the model's dimension)."""
        for dim in (3, 2, 1, 0):
            if self._entities[dim]:
                return dim
        return 0

    def _require(self, ent: ModelEntity) -> None:
        if ent not in self._entities[ent.dim]:
            raise KeyError(f"{ent} is not part of this model")

    def check(self) -> None:
        """Validate topological consistency; raises ``AssertionError``.

        Every non-top-level entity must bound something, and every entity of
        positive dimension must have a boundary (closed shells excepted for
        dimension-1 loops is not modelled; generated models always satisfy
        this).
        """
        top = self.dim()
        for dim in range(top + 1):
            for ent in self.entities(dim):
                if dim > 0 and not self._down[ent]:
                    raise AssertionError(f"{ent} has an empty boundary")
                if dim < top and not self._up[ent]:
                    raise AssertionError(f"{ent} bounds nothing")
