"""Set component: group arbitrary mesh entities under a name.

The second common utility of Section II: "(ii) Set: component for grouping
arbitrary data with common set requirements".  Sets may be *ordered* (a list
preserving insertion order, allowing duplicates to be rejected explicitly) or
*unordered* (a mathematical set).  Like tags, set membership of a destroyed
entity is dropped by the owning mesh.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from .entity import Ent


class EntitySet:
    """A named group of entity handles."""

    def __init__(self, name: str, ordered: bool = False) -> None:
        self.name = name
        self.ordered = ordered
        self._list: List[Ent] = []
        self._members: Set[Ent] = set()

    def add(self, ent: Ent) -> None:
        """Insert ``ent``; duplicates are ignored (set semantics)."""
        if ent in self._members:
            return
        self._members.add(ent)
        if self.ordered:
            self._list.append(ent)

    def remove(self, ent: Ent) -> None:
        if ent not in self._members:
            return
        self._members.discard(ent)
        if self.ordered:
            self._list.remove(ent)

    def __contains__(self, ent: Ent) -> bool:
        return ent in self._members

    def __iter__(self) -> Iterator[Ent]:
        """Insertion order when ordered, (dim, id) order otherwise."""
        if self.ordered:
            return iter(list(self._list))
        return iter(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def clear(self) -> None:
        self._members.clear()
        self._list.clear()

    def __repr__(self) -> str:
        kind = "ordered" if self.ordered else "unordered"
        return f"EntitySet({self.name!r}, {kind}, {len(self)} members)"


class SetManager:
    """Registry of all entity sets on one mesh."""

    def __init__(self) -> None:
        self._sets: Dict[str, EntitySet] = {}

    def create(self, name: str, ordered: bool = False) -> EntitySet:
        """Get or create the set ``name``; ``ordered`` applies on creation."""
        eset = self._sets.get(name)
        if eset is None:
            eset = self._sets[name] = EntitySet(name, ordered)
        return eset

    def find(self, name: str) -> Optional[EntitySet]:
        return self._sets.get(name)

    def delete(self, name: str) -> None:
        self._sets.pop(name, None)

    def names(self) -> Iterator[str]:
        return iter(sorted(self._sets))

    def drop_entity(self, ent: Ent) -> None:
        self.drop_entities(ent.dim, (ent.idx,))

    def drop_entities(self, dim: int, ids: Iterable[int]) -> None:
        """Batch :meth:`drop_entity` for handles ``ids`` of one dimension."""
        for eset in self._sets.values():
            if len(eset):
                for idx in ids:
                    eset.remove(Ent(dim, idx))

    def __contains__(self, name: str) -> bool:
        return name in self._sets

    def __len__(self) -> int:
        return len(self._sets)
