"""Tag component: attach arbitrary user data to arbitrary mesh entities.

One of the three common utilities the paper requires of both the geometric
model and the mesh: "(iii) Tag: component for attaching arbitrary user data
to arbitrary data or set with common tagging requirements" (Section II,
citing the ITAPS/MOAB interfaces).  Tags are named, sparse maps from entity
handle to any Python value; the owning mesh drops a destroyed entity's data
from every tag so no stale values survive mesh modification.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from .entity import Ent


class Tag:
    """One named tag: a sparse entity → value map."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._data: Dict[Ent, Any] = {}

    def set(self, ent: Ent, value: Any) -> None:
        self._data[ent] = value

    def get(self, ent: Ent, default: Any = None) -> Any:
        return self._data.get(ent, default)

    def __getitem__(self, ent: Ent) -> Any:
        try:
            return self._data[ent]
        except KeyError:
            raise KeyError(f"tag {self.name!r} has no value on {ent}") from None

    def __setitem__(self, ent: Ent, value: Any) -> None:
        self._data[ent] = value

    def has(self, ent: Ent) -> bool:
        return ent in self._data

    def __contains__(self, ent: Ent) -> bool:
        return ent in self._data

    def remove(self, ent: Ent) -> None:
        self._data.pop(ent, None)

    def clear(self) -> None:
        self._data.clear()

    def items(self) -> Iterator[Tuple[Ent, Any]]:
        return iter(sorted(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Tag({self.name!r}, {len(self._data)} values)"


class TagManager:
    """Registry of all tags on one mesh."""

    def __init__(self) -> None:
        self._tags: Dict[str, Tag] = {}

    def create(self, name: str) -> Tag:
        """Get or create the tag named ``name``."""
        tag = self._tags.get(name)
        if tag is None:
            tag = self._tags[name] = Tag(name)
        return tag

    def find(self, name: str) -> Optional[Tag]:
        return self._tags.get(name)

    def delete(self, name: str) -> None:
        self._tags.pop(name, None)

    def names(self) -> Iterator[str]:
        return iter(sorted(self._tags))

    def drop_entity(self, ent: Ent) -> None:
        """Remove ``ent``'s value from every tag (called on entity destroy)."""
        self.drop_entities(ent.dim, (ent.idx,))

    def drop_entities(self, dim: int, ids: Iterable[int]) -> None:
        """Batch :meth:`drop_entity` for handles ``ids`` of one dimension."""
        for tag in self._tags.values():
            if len(tag):
                for idx in ids:
                    tag.remove(Ent(dim, idx))

    def __contains__(self, name: str) -> bool:
        return name in self._tags

    def __len__(self) -> int:
        return len(self._tags)
