"""The partition model: topology of the part decomposition.

"For the purpose of representation of a partitioned mesh and efficient
parallel operations, a partition model is developed" (paper, Section II-C):

* a **partition (model) entity** ``P^d_i`` represents a group of mesh
  entities that share the same residence part set; one part of the set is
  designated the owning part;
* **partition classification** is the unique association of mesh entities to
  partition model entities.

The partition model of this reproduction is *derived* from the distributed
mesh's remote-copy links: a partition entity exists for every distinct
residence set, its dimension is ``mesh_dim - (|residence| - 1)`` clamped to
zero (in Fig. 3/4 of the paper: interior entities → partition faces, entities
shared by two parts → partition edges, by three → the partition vertex), and
its owner is the smallest residence part unless a custom rule is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..mesh.entity import Ent
from .dmesh import DistributedMesh

OwnerRule = Callable[[Tuple[int, ...]], int]


def default_owner_rule(residence: Tuple[int, ...]) -> int:
    """The deterministic default: the smallest residence part owns."""
    return min(residence)


@dataclass(frozen=True)
class PartitionEntity:
    """One partition model entity ``P^d_i``."""

    dim: int
    tag: int
    residence: Tuple[int, ...]
    owner: int

    def __repr__(self) -> str:
        return f"P{self.dim}_{self.tag}{list(self.residence)}@{self.owner}"


class PartitionModel:
    """Partition model entities + classification for one distributed mesh.

    Built by :func:`build_partition_model`; valid until the next migration
    (the builders are cheap — rebuild after modifying the partition).
    """

    def __init__(
        self, dmesh: DistributedMesh, owner_rule: OwnerRule = default_owner_rule
    ) -> None:
        self.dmesh = dmesh
        self.owner_rule = owner_rule
        self._by_residence: Dict[Tuple[int, ...], PartitionEntity] = {}
        mesh_dim = dmesh.element_dim()
        next_tag = [0, 0, 0, 0]
        # Interior entities of part p have residence (p,); shared entities'
        # residence sets come from the remote-copy links.
        residences = set()
        for part in dmesh:
            residences.add((part.pid,))
            for d in range(4):
                residences.update(map(part.residence, part.shared_entities(d)))
        for residence in sorted(residences, key=lambda r: (len(r), r)):
            dim = max(mesh_dim - (len(residence) - 1), 0)
            pent = PartitionEntity(
                dim, next_tag[dim], residence, owner_rule(residence)
            )
            next_tag[dim] += 1
            self._by_residence[residence] = pent

    # -- queries ------------------------------------------------------------

    def entities(self, dim: Optional[int] = None) -> List[PartitionEntity]:
        """All partition entities (of one dimension), deterministic order."""
        result = sorted(
            self._by_residence.values(), key=lambda p: (p.dim, p.tag)
        )
        if dim is None:
            return result
        return [p for p in result if p.dim == dim]

    def classification(self, pid: int, ent: Ent) -> PartitionEntity:
        """Partition classification of a mesh entity on part ``pid``."""
        residence = self.dmesh.part(pid).residence(ent)
        try:
            return self._by_residence[residence]
        except KeyError:
            raise KeyError(
                f"no partition entity for residence {residence}; "
                "was the partition modified since the model was built?"
            ) from None

    def owner(self, pid: int, ent: Ent) -> int:
        """Owning part of a mesh entity under this model's owner rule."""
        return self.classification(pid, ent).owner

    def count(self, dim: Optional[int] = None) -> int:
        return len(self.entities(dim))

    def __repr__(self) -> str:
        counts = [self.count(d) for d in range(4)]
        return (
            "PartitionModel(P0={}, P1={}, P2={}, P3={})".format(*counts)
        )


def build_partition_model(
    dmesh: DistributedMesh, owner_rule: OwnerRule = default_owner_rule
) -> PartitionModel:
    """Construct the partition model of the current distribution."""
    return PartitionModel(dmesh, owner_rule)
