"""Partition component: parts, partition model, distributed-mesh services.

Reproduces the "Partition Model" box of PUMI's software structure (Fig. 1)
and the distributed-mesh operations of Section II: migration, ghosting,
multiple parts per process, and distributed-field synchronization.
"""

from .dadapt import (
    DistributedAdaptStats,
    adapt_distributed,
    coarsen_distributed,
    refine_distributed,
)
from .distribute import distribute
from .dmesh import DistributedMesh
from .fieldsync import DistributedField, accumulate, synchronize
from .ghosting import Overlap, delete_ghosts, ghost_layer
from .halo import HaloPlan
from .links import surface_ids
from .migration import MigrationPlan, migrate, rebuild_links
from .multipart import (
    merge_parts,
    move_elements_to_new_part,
    node_entity_counts,
    parts_per_node,
    spawn_empty_part,
)
from .part import Part
from .pmodel import (
    PartitionEntity,
    PartitionModel,
    build_partition_model,
    default_owner_rule,
)

__all__ = [
    "DistributedAdaptStats",
    "DistributedField",
    "DistributedMesh",
    "HaloPlan",
    "MigrationPlan",
    "Overlap",
    "Part",
    "PartitionEntity",
    "PartitionModel",
    "accumulate",
    "build_partition_model",
    "adapt_distributed",
    "coarsen_distributed",
    "default_owner_rule",
    "delete_ghosts",
    "distribute",
    "ghost_layer",
    "merge_parts",
    "migrate",
    "move_elements_to_new_part",
    "node_entity_counts",
    "parts_per_node",
    "rebuild_links",
    "refine_distributed",
    "spawn_empty_part",
    "surface_ids",
    "synchronize",
]
