"""Mesh component: complete unstructured mesh representation and utilities.

Reproduces the "Mesh" box of PUMI's software structure (Fig. 1): entity
stores with O(1) adjacency, geometric classification, the iterator/set/tag
common utilities, generators, quality, verification, and IO.
"""

from .build import from_connectivity
from .entity import Ent, edge, face, region, vert
from .generate import (
    box_hex,
    box_tet,
    delaunay_rect,
    extrude_to_prisms,
    rect_quad,
    rect_tri,
)
from .io import load_native, save_native, write_vtk
from .iterator import boundary_entities, classified_on, count, iterate
from .core import MeshCore, first_occurrence_unique
from .mesh import Mesh
from .quality import (
    mean_ratio_tet,
    mean_ratio_tri,
    measure,
    quality,
    quality_histogram,
    tet_volume,
    tri_area,
    worst_quality,
)
from .reorder import bfs_element_order, compact, dead_fraction
from .sets import EntitySet, SetManager
from .stats import MeshStats, edge_length_histogram, memory_estimate, mesh_stats
from .tag import Tag, TagManager
from .topology import (
    EDGE,
    HEX,
    PRISM,
    PYRAMID,
    QUAD,
    TET,
    TRI,
    TYPE_NAMES,
    VERTEX,
    TypeInfo,
    face_type_for_verts,
    type_info,
    types_of_dim,
)
from .verify import MeshInvalidError, verify

__all__ = [
    "EDGE",
    "Ent",
    "EntitySet",
    "MeshCore",
    "HEX",
    "Mesh",
    "MeshInvalidError",
    "MeshStats",
    "PRISM",
    "PYRAMID",
    "QUAD",
    "SetManager",
    "TET",
    "TRI",
    "TYPE_NAMES",
    "Tag",
    "TagManager",
    "TypeInfo",
    "VERTEX",
    "bfs_element_order",
    "boundary_entities",
    "box_hex",
    "box_tet",
    "classified_on",
    "compact",
    "dead_fraction",
    "count",
    "delaunay_rect",
    "edge_length_histogram",
    "edge",
    "extrude_to_prisms",
    "face",
    "face_type_for_verts",
    "first_occurrence_unique",
    "from_connectivity",
    "iterate",
    "load_native",
    "mean_ratio_tet",
    "mean_ratio_tri",
    "measure",
    "memory_estimate",
    "mesh_stats",
    "quality",
    "quality_histogram",
    "rect_quad",
    "rect_tri",
    "region",
    "save_native",
    "tet_volume",
    "tri_area",
    "type_info",
    "types_of_dim",
    "vert",
    "verify",
    "worst_quality",
    "write_vtk",
]
