"""Field component: tensor quantities over mesh entities, size fields,
shape functions, and mesh-to-mesh transfer.

Reproduces the "Field" box of PUMI's software structure (Fig. 1).  The
owner-to-copy synchronization of distributed fields lives in
:mod:`repro.partition.fieldsync` because it needs the partition model.
"""

from .dof import DofNumbering, dof_imbalance, dof_loads
from .fem import PoissonProblem, PoissonStats, solution_error
from .field import Field
from .metric import (
    AnalyticMetric,
    MetricField,
    UniformMetric,
    boundary_layer_metric,
    mean_metric_edge_length,
)
from .shape import (
    BatchLocator,
    ElementLocator,
    barycentric,
    barycentric_tet,
    barycentric_tri,
    contains_point,
    interpolate,
)
from .sizefield import (
    AnalyticSize,
    MinSize,
    ShockPlaneSize,
    SizeField,
    SphereSize,
    UniformSize,
    current_vertex_sizes,
    edge_size_ratio,
)
from .transfer import (
    transfer_error,
    transfer_vertex_field,
    transfer_vertex_field_loop,
)

__all__ = [
    "AnalyticMetric",
    "AnalyticSize",
    "BatchLocator",
    "DofNumbering",
    "ElementLocator",
    "Field",
    "MetricField",
    "MinSize",
    "PoissonProblem",
    "PoissonStats",
    "ShockPlaneSize",
    "SizeField",
    "SphereSize",
    "UniformSize",
    "UniformMetric",
    "barycentric",
    "boundary_layer_metric",
    "barycentric_tet",
    "barycentric_tri",
    "contains_point",
    "current_vertex_sizes",
    "dof_imbalance",
    "dof_loads",
    "edge_size_ratio",
    "interpolate",
    "mean_metric_edge_length",
    "solution_error",
    "transfer_error",
    "transfer_vertex_field",
    "transfer_vertex_field_loop",
]
