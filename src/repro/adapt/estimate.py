"""Post-adaptation entity count estimation.

Predictive load balancing needs the estimated target mesh resolution turned
into expected element counts before the adaptation runs (paper, Section
III-B).  These helpers aggregate the per-element predictions of
:mod:`repro.core.predictive` into totals and per-label (per-part) forecasts
that the benchmarks compare against the realized post-adaptation counts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..core.predictive import predicted_weights
from ..field.sizefield import SizeField
from ..mesh.entity import Ent
from ..mesh.mesh import Mesh


def estimate_element_count(mesh: Mesh, size: SizeField) -> float:
    """Expected number of elements after adapting ``mesh`` to ``size``."""
    return float(predicted_weights(mesh, size).sum())


def estimate_counts_by_label(
    mesh: Mesh, size: SizeField, tag_name: str
) -> Dict[Any, float]:
    """Expected post-adaptation element count per ancestry label."""
    tag = mesh.tags.find(tag_name)
    if tag is None:
        raise KeyError(f"no ancestry tag {tag_name!r}")
    dim = mesh.dim()
    estimates: Dict[Any, float] = {}
    weights = predicted_weights(mesh, size)
    for idx, weight in zip(mesh.entity_ids(dim).tolist(), weights.tolist()):
        label = tag.get(Ent(dim, idx))
        estimates[label] = estimates.get(label, 0.0) + weight
    return estimates


def estimation_error(
    estimated: Dict[Any, float], realized: Dict[Any, int]
) -> float:
    """Relative L1 error of per-label estimates against realized counts."""
    labels = set(estimated) | set(realized)
    total_real = sum(realized.values())
    if total_real == 0:
        return 0.0
    err = sum(
        abs(estimated.get(k, 0.0) - realized.get(k, 0)) for k in labels
    )
    return err / total_real
