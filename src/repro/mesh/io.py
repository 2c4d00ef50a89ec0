"""Mesh output: VTK legacy export.

VTK legacy ASCII is the exchange format for visualizing results (ParaView
renders the figures corresponding to the paper's mesh images).  A mesh is
persisted as a :mod:`repro.store` snapshot of its distribution.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .entity import Ent
from .mesh import Mesh
from .topology import VTK_TYPES


def write_vtk(
    mesh: Mesh,
    path: Union[str, Path],
    cell_data: Optional[Dict[str, Dict[Ent, float]]] = None,
) -> Path:
    """Write the mesh's top-dimension elements as a VTK legacy file.

    ``cell_data`` maps field name → (element → value); missing elements
    default to 0.
    """
    path = Path(path)
    dim = mesh.dim()
    core = mesh.core
    live_verts = core.live_ids(0)
    local_of = np.zeros(max(core.top[0], 1), dtype=np.int64)
    local_of[live_verts] = np.arange(len(live_verts))
    elem_ids = core.live_ids(dim)

    lines = [
        "# vtk DataFile Version 3.0",
        "repro mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(live_verts)} double",
    ]
    for x, y, z in mesh.coords_view()[live_verts].tolist():
        lines.append(f"{x} {y} {z}")

    nverts = core.nverts[dim][elem_ids]
    total_ints = int(len(elem_ids) + nverts.sum(dtype=np.int64))
    mapped = local_of[core.verts[dim][elem_ids]].tolist()
    lines.append(f"CELLS {len(elem_ids)} {total_ints}")
    for n, row in zip(nverts.tolist(), mapped):
        lines.append(f"{n} " + " ".join(str(v) for v in row[:n]))
    lines.append(f"CELL_TYPES {len(elem_ids)}")
    for etype in core.etype[dim][elem_ids].tolist():
        lines.append(str(VTK_TYPES[etype]))

    if cell_data:
        lines.append(f"CELL_DATA {len(elem_ids)}")
        for name, values in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            for idx in elem_ids.tolist():
                lines.append(str(float(values.get(Ent(dim, idx), 0.0))))

    path.write_text("\n".join(lines) + "\n")
    return path
