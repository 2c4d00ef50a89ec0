"""Mesh input/output: VTK legacy export and a native snapshot format.

VTK legacy ASCII is the exchange format for visualizing results (ParaView
renders the figures corresponding to the paper's mesh images); the native
format is a compact ``.npz`` snapshot preserving coordinates, connectivity,
classification and element-dimension tags, sufficient to round-trip the
meshes used by benchmarks without regenerating them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..gmodel.model import Model
from .build import from_connectivity
from .entity import Ent
from .mesh import Mesh
from .topology import VTK_TYPES, type_info


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


def save_native(mesh: Mesh, path: Union[str, Path]) -> Path:
    """Snapshot the mesh (single element type) to a ``.npz`` file."""
    path = Path(path)
    dim = mesh.dim()
    core = mesh.core
    elem_ids = core.live_ids(dim)
    etypes = np.unique(core.etype[dim][elem_ids])
    if len(etypes) > 1:
        raise ValueError("native format supports single-element-type meshes")
    etype = int(etypes[0]) if len(etypes) else None

    live_verts = core.live_ids(0)
    local_of = np.zeros(max(core.top[0], 1), dtype=np.int64)
    local_of[live_verts] = np.arange(len(live_verts))
    coords = mesh.coords_view()[live_verts]
    if len(elem_ids):
        conn = local_of[core.verts_matrix(dim, elem_ids)].astype(np.int64)
    else:
        conn = np.empty((0, 0), dtype=np.int64)
    codes = core.gclass[0][live_verts]
    has = codes >= 0
    vclass = np.column_stack(
        (np.flatnonzero(has), mesh.class_pairs()[codes[has]])
    )
    meta = {"etype": etype, "dim": dim, "has_model": mesh.model is not None}
    np.savez_compressed(
        path,
        coords=coords,
        conn=conn,
        vclass=vclass,
        meta=json.dumps(meta),
    )
    return path


def load_native(path: Union[str, Path], model: Optional[Model] = None) -> Mesh:
    """Rebuild a mesh from :func:`save_native` output.

    Passing the original ``model`` restores full classification: vertices
    from the snapshot, the rest re-derived by the closure rule.  A snapshot
    holding no vertex classification is classified against ``model`` by
    point location.  Without a model the mesh loads unclassified.
    """
    data = np.load(Path(path), allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    vclass = data["vclass"]
    mesh = from_connectivity(
        data["coords"], data["conn"], int(meta["etype"]), model=model,
        classify=model is not None and not len(vclass),
    )
    if model is not None and len(vclass):
        mesh.core.gclass[0][vclass[:, 0]] = mesh.class_codes(vclass[:, 1:])
        dim = mesh.dim()
        mesh.classify_closure(dim, mesh.entity_ids(dim))
    return mesh
