"""A distributed P1 finite-element Poisson solver.

The purpose of the whole infrastructure — "the parallel unstructured mesh
data structures and services needed by the developers of PDE solution
procedures" (paper, Section I) — is exercised end-to-end here: linear
Lagrange assembly over each part's own elements, owner-summed shared dofs,
synchronized copies, and a conjugate-gradient solve whose every global
reduction counts owned entities exactly once.

Solves  -Δu = f  on the meshed domain with Dirichlet data ``g`` on the
geometric boundary (vertices classified on model entities of dimension
below the mesh's).  Supports 2D triangle and 3D tetrahedron meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..mesh.entity import Ent
from ..mesh.quality import measure
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField, accumulate, synchronize

Coefficient = Callable[[np.ndarray], float]


def _p1_gradients_tri(points: List[np.ndarray]) -> Tuple[np.ndarray, float]:
    """Gradients of the three barycentric functions and the signed area."""
    a, b, c = (p[:2] for p in points)
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    grads = np.array(
        [
            [b[1] - c[1], c[0] - b[0]],
            [c[1] - a[1], a[0] - c[0]],
            [a[1] - b[1], b[0] - a[0]],
        ]
    ) / area2
    return grads, abs(area2) / 2.0


def _p1_gradients_tet(points: List[np.ndarray]) -> Tuple[np.ndarray, float]:
    """Gradients of the four barycentric functions and the volume."""
    a = points[0]
    mat = np.stack([points[1] - a, points[2] - a, points[3] - a])
    volume = float(np.linalg.det(mat)) / 6.0
    inv = np.linalg.inv(mat)
    grads_bcd = inv.T  # rows: gradients of λ1, λ2, λ3
    grad_a = -grads_bcd.sum(axis=0)
    return np.vstack([grad_a, grads_bcd]), abs(volume)


@dataclass
class PoissonStats:
    iterations: int
    residual: float
    converged: bool


class PoissonProblem:
    """-Δu = f with Dirichlet boundary data, assembled per part."""

    def __init__(
        self,
        dmesh: DistributedMesh,
        f: Optional[Coefficient] = None,
        dirichlet: Optional[Coefficient] = None,
    ) -> None:
        self.dmesh = dmesh
        self.f = f if f is not None else (lambda x: 0.0)
        self.g = dirichlet if dirichlet is not None else (lambda x: 0.0)
        self.dim = dmesh.element_dim()
        if self.dim not in (2, 3):
            raise ValueError("Poisson solver supports 2D/3D simplex meshes")
        #: Per-part sparse stiffness rows: pid -> {vi: {vj: K}}.
        self._rows: Dict[int, Dict[Ent, Dict[Ent, float]]] = {}
        #: Per-part load vector contributions.
        self._load: Dict[int, Dict[Ent, float]] = {}
        #: Per-part constrained (Dirichlet) vertices.
        self._fixed: Dict[int, Dict[Ent, float]] = {}
        self._assemble()

    # -- assembly -----------------------------------------------------------

    def _assemble(self) -> None:
        for part in self.dmesh:
            mesh = part.mesh
            rows: Dict[Ent, Dict[Ent, float]] = {}
            load: Dict[Ent, float] = {}
            for element in mesh.entities(self.dim):
                if part.is_ghost(element):
                    continue
                verts = mesh.verts_of(element)
                points = [mesh.coords(v) for v in verts]
                if self.dim == 2:
                    grads, size = _p1_gradients_tri(points)
                else:
                    grads, size = _p1_gradients_tet(points)
                local = size * (grads @ grads.T)
                centroid = np.mean(points, axis=0)
                f_value = float(self.f(centroid)) * size / len(verts)
                for i, vi in enumerate(verts):
                    row = rows.setdefault(vi, {})
                    for j, vj in enumerate(verts):
                        row[vj] = row.get(vj, 0.0) + float(local[i, j])
                    load[vi] = load.get(vi, 0.0) + f_value
            fixed: Dict[Ent, float] = {}
            for v in mesh.entities(0):
                gent = mesh.classification(v)
                if gent is not None and gent.dim < self.dim:
                    fixed[v] = float(self.g(mesh.coords(v)))
            self._rows[part.pid] = rows
            self._load[part.pid] = load
            self._fixed[part.pid] = fixed

    # -- distributed vector algebra --------------------------------------------

    def _new_field(self, name: str) -> DistributedField:
        field = DistributedField(self.dmesh, name)
        field.zero_all()
        return field

    def matvec(self, x: DistributedField, out_name: str) -> DistributedField:
        """y = A x on the free dofs (Dirichlet rows/columns eliminated).

        The Dirichlet data enters the system through the lifted right-hand
        side (:meth:`rhs`), so the operator here is the symmetric
        interior-interior block — fixed rows pass ``x`` through unchanged
        and fixed columns contribute nothing.
        """
        y = self._new_field(out_name)
        for part in self.dmesh:
            xs = x.on(part.pid)
            ys = y.on(part.pid)
            fixed = self._fixed[part.pid]
            for vi, row in self._rows[part.pid].items():
                if vi in fixed:
                    continue
                total = 0.0
                for vj, k in row.items():
                    if vj in fixed:
                        continue
                    total += k * xs.get_scalar(vj)
                ys.set(vi, ys.get_scalar(vi) + total)
        accumulate(y)
        # Identity rows: owners stamp x's value, then copies follow.
        for part in self.dmesh:
            xs = x.on(part.pid)
            ys = y.on(part.pid)
            for vi in self._fixed[part.pid]:
                ys.set(vi, xs.get_scalar(vi))
        synchronize(y)
        return y

    def dot(self, a: DistributedField, b: DistributedField) -> float:
        """Global inner product counting every owned vertex exactly once."""
        total = 0.0
        for part in self.dmesh:
            fa = a.on(part.pid)
            fb = b.on(part.pid)
            for idx in part.owned_ids(0).tolist():
                v = Ent(0, idx)
                total += fa.get_scalar(v) * fb.get_scalar(v)
        return total

    def axpy(self, alpha: float, x: DistributedField, y: DistributedField) -> None:
        """y += alpha * x on every part (copies stay consistent)."""
        for part in self.dmesh:
            fx = x.on(part.pid)
            fy = y.on(part.pid)
            for v in part.mesh.entities(0):
                fy.set(v, fy.get_scalar(v) + alpha * fx.get_scalar(v))

    def rhs(self) -> DistributedField:
        """Assembled load vector with Dirichlet lifting applied."""
        b = self._new_field("rhs")
        for part in self.dmesh:
            fb = b.on(part.pid)
            fixed = self._fixed[part.pid]
            load = self._load[part.pid]
            for vi, row in self._rows[part.pid].items():
                if vi in fixed:
                    continue
                value = load.get(vi, 0.0)
                for vj, k in row.items():
                    if vj in fixed:
                        value -= k * fixed[vj]
                fb.set(vi, fb.get_scalar(vi) + value)
        accumulate(b)
        for part in self.dmesh:
            fb = b.on(part.pid)
            for vi, g in self._fixed[part.pid].items():
                fb.set(vi, g)
        synchronize(b)
        return b

    # -- solver ----------------------------------------------------------------

    def solve(
        self, tol: float = 1e-10, max_iterations: int = 500
    ) -> Tuple[DistributedField, PoissonStats]:
        """Conjugate gradients; returns (solution field, stats)."""
        u = self._new_field("u")
        for part in self.dmesh:
            fu = u.on(part.pid)
            for vi, g in self._fixed[part.pid].items():
                fu.set(vi, g)
        synchronize(u)

        b = self.rhs()
        au = self.matvec(u, "au")
        r = self._new_field("r")
        self.axpy(1.0, b, r)
        self.axpy(-1.0, au, r)
        # Dirichlet rows are exact already: zero their residual.
        for part in self.dmesh:
            fr = r.on(part.pid)
            for vi in self._fixed[part.pid]:
                fr.set(vi, 0.0)

        p = self._new_field("p")
        self.axpy(1.0, r, p)
        rr = self.dot(r, r)
        b_norm = max(np.sqrt(self.dot(b, b)), 1e-300)

        iterations = 0
        for iterations in range(1, max_iterations + 1):
            if np.sqrt(rr) / b_norm <= tol:
                break
            ap = self.matvec(p, "ap")
            for part in self.dmesh:
                fap = ap.on(part.pid)
                for vi in self._fixed[part.pid]:
                    fap.set(vi, 0.0)
            pap = self.dot(p, ap)
            if pap <= 0:
                break
            alpha = rr / pap
            self.axpy(alpha, p, u)
            self.axpy(-alpha, ap, r)
            rr_new = self.dot(r, r)
            beta = rr_new / rr
            for part in self.dmesh:
                fp = p.on(part.pid)
                fr = r.on(part.pid)
                for v in part.mesh.entities(0):
                    fp.set(v, fr.get_scalar(v) + beta * fp.get_scalar(v))
            rr = rr_new

        residual = float(np.sqrt(rr) / b_norm)
        return u, PoissonStats(
            iterations=iterations,
            residual=residual,
            converged=residual <= tol,
        )


def solution_error(
    dmesh: DistributedMesh,
    u: DistributedField,
    exact: Coefficient,
) -> float:
    """Max nodal error of a solution field against an exact function."""
    worst = 0.0
    for part in dmesh:
        field = u.on(part.pid)
        for v in part.mesh.entities(0):
            diff = abs(field.get_scalar(v) - float(exact(part.mesh.coords(v))))
            worst = max(worst, diff)
    return worst
