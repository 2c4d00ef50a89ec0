"""The four workloads: seeded inputs, stage sequences, output checks.

Every call into the program goes through :meth:`Pass.stage` (timed, one
attempted operation) and every output check through :meth:`Pass.check`
(untimed, one attempted operation), so a pass's wall time is the sum of its
stage spans and ``failed / attempted`` covers both.  Only public functions
of ``repro`` are used; the program sees nothing of ``--seed`` but the
generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adapt import adapt
from repro.core import ParMA, heavy_part_splitting, imbalances
from repro.field import Field, transfer_vertex_field
from repro.mesh import verify as verify_mesh
from repro.obs import Tracer
from repro.parallel import PerfCounters
from repro.partition import (
    DistributedField,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    refine_distributed,
    synchronize,
)
from repro.partitioners import element_centroids, partition
from repro.store import SnapshotStore, field_checksum, owned_gid_set
from repro.workloads import aaa_mesh, shock_size, wing_mesh

from spans import STAGE, SpanRecorder

#: Balance tolerance handed to every balancing stage, and the slack the
#: output check allows on top of it.
TOL = 0.05
TOL_SLACK = 0.03
#: ``--seed`` feeds the mesh jitter and the field values, not the hypergraph
#: partitioner or the spike geometry: those change how many ghosts are built
#: and how many diffusion rounds ParMA runs, which moves a pass by 4-20 % from
#: seed to seed — spread no later gain could be told from.  So the
#: partitioner seed and the geometry the spiked partition is cut on are fixed.
FIXED_SEED = 0

_MESSAGE_COUNTERS = (
    "net.messages.self", "net.messages.on_node", "net.messages.off_node",
)


class CheckFailed(Exception):
    """An output check found a wrong result."""


class StageFailed(Exception):
    """A stage raised; the rest of the pass cannot run."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Pass:
    """One run of a workload's stage sequence.

    ``tracer`` is the program's public ``Tracer`` in a traced pass (the
    workload hands it to ``distribute``/``SnapshotStore``) and ``None``
    otherwise; stage spans are recorded either way, from out here.
    """

    def __init__(
        self, workload: str, tmp: str, tracer: Optional[Tracer] = None
    ) -> None:
        self.rec = SpanRecorder(workload)
        self.tmp = tmp
        self.tracer = tracer
        self.attempted = 0
        self.failures: List[str] = []
        self.aborted = False
        #: Seconds spent in ``verify()`` checks (outside the timed stages).
        self.verify_s = 0.0
        #: Counts the stages' stats dataclasses reported.
        self.facts: Dict[str, float] = {}
        #: Traced passes: stage name -> supersteps / messages / wire bytes,
        #: read off the tracer's per-superstep comm matrix.
        self.stage_comm: Dict[str, Dict[str, int]] = {}
        self._counters: Optional[PerfCounters] = None
        self._before: Dict[str, int] = {}
        self._after: Dict[str, int] = {}

    # -- operations --------------------------------------------------------

    def stage(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call into the program under a stage span."""
        self.attempted += 1
        tracer = self.tracer
        roots = len(tracer.roots) if tracer else 0
        step = tracer.superstep_count() if tracer else 0
        try:
            with self.rec.span(STAGE + name) as index:
                out = fn(*args, **kwargs)
        except Exception as exc:  # boundary: a failed stage is a counted result
            self.failures.append(f"{name}: {exc!r}")
            self.aborted = True
            raise StageFailed(name) from exc
        if tracer:
            self.rec.adopt(index, tracer.roots[roots:])
            comm = self.stage_comm.setdefault(
                name, {"supersteps": 0, "messages": 0, "wire_bytes": 0}
            )
            for superstep in range(step, tracer.superstep_count()):
                comm["supersteps"] += 1
                for messages, nbytes in tracer.comm_matrix(superstep).values():
                    comm["messages"] += messages
                    comm["wire_bytes"] += nbytes
        return out

    def check(self, name: str, fn: Callable[..., Any], *args: Any) -> None:
        """Run one output check; it passes unless it raises."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # boundary: a failed check is a counted result
            self.failures.append(f"{name}: {exc!r}")

    def check_verify(self, after: str, verify: Callable[..., Any], *args: Any) -> None:
        """A ``verify()`` check, its time kept for ``mesh.verify_s``."""
        t0 = time.perf_counter()
        self.check(f"{after}.verify", verify, *args)
        self.verify_s += time.perf_counter() - t0

    def check_dmesh(self, after: str, dmesh, element_gids: frozenset) -> None:
        """After a mutating stage: ``verify()`` and owned-element-gid
        conservation against the serial mesh."""
        self.check_verify(after, dmesh.verify)
        self.check(
            f"{after}.owned_gids",
            lambda: expect(
                owned_gid_set(dmesh, 3) == element_gids,
                "owned element gids differ from the serial mesh's",
            ),
        )

    def check_balance(self, after: str, dmesh, dims: Sequence[int]) -> None:
        """After a balance stage: targeted imbalance within tolerance."""
        def within() -> None:
            peaks = imbalances(dmesh.entity_counts())
            for dim in dims:
                expect(
                    peaks[dim] <= 1.0 + TOL + TOL_SLACK,
                    f"dim-{dim} imbalance {peaks[dim]:.4f}",
                )
        self.check(f"{after}.balance", within)

    def note_improve(self, stats) -> None:
        self.facts["core.improve_iterations"] = sum(
            d.iterations for d in stats.per_dimension
        )
        self.facts["core.final_imbalance_pct"] = 100.0 * (
            max(d.final_imbalance for d in stats.per_dimension) - 1.0
        )
        self.facts["partition.boundary_copies"] = stats.final_boundary_entities

    # -- counters ----------------------------------------------------------

    def watch(self, counters: PerfCounters) -> PerfCounters:
        """Charge this pass with ``counters``' growth from now on."""
        self._counters = counters
        self._before = counters.counters()
        return counters

    def close(self) -> None:
        """End of the pass: later growth of the counters is not its own."""
        if self._counters is not None:
            self._after = self._counters.counters()

    def counter(self, *names: str) -> int:
        return sum(
            self._after.get(name, 0) - self._before.get(name, 0)
            for name in names
        )

    def messages(self) -> int:
        return self.counter(*_MESSAGE_COUNTERS)

    @property
    def wall_s(self) -> float:
        return sum(span.seconds for span in self.rec.stages())


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------


def _timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _aaa_inputs(params: Dict[str, Any], seed: int) -> SimpleNamespace:
    """AAA surrogate mesh (seeded jitter) plus seeded integer element
    weights — integers so assembled sums are exact in floating point."""
    mesh, generate_s = _timed(aaa_mesh, n=int(params["n"]), seed=seed)
    _, verify_s = _timed(verify_mesh, mesh)
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        params=params,
        seed=seed,
        mesh=mesh,
        element_gids=frozenset(mesh.entity_ids(3).tolist()),
        weights=rng.integers(1, 10, mesh.count(3)).astype(float),
        generate_s=generate_s,
        verify_s=verify_s,
        elements=mesh.count(3),
        parts=int(params["parts"]),
    )


class Assembly:
    """Finite-element-style assembly over a distributed mesh.

    Each real (non-ghost) element adds its weight to its four vertices on
    the part that holds it, so a shared vertex carries a partial sum per
    copy; ``accumulate`` must leave the global sum ``4 * sum(weights)`` on
    every copy and ``synchronize`` must keep it there.  ``assemble``
    restores the partials (one ``Field.set_many`` per part) so every round
    starts from the same state.
    """

    #: (field name, entity dimension, components)
    VERTEX_SCALAR = ("u", 0, 1)
    VERTEX_VECTOR = ("w", 0, 3)
    ELEMENT_SCALAR = ("e", 3, 1)

    def __init__(self, dmesh, weights: np.ndarray, specs) -> None:
        self.dmesh = dmesh
        self.total = float(weights.sum())
        self.fields = [
            DistributedField(dmesh, name, dim, ncomp)
            for name, dim, ncomp in specs
        ]
        #: Per field, per part: the (handles, values) ``assemble`` writes.
        self._partials: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in specs
        ]
        for part in dmesh:
            mesh = part.mesh
            vertex_ids = mesh.entity_ids(0)
            element_ids = mesh.entity_ids(3)
            vertex_sum = np.zeros(int(vertex_ids.max(initial=-1)) + 1)
            element_value = np.zeros(int(element_ids.max(initial=-1)) + 1)
            for element in mesh.entities(3):
                if part.is_ghost(element):
                    continue
                weight = weights[part.gid(element)]
                element_value[element.idx] = weight
                for vertex in mesh.verts_of(element):
                    vertex_sum[vertex.idx] += weight
            for partials, (_name, dim, ncomp) in zip(self._partials, specs):
                if dim == 0:
                    scale = np.arange(1.0, ncomp + 1.0)
                    partials.append(
                        (vertex_ids, vertex_sum[vertex_ids, None] * scale)
                    )
                else:
                    partials.append((element_ids, element_value[element_ids]))

    def assemble(self, index: int) -> None:
        dfield = self.fields[index]
        for part, (ids, values) in zip(self.dmesh, self._partials[index]):
            dfield.on(part.pid).set_many(ids, values)

    def round(self, p: Pass) -> None:
        for index, dfield in enumerate(self.fields):
            p.stage("field.assemble", self.assemble, index)
            p.stage("partition.accumulate", accumulate, dfield)
            p.stage("partition.synchronize", synchronize, dfield)

    def expected_checksum(self, dfield: DistributedField) -> float:
        """``field_checksum`` sums components over owned entities."""
        ncomp = dfield.on(0).ncomp
        per_element = 4 if dfield.entity_dim == 0 else 1
        return per_element * self.total * ncomp * (ncomp + 1) / 2

    def check(self, p: Pass) -> None:
        def checksum(dfield: DistributedField) -> None:
            got, want = field_checksum(self.dmesh, dfield), self.expected_checksum(dfield)
            expect(got == want, f"checksum {got!r} != {want!r}")

        for dfield in self.fields:
            p.check(
                f"fields.{dfield.name}.copies_agree",
                lambda f=dfield: expect(
                    f.max_copy_disagreement() == 0.0, "copies disagree"
                ),
            )
            p.check(f"fields.{dfield.name}.checksum", checksum, dfield)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def run_pipeline(inp: SimpleNamespace, p: Pass) -> None:
    counters = p.watch(PerfCounters())
    assignment = p.stage(
        "partitioners.hypergraph", partition,
        inp.mesh, inp.parts, "hypergraph", eps=TOL, seed=FIXED_SEED,
    )
    dmesh = p.stage(
        "partition.distribute", distribute,
        inp.mesh, assignment, nparts=inp.parts, counters=counters,
        tracer=p.tracer,
    )
    p.facts["partitioners.cut_faces"] = dmesh.shared_entity_count(2) // 2
    p.check_dmesh("distribute", dmesh, inp.element_gids)
    p.check_balance("hypergraph", dmesh, (3,))

    p.note_improve(p.stage("core.improve", ParMA(dmesh).improve, "Vtx > Rgn", TOL))
    p.check_dmesh("improve", dmesh, inp.element_gids)
    p.check_balance("improve", dmesh, (0, 3))

    ghosts = p.stage("partition.ghost", ghost_layer, dmesh, depth=1)
    p.facts["ghosts_created"] = ghosts.ghosts_created
    p.check_dmesh("ghost", dmesh, inp.element_gids)

    assembly = Assembly(dmesh, inp.weights, [Assembly.VERTEX_SCALAR])
    for _ in range(int(inp.params["rounds"])):
        assembly.round(p)
    assembly.check(p)

    p.stage("partition.delete_ghosts", delete_ghosts, dmesh)
    p.check_dmesh("delete_ghosts", dmesh, inp.element_gids)
    p.check(
        "delete_ghosts.none_left",
        lambda: expect(not any(part.ghosts for part in dmesh), "ghosts remain"),
    )

    store = SnapshotStore(p.tmp, counters=counters, tracer=p.tracer)
    info = p.stage("store.save", store.save, dmesh, assembly.fields)
    p.facts["store.bytes_written"] = info.payload_bytes
    load_parts = int(inp.params["load_parts"])
    loaded, fields, _stats = p.stage("store.load", store.load_at, nparts=load_parts)
    p.check_dmesh("load", loaded, inp.element_gids)

    def parity() -> None:
        expect(loaded.nparts == load_parts, f"{loaded.nparts} parts loaded")
        # Edge and face gids are re-derived on load; their counts must hold.
        expect(
            owned_gid_set(loaded, 0) == owned_gid_set(dmesh, 0),
            "owned vertex gids differ from the saved state",
        )
        expect(
            (loaded.owned_counts().sum(axis=0)
             == dmesh.owned_counts().sum(axis=0)).all(),
            "owned entity counts differ from the saved state",
        )
        saved = assembly.fields[0]
        expect(
            field_checksum(loaded, fields[saved.name])
            == field_checksum(dmesh, saved),
            "field checksum differs from the saved state",
        )
    p.check("load.parity", parity)


# ---------------------------------------------------------------------------
# rebalance
# ---------------------------------------------------------------------------


def build_rebalance(params: Dict[str, Any], seed: int) -> SimpleNamespace:
    """A spiked partition: weighted RCB with element weights low in a band
    around an oblique plane (those parts end up with many elements) and
    high near both vessel ends (those end up with few)."""
    inp = _aaa_inputs(params, seed)
    # Element ids do not depend on the jitter, so the assignment cut on the
    # FIXED_SEED geometry applies to every seed's mesh.
    reference = aaa_mesh(n=int(params["n"]), seed=FIXED_SEED)
    _elements, centroids = element_centroids(reference)
    length = float(centroids[:, 0].max())
    along = centroids[:, 0] / length
    band = np.abs((centroids[:, 0] + 0.8 * centroids[:, 1]) / length - 0.5)
    weights = np.ones(len(centroids))
    weights[band < 0.12] = 0.25
    weights[(along < 0.15) | (along > 0.85)] = 3.0
    inp.assignment = partition(reference, inp.parts, "rcb", weights=weights)

    counts = np.bincount(inp.assignment, minlength=inp.parts)
    mean = counts.mean()
    inp.initial_imbalance_pct = 100.0 * (counts.max() / mean - 1.0)
    inp.heavy_parts = int((counts > 1.5 * mean).sum())
    inp.light_parts = int((counts < 0.6 * mean).sum())
    if not (
        inp.initial_imbalance_pct >= 80.0
        and inp.heavy_parts >= 4
        and inp.light_parts >= 4
    ):
        raise ValueError(
            f"partition is not spiked: {inp.initial_imbalance_pct:.0f}% "
            f"imbalance, {inp.heavy_parts} heavy, {inp.light_parts} light"
        )
    return inp


def run_rebalance(inp: SimpleNamespace, p: Pass) -> None:
    counters = p.watch(PerfCounters())
    dmesh = p.stage(
        "partition.distribute", distribute,
        inp.mesh, inp.assignment, nparts=inp.parts, counters=counters,
        tracer=p.tracer,
    )
    p.check_dmesh("distribute", dmesh, inp.element_gids)

    split = p.stage("core.split", heavy_part_splitting, dmesh, TOL)
    p.check_dmesh("split", dmesh, inp.element_gids)
    p.check(
        "split.peak",
        lambda: expect(
            split.final_peak <= split.initial_peak,
            f"peak rose {split.initial_peak:.3f} -> {split.final_peak:.3f}",
        ),
    )

    p.note_improve(p.stage("core.improve", ParMA(dmesh).improve, "Rgn", TOL))
    p.check_dmesh("improve", dmesh, inp.element_gids)
    p.check_balance("improve", dmesh, (3,))


# ---------------------------------------------------------------------------
# halo-exchange
# ---------------------------------------------------------------------------


def build_halo_exchange(params: Dict[str, Any], seed: int) -> SimpleNamespace:
    inp = _aaa_inputs(params, seed)
    # The one partition --seed reaches: RCB weighted by the seeded element
    # weights.  It shifts the cuts a little, so the boundary (and with it the
    # exact counts) differs from seed to seed while the work stays within 1 %.
    assignment = partition(inp.mesh, inp.parts, "rcb", weights=inp.weights)
    inp.dmesh = distribute(
        inp.mesh, assignment, nparts=inp.parts, counters=PerfCounters()
    )
    ghost_layer(inp.dmesh, depth=1)
    inp.assembly = Assembly(
        inp.dmesh, inp.weights,
        [Assembly.VERTEX_SCALAR, Assembly.VERTEX_VECTOR, Assembly.ELEMENT_SCALAR],
    )
    return inp


def run_halo_exchange(inp: SimpleNamespace, p: Pass) -> None:
    p.watch(inp.dmesh.counters)
    inp.dmesh.tracer = p.tracer
    try:
        for _ in range(int(inp.params["rounds"])):
            inp.assembly.round(p)
    finally:
        inp.dmesh.tracer = None
    inp.assembly.check(p)


# ---------------------------------------------------------------------------
# adapt-cycle
# ---------------------------------------------------------------------------


def build_adapt_cycle(params: Dict[str, Any], seed: int) -> SimpleNamespace:
    n = int(params["n"])
    rng = np.random.default_rng(seed)
    mesh, generate_s = _timed(wing_mesh, n)
    _, verify_s = _timed(verify_mesh, mesh)
    coef = rng.uniform(0.5, 2.0, size=3)
    source = Field(mesh, "u", 0, 1)
    source.set_from_coords(lambda xyz: 1.0 + float(coef @ xyz))
    parts = int(params["parts"])
    return SimpleNamespace(
        params=params,
        seed=seed,
        mesh=mesh,
        element_gids=frozenset(mesh.entity_ids(3).tolist()),
        size=shock_size(1.0 / n, refinement=float(params["refinement"])),
        coef=coef,
        source=source,
        assignment=partition(mesh, parts, "rcb"),
        generate_s=generate_s,
        verify_s=verify_s,
        elements=mesh.count(3),
        parts=parts,
    )


def run_adapt_cycle(inp: SimpleNamespace, p: Pass) -> None:
    max_passes = int(inp.params["max_passes"])
    counters = p.watch(PerfCounters())
    dmesh = p.stage(
        "partition.distribute", distribute,
        inp.mesh, inp.assignment, nparts=inp.parts, counters=counters,
        tracer=p.tracer,
    )
    p.check_dmesh("distribute", dmesh, inp.element_gids)

    balancer = ParMA(dmesh)
    p.stage("core.predictive", balancer.predictive_balance, inp.size)
    p.check_dmesh("predictive", dmesh, inp.element_gids)

    refined = p.stage(
        "partition.refine_distributed", refine_distributed,
        dmesh, inp.size, max_passes=max_passes,
    )
    p.facts["refine_distributed.splits"] = refined.splits
    p.check_verify("refine_distributed", dmesh.verify)
    refined_gids = owned_gid_set(dmesh, 3)

    def element_count() -> None:
        held = sum(part.mesh.count(3) for part in dmesh)
        expect(
            held == dmesh.total_owned(3) == len(refined_gids),
            f"{held} elements held, {dmesh.total_owned(3)} owned, "
            f"{len(refined_gids)} distinct gids",
        )
        expect(held > inp.elements, "refinement added no element")
    p.check("refine_distributed.element_count", element_count)

    p.note_improve(p.stage("core.improve", balancer.improve, "Rgn", TOL))
    p.check_dmesh("improve", dmesh, refined_gids)
    p.check_balance("improve", dmesh, (3,))

    # Serial adapt mutates its mesh: regenerate it, outside the timed stages.
    target = wing_mesh(int(inp.params["n"]))
    adapted = p.stage(
        "adapt.adapt", adapt, target, inp.size,
        max_passes=max_passes, do_swap=True,
    )
    p.facts["adapt.splits"] = adapted.splits
    p.facts["adapt.collapses"] = adapted.collapses
    p.check_verify("adapt", verify_mesh, target)
    p.check(
        "adapt.element_count",
        lambda: expect(
            adapted.final_elements == target.count(3) > inp.elements,
            f"{adapted.final_elements} reported, {target.count(3)} present",
        ),
    )

    moved = p.stage(
        "field.transfer", transfer_vertex_field, inp.mesh, inp.source, target
    )

    def linear_exact() -> None:
        # Linear interpolation reproduces a linear field exactly.
        ids = target.entity_ids(0)
        want = 1.0 + target.coords_view()[ids] @ inp.coef
        worst = float(np.abs(moved.get_many(ids)[:, 0] - want).max())
        expect(worst <= 1e-9, f"transfer error {worst:.3e}")
    p.check("transfer.linear_exact", linear_exact)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable[[Dict[str, Any], int], SimpleNamespace]
    run: Callable[[SimpleNamespace, Pass], None]


WORKLOADS: Dict[str, Workload] = {
    "pipeline": Workload(_aaa_inputs, run_pipeline),
    "rebalance": Workload(build_rebalance, run_rebalance),
    "halo-exchange": Workload(build_halo_exchange, run_halo_exchange),
    "adapt-cycle": Workload(build_adapt_cycle, run_adapt_cycle),
}
