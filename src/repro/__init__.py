"""repro — a Python reproduction of PUMI + ParMA.

Reimplements the systems of Seol, Smith, Ibanez & Shephard, *A Parallel
Unstructured Mesh Infrastructure* (SC 2012): PUMI's complete unstructured
mesh representation, geometric model interface, fields, partition model and
distributed-mesh services, plus ParMA's mesh-adjacency-driven dynamic load
balancing — all on a simulated message-passing substrate suitable for a
single machine.

Quick start::

    from repro import mesh, partitioners, partition, core

    m = mesh.box_tet(10)                                  # generate
    assignment = partitioners.partition(m, 16)            # PHG baseline
    dm = partition.distribute(m, assignment)              # distributed mesh
    core.ParMA(dm).improve("Vtx > Rgn", tol=0.05)         # ParMA balances

Subpackages
-----------
``repro.parallel``
    Simulated MPI (thread SPMD + collectives), BSP network, machine
    topology, routing, performance counters.
``repro.gmodel``
    Non-manifold b-rep geometric model, shapes, classification, snapping.
``repro.mesh``
    The complete mesh representation, generators, quality, verification, IO.
``repro.field``
    Fields, shape functions, size fields, mesh-to-mesh transfer.
``repro.partition``
    Parts, partition model, migration, ghosting, distributed fields.
``repro.partitioners``
    Baseline partitioners (RCB, RIB, multilevel graph, PHG-style hypergraph,
    local partitioning).
``repro.adapt``
    Size-field-driven refinement/coarsening/swapping.
``repro.core``
    ParMA: multi-criteria partition improvement and heavy part splitting.
``repro.workloads``
    Synthetic stand-ins for the paper's evaluation meshes.
``repro.analysis``
    SPMD correctness tooling: the ``python -m repro analyze`` dataflow
    analyzer and the runtime sanitizers (alias freeze proxies,
    collective-order checking, deadlock detection) used by
    ``spmd(..., sanitize=True)``.
``repro.obs``
    Observability: superstep tracing (Chrome trace export), per-superstep
    part-to-part communication matrices, typed operation statistics, and
    the ``python -m repro trace`` workload runner.
``repro.resilience``
    Deterministic fault injection (seeded ``FaultPlan`` executed against
    the network/executor hook points), rotated hash-validated checkpoints
    (``CheckpointManager``), and the ``resilient_spmd`` checkpoint/restart
    recovery driver behind ``python -m repro chaos``.
``repro.store``
    Parallel incremental snapshot I/O, the one on-disk format: chunked,
    part-count-agnostic ``repro.store/2`` epochs with SHA-256 chunk
    manifests and an owner column that keeps the saved partition,
    differential epochs with deterministic compaction, star-forest
    repartition-on-load (``SnapshotStore``), and the content-addressed
    ``SnapshotCache`` the serving tier uses to warm-start jobs from a
    shared base mesh (``python -m repro snapshot``).
``repro.svc``
    The multi-tenant mesh-job serving tier: bounded admission with
    backpressure and fair-share priority aging, locality-aware gang
    scheduling of core-sets over the simulated machine, deterministic
    rounds of concurrently executing world-isolated SPMD jobs with
    deadlines and fault-classified retries, and the byte-deterministic
    ``repro.svc/1`` service report behind ``python -m repro serve``.
``repro.couple``
    The co-simulation coupling hub: typed inter-job channels carrying
    binary ``repro.couple/1`` field frames with transformer stages,
    service job graphs (dependencies + co-scheduled channel peers) run
    by ``MeshJobService.serve_graph``, the distributed cross-mesh
    transfer ``transfer_between`` (bit-identical to the serial path),
    and the solver-in-the-loop adaptive driver ``run_adapt_loop``
    behind ``python -m repro couple``.

The one-true entry points are re-exported at the top level, so a driver
script needs only ``import repro``:

    ``spmd``, ``DistributedMesh``, ``distribute``, ``migrate``,
    ``ghost_layer``, ``delete_ghosts``, ``synchronize``, ``accumulate``,
    ``DistributedField``, ``ParMA``, ``Tracer``, ``StarForest``, ``Overlap``

plus the typed statistics each distributed service returns
(``MigrateStats``, ``GhostStats``, ``GhostDeleteStats``, ``SyncStats``,
``AccumulateStats``, ``SFStats``) and the resilience surface (``FaultPlan``,
``FaultInjector``, ``InjectedRankFailure``, ``CheckpointManager``,
``CorruptCheckpointError``, ``resilient_spmd``, ``RankFailure``).
"""

from . import (
    adapt,
    core,
    couple,
    field,
    gmodel,
    mesh,
    obs,
    parallel,
    partition,
    partitioners,
    resilience,
    store,
    svc,
    workloads,
)
from .core import ParMA
from .couple import (
    ChannelSpec,
    CoupleError,
    JobGraph,
    run_adapt_loop,
    transfer_between,
)
from .obs import (
    AccumulateStats,
    GhostDeleteStats,
    GhostStats,
    MigrateStats,
    SFStats,
    SyncStats,
    Tracer,
)
from .parallel import (
    CodecError,
    RankFailure,
    StarForest,
    TopologyError,
    spmd,
)
from .partition import (
    DistributedField,
    DistributedMesh,
    Overlap,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    synchronize,
)
from .resilience import (
    CheckpointManager,
    CorruptCheckpointError,
    FaultInjector,
    FaultPlan,
    InjectedRankFailure,
    resilient_spmd,
)
from .store import (
    SnapshotCache,
    SnapshotStore,
    StoreStats,
)
from .svc import (
    AdmissionError,
    JobFailure,
    JobResult,
    JobSpec,
    MeshJobService,
    RetryPolicy,
    ServiceReport,
)

__version__ = "1.0.0"

__all__ = [
    "adapt",
    "core",
    "couple",
    "field",
    "gmodel",
    "mesh",
    "obs",
    "parallel",
    "partition",
    "partitioners",
    "resilience",
    "store",
    "svc",
    "workloads",
    "AccumulateStats",
    "AdmissionError",
    "ChannelSpec",
    "CheckpointManager",
    "CodecError",
    "CorruptCheckpointError",
    "CoupleError",
    "DistributedField",
    "DistributedMesh",
    "FaultInjector",
    "FaultPlan",
    "GhostDeleteStats",
    "GhostStats",
    "InjectedRankFailure",
    "JobFailure",
    "JobGraph",
    "JobResult",
    "JobSpec",
    "MeshJobService",
    "MigrateStats",
    "Overlap",
    "ParMA",
    "RankFailure",
    "RetryPolicy",
    "SFStats",
    "ServiceReport",
    "SnapshotCache",
    "SnapshotStore",
    "StarForest",
    "StoreStats",
    "SyncStats",
    "TopologyError",
    "Tracer",
    "accumulate",
    "delete_ghosts",
    "distribute",
    "ghost_layer",
    "migrate",
    "resilient_spmd",
    "run_adapt_loop",
    "spmd",
    "synchronize",
    "transfer_between",
    "__version__",
]
