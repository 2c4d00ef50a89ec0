"""Command-line interface: ``python -m repro <command>``.

A small operational surface over the library, the kind an open-source
release ships for quick experiments without writing a driver script:

``info``
    Generate (or load) a mesh and print its structural statistics.
``partition``
    Partition a generated mesh with any method and report the balance
    signature (the Table-II columns).
``balance``
    Run the full ParMA pipeline on a generated mesh: baseline partition,
    multi-criteria improvement, before/after report.
``bench``
    Point at the benchmark suite (delegates to pytest).
``analyze``
    Run the SPMD analyzer (:mod:`repro.analysis.engine`) over the package
    source (or explicit paths): CFG + import-aware call-graph rank-taint
    dataflow with the SPMD003..SPMD006 and SPMD101..SPMD105 rules,
    ``--format=text|json|sarif`` output, and a committed-findings
    ``--baseline`` so CI fails only on *new* findings.
``trace``
    Run a workload script under an installed :class:`repro.obs.Tracer` and
    write a Chrome trace (``about:tracing`` / Perfetto loadable) plus a
    metrics JSON with the per-superstep part-to-part communication matrix.
``chaos``
    Run a step-structured workload script under the resilience harness:
    deterministic fault injection from a JSON :class:`repro.resilience
    .FaultPlan`, rotated checkpoints, and checkpoint/restart recovery.
    The script must define ``build() -> DistributedMesh`` and
    ``step(dmesh, i)``; an optional module-level ``NSTEPS`` sets the
    default epoch count.  Writes the deterministic recovery report (and a
    metrics JSON) to ``--out``.
``snapshot``
    Save, parallel-load, or inspect a ``repro.store/2`` snapshot store
    (:mod:`repro.store`): ``save`` partitions a generated mesh and writes
    a chunked epoch (differential when the store has a tip), ``load``
    restores it on the saved partition — or at any ``--parts`` via the
    star-forest redistribution — and prints a deterministic parity
    signature (owned-gid and partition digests + field checksums),
    and ``inspect`` dumps the epoch chain.  It reads no other format.
``serve``
    Run a JSON job list through the multi-tenant mesh-job service
    (:mod:`repro.svc`): bounded admission, locality-aware gang placement
    over the declared machine, concurrent world-isolated execution with
    deadlines and fault-classified retries.  Writes the deterministic
    ``repro.svc/1`` service report plus a metrics JSON to ``--out``.
``submit``
    One-shot convenience over the same service: submit a single job
    described by flags to a fresh service, run it, print the outcome.
``couple``
    Run a coupled job graph (:mod:`repro.couple`) through the service:
    jobs plus dependency edges plus cross-job coupling channels.  Channel
    endpoints are co-scheduled into one round and exchange
    ``repro.couple/1`` field frames; dependents wait for (and are
    cancelled by) their upstreams.  Same outputs as ``serve``.

``balance`` accepts ``--sanitize`` to run the distributed pipeline with the
runtime sanitizers on (alias freeze proxies on the part network).

All meshes are generated on the fly (``--kind box|rect|aaa|wing``) since
the native mesh format is a library-level feature; ``--save`` writes the
result as VTK for visualization.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

import numpy as np


def _build_mesh(args):
    from repro.mesh import box_tet, rect_tri
    from repro.workloads import aaa_mesh, wing_mesh

    if args.kind == "rect":
        return rect_tri(args.n)
    if args.kind == "box":
        return box_tet(args.n)
    if args.kind == "aaa":
        return aaa_mesh(n=max(args.n // 2, 2))
    if args.kind == "wing":
        return wing_mesh(n=args.n)
    raise SystemExit(f"unknown mesh kind {args.kind!r}")


def _maybe_save(mesh, args, cell_data=None):
    if args.save:
        from repro.mesh import write_vtk

        path = write_vtk(mesh, args.save, cell_data)
        print(f"wrote {path}")


def cmd_info(args) -> int:
    from repro.mesh import mesh_stats
    from repro.mesh.verify import verify

    mesh = _build_mesh(args)
    stats = mesh_stats(mesh)
    print(stats.summary())
    verify(mesh)
    print("mesh verified")
    _maybe_save(mesh, args)
    return 0


def cmd_partition(args) -> int:
    from repro.partitioners import (
        dual_graph,
        entity_counts_from_assignment,
        imbalance,
        partition,
    )

    mesh = _build_mesh(args)
    start = time.perf_counter()
    assignment = partition(
        mesh, args.parts, method=args.method, seed=args.seed, eps=args.eps
    )
    elapsed = time.perf_counter() - start
    counts = entity_counts_from_assignment(mesh, assignment, args.parts)
    imb = imbalance(counts) * 100
    cut = dual_graph(mesh).edge_cut(assignment)
    print(
        f"{args.method} to {args.parts} parts in {elapsed:.2f}s: "
        f"edge cut {cut}"
    )
    print(
        f"imbalance%  Vtx {imb[0]:.2f}  Edge {imb[1]:.2f}  "
        f"Face {imb[2]:.2f}  Rgn {imb[3]:.2f}"
    )
    if args.save:
        elements = list(mesh.entities(mesh.dim()))
        cell_data = {
            "part": {e: float(p) for e, p in zip(elements, assignment)}
        }
        _maybe_save(mesh, args, cell_data)
    return 0


def cmd_balance(args) -> int:
    from repro.core import ParMA, imbalances
    from repro.partition import distribute
    from repro.partitioners import partition

    mesh = _build_mesh(args)
    assignment = partition(
        mesh, args.parts, method=args.method, seed=args.seed, eps=args.eps
    )
    dmesh = distribute(
        mesh, assignment, nparts=args.parts, sanitize=args.sanitize
    )
    balancer = ParMA(dmesh)
    before = (imbalances(dmesh.entity_counts()) - 1) * 100
    print(
        f"before ParMA: Vtx {before[0]:.2f}%  Edge {before[1]:.2f}%  "
        f"Face {before[2]:.2f}%  Rgn {before[3]:.2f}%"
    )
    stats = balancer.improve(args.priorities, tol=args.tol)
    print(stats.summary())
    after = (imbalances(dmesh.entity_counts()) - 1) * 100
    print(
        f"after ParMA:  Vtx {after[0]:.2f}%  Edge {after[1]:.2f}%  "
        f"Face {after[2]:.2f}%  Rgn {after[3]:.2f}%"
    )
    dmesh.verify()
    return 0


def cmd_bench(_args) -> int:
    print("pipeline:  python3 benchmarks/pipeline/run.py [--seed S]")
    print("compare:   python3 benchmarks/pipeline/diff.py A.json B.json")
    print("paper tables:  pytest benchmarks/ --benchmark-only")
    print("scale them with:  REPRO_BENCH_SCALE=medium|large")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis.engine import run

    return run(args)


def cmd_trace(args) -> int:
    import runpy
    from pathlib import Path

    from repro import obs
    from repro.parallel import GLOBAL

    script = Path(args.script)
    if not script.exists():
        print(f"repro trace: no such script: {script}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    tracer = obs.Tracer(counters=GLOBAL)
    # Install as the session default so DistributedMesh / spmd constructed
    # inside the (unmodified) workload pick it up.
    obs.install(tracer)
    tracer.bind(pid=0, tid=0)
    try:
        with tracer.span("workload", script=str(script)):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        obs.uninstall()

    stem = script.stem
    trace_path = outdir / f"{stem}.trace.json"
    metrics_path = outdir / f"{stem}.metrics.json"
    obs.write_chrome_trace(tracer, trace_path)
    obs.write_metrics(metrics_path, tracer=tracer, counters=GLOBAL)
    print(obs.text_report(tracer, counters=GLOBAL))
    print(f"chrome trace: {trace_path}  (load in about:tracing / Perfetto)")
    print(f"metrics json: {metrics_path}")
    return 0


def cmd_chaos(args) -> int:
    import json
    import runpy
    from pathlib import Path

    from repro import obs
    from repro.parallel import GLOBAL
    from repro.resilience import (
        CheckpointManager,
        FaultPlan,
        FaultPlanError,
        RecoveryExhaustedError,
        resilient_spmd,
    )

    script = Path(args.script)
    if not script.exists():
        print(f"repro chaos: no such script: {script}", file=sys.stderr)
        return 2
    module = runpy.run_path(str(script), run_name="__repro_chaos__")
    build = module.get("build")
    step = module.get("step")
    if not callable(build) or not callable(step):
        print(
            f"repro chaos: {script} must define build() and step(dmesh, i)",
            file=sys.stderr,
        )
        return 2
    nsteps = args.steps if args.steps is not None else module.get("NSTEPS")
    if nsteps is None:
        print(
            "repro chaos: pass --steps or define NSTEPS in the script",
            file=sys.stderr,
        )
        return 2

    faults = None
    if args.faults:
        try:
            faults = FaultPlan.from_json(Path(args.faults))
        except (OSError, FaultPlanError) as exc:
            print(f"repro chaos: bad fault plan: {exc}", file=sys.stderr)
            return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ckdir = Path(args.checkpoint_dir) if args.checkpoint_dir else (
        outdir / "checkpoints"
    )
    manager = CheckpointManager(ckdir, keep=args.keep)

    tracer = obs.Tracer(counters=GLOBAL)
    obs.install(tracer)
    tracer.bind(pid=0, tid=0)
    status = 0
    try:
        with tracer.span("chaos", script=str(script)):
            dmesh, report = resilient_spmd(
                build,
                step,
                int(nsteps),
                checkpoints=manager,
                checkpoint_every=args.checkpoint_every,
                faults=faults,
                max_retries=args.max_retries,
            )
        dmesh.verify()
    except RecoveryExhaustedError as exc:
        report = exc.report
        print(f"repro chaos: {exc}", file=sys.stderr)
        status = 1
    finally:
        obs.uninstall()

    report_path = outdir / f"{script.stem}.resilience.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
    )
    metrics_path = outdir / f"{script.stem}.metrics.json"
    obs.write_metrics(metrics_path, tracer=tracer, counters=GLOBAL)
    print(report.summary())
    print(f"recovery report: {report_path}")
    print(f"metrics json:    {metrics_path}")
    return status


def cmd_snapshot(args) -> int:
    import hashlib
    import json
    from pathlib import Path

    from repro.store import (
        CorruptCheckpointError,
        SnapshotStore,
        element_partition,
        field_checksum,
        owned_gid_set,
    )

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    store = SnapshotStore(Path(args.store), chunk_records=args.chunk_records)
    if args.action == "save":
        from repro.partition import DistributedField, distribute
        from repro.partitioners import partition

        mesh = _build_mesh(args)
        nparts = args.parts if args.parts else 4
        assignment = partition(
            mesh, nparts, method=args.method, seed=args.seed
        )
        dmesh = distribute(mesh, [int(a) for a in assignment])
        coord = DistributedField(dmesh, "coord", 0, 3)
        for part in dmesh:
            local = coord.on(part.pid)
            for v in part.mesh.entities(0):
                local.set(v, part.mesh.coords(v))
        info = store.save(dmesh, [coord], full=args.full)
        doc = {
            "saved": info.to_dict(),
            "store": str(store.root),
            "partition_sha256": digest(element_partition(dmesh)),
        }
    elif args.action == "load":
        try:
            dmesh, fields, stats = store.load_at(
                nparts=args.parts, epoch=args.epoch
            )
            dmesh.verify()
        except CorruptCheckpointError as exc:
            print(f"repro snapshot: {exc}", file=sys.stderr)
            return 1
        dim = dmesh.element_dim()
        doc = {
            "nparts": dmesh.nparts,
            "elements": len(owned_gid_set(dmesh, dim)),
            "owned_gids_sha256": digest(sorted(owned_gid_set(dmesh, dim))),
            "partition_sha256": digest(element_partition(dmesh)),
            "fields": {
                name: round(field_checksum(dmesh, dfield), 9)
                for name, dfield in sorted(fields.items())
            },
            "stats": stats.to_dict(),
        }
    else:
        doc = store.inspect()
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def _build_service(args):
    from repro.parallel import MachineTopology
    from repro.svc import MeshJobService

    machine = MachineTopology(
        nodes=args.nodes, cores_per_node=args.cores_per_node
    )
    return MeshJobService(
        machine,
        capacity=args.capacity,
        aging=args.aging,
        seed=args.seed,
        timeout=args.timeout,
        snapshot_cache=args.snapshot_cache,
    )


def cmd_serve(args) -> int:
    import json
    from pathlib import Path

    from repro.parallel import TopologyError
    from repro.svc import JobSpecError, load_specs

    jobs_path = Path(args.jobs)
    if not jobs_path.exists():
        print(f"repro serve: no such jobs file: {jobs_path}", file=sys.stderr)
        return 2
    try:
        specs = load_specs(json.loads(jobs_path.read_text()))
    except (json.JSONDecodeError, JobSpecError, ValueError) as exc:
        print(f"repro serve: bad jobs file: {exc}", file=sys.stderr)
        return 2
    try:
        service = _build_service(args)
    except TopologyError as exc:
        print(f"repro serve: bad machine: {exc}", file=sys.stderr)
        return 2

    report = service.serve(specs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "service_report.json"
    report.write(report_path)
    metrics_path = outdir / "service_metrics.json"
    service.write_metrics(metrics_path)
    print(report.summary())
    print(service.latency_stats().summary())
    print(f"service report: {report_path}")
    print(f"metrics json:   {metrics_path}")
    completed = report.totals.get("completed", 0)
    return 0 if completed == report.totals.get("submitted", 0) else 1


def cmd_couple(args) -> int:
    import json
    from pathlib import Path

    from repro.couple import GraphError, JobGraph
    from repro.parallel import TopologyError
    from repro.svc import JobSpecError

    graph_path = Path(args.graph)
    if not graph_path.exists():
        print(
            f"repro couple: no such graph file: {graph_path}", file=sys.stderr
        )
        return 2
    try:
        graph = JobGraph.from_dict(json.loads(graph_path.read_text()))
    except (json.JSONDecodeError, GraphError, ValueError) as exc:
        print(f"repro couple: bad graph file: {exc}", file=sys.stderr)
        return 2
    try:
        service = _build_service(args)
    except TopologyError as exc:
        print(f"repro couple: bad machine: {exc}", file=sys.stderr)
        return 2

    try:
        report = service.serve_graph(graph)
    except JobSpecError as exc:
        print(f"repro couple: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "service_report.json"
    report.write(report_path)
    metrics_path = outdir / "service_metrics.json"
    service.write_metrics(metrics_path)
    print(report.summary())
    print(service.latency_stats().summary())
    print(f"service report: {report_path}")
    print(f"metrics json:   {metrics_path}")
    completed = report.totals.get("completed", 0)
    return 0 if completed == report.totals.get("submitted", 0) else 1


def cmd_submit(args) -> int:
    import json
    from pathlib import Path

    from repro.parallel import TopologyError
    from repro.resilience import FaultPlan, FaultPlanError
    from repro.svc import JobSpec, JobSpecError, PlacementError, RetryPolicy

    fault_plan = None
    if args.faults:
        try:
            fault_plan = FaultPlan.from_json(Path(args.faults))
        except (OSError, FaultPlanError) as exc:
            print(f"repro submit: bad fault plan: {exc}", file=sys.stderr)
            return 2
    try:
        spec = JobSpec(
            name=args.name,
            workload=args.workload,
            parts=args.parts,
            mesh_n=args.n,
            steps=args.steps,
            tenant=args.tenant,
            priority=args.priority,
            deadline=args.deadline,
            retry=RetryPolicy(max_retries=args.retries),
            fault_plan=fault_plan,
        )
        service = _build_service(args)
        service.submit(spec)
    except (JobSpecError, PlacementError, TopologyError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    service.run_until_idle()
    outcome = service.outcome(spec.name)
    print(json.dumps(outcome.to_dict(wall_free=False), indent=1, sort_keys=True))
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PUMI + ParMA reproduction — command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh_args(p):
        p.add_argument(
            "--kind", default="box", choices=("rect", "box", "aaa", "wing")
        )
        p.add_argument("--n", type=int, default=8, help="mesh resolution")
        p.add_argument("--save", default=None, help="write VTK to this path")

    p_info = sub.add_parser("info", help="mesh statistics")
    add_mesh_args(p_info)
    p_info.set_defaults(fn=cmd_info)

    def add_partition_args(p):
        add_mesh_args(p)
        p.add_argument("--parts", type=int, default=8)
        p.add_argument(
            "--method",
            default="hypergraph",
            choices=("hypergraph", "graph", "rcb", "rib"),
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=0.05)

    p_part = sub.add_parser("partition", help="partition and score a mesh")
    add_partition_args(p_part)
    p_part.set_defaults(fn=cmd_partition)

    p_bal = sub.add_parser("balance", help="baseline + ParMA improvement")
    add_partition_args(p_bal)
    p_bal.add_argument("--priorities", default="Vtx > Rgn")
    p_bal.add_argument("--tol", type=float, default=0.05)
    p_bal.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the runtime sanitizers on (alias freeze proxies)",
    )
    p_bal.set_defaults(fn=cmd_balance)

    p_bench = sub.add_parser("bench", help="how to run the benchmarks")
    p_bench.set_defaults(fn=cmd_bench)

    from repro.analysis.engine import add_arguments as add_analyze_args

    p_an = sub.add_parser(
        "analyze", help="SPMD analysis (SPMD003..SPMD007, SPMD101..SPMD105)"
    )
    add_analyze_args(p_an)
    p_an.set_defaults(fn=cmd_analyze)

    p_trace = sub.add_parser(
        "trace", help="run a workload script under the tracer"
    )
    p_trace.add_argument("script", help="python workload script to run")
    p_trace.add_argument(
        "--out", default="trace-out", help="output directory (created)"
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a workload under fault injection + checkpoint/restart",
    )
    p_chaos.add_argument(
        "script", help="workload script defining build() and step(dmesh, i)"
    )
    p_chaos.add_argument(
        "--faults", default=None, help="JSON fault-plan file (default: none)"
    )
    p_chaos.add_argument(
        "--steps",
        type=int,
        default=None,
        help="epoch count (default: the script's NSTEPS)",
    )
    p_chaos.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint cadence in epochs (default: 1)",
    )
    p_chaos.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory (default: <out>/checkpoints)",
    )
    p_chaos.add_argument(
        "--keep", type=int, default=3, help="checkpoints retained (default: 3)"
    )
    p_chaos.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="recovery budget before giving up (default: 3)",
    )
    p_chaos.add_argument(
        "--out", default="chaos-out", help="output directory (created)"
    )
    p_chaos.set_defaults(fn=cmd_chaos)

    p_snap = sub.add_parser(
        "snapshot",
        help="save/load/inspect a repro.store/2 snapshot store",
    )
    p_snap.add_argument("action", choices=("save", "load", "inspect"))
    p_snap.add_argument(
        "--store", required=True, help="snapshot store directory"
    )
    p_snap.add_argument(
        "--kind", default="rect", choices=("rect", "box", "aaa", "wing")
    )
    p_snap.add_argument("--n", type=int, default=8, help="mesh resolution")
    p_snap.add_argument(
        "--parts",
        type=int,
        default=None,
        help="part count: writer parts for save (default 4), target parts "
        "for load (default: as saved)",
    )
    p_snap.add_argument(
        "--method",
        default="rcb",
        choices=("hypergraph", "graph", "rcb", "rib"),
        help="partitioner for save (default: rcb)",
    )
    p_snap.add_argument("--seed", type=int, default=0)
    p_snap.add_argument(
        "--chunk-records",
        type=int,
        default=256,
        help="records per chunk file (default: 256)",
    )
    p_snap.add_argument(
        "--full",
        action="store_true",
        help="force a full epoch on save (default: delta when possible)",
    )
    p_snap.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="epoch index to load (default: the tip)",
    )
    p_snap.set_defaults(fn=cmd_snapshot)

    def add_service_args(p):
        p.add_argument(
            "--nodes", type=int, default=2, help="machine nodes (default: 2)"
        )
        p.add_argument(
            "--cores-per-node",
            type=int,
            default=4,
            help="cores per node (default: 4)",
        )
        p.add_argument(
            "--capacity",
            type=int,
            default=64,
            help="admission queue capacity (default: 64)",
        )
        p.add_argument(
            "--aging",
            type=int,
            default=1,
            help="priority aging per queued round (default: 1)",
        )
        p.add_argument(
            "--seed", type=int, default=0, help="placement tie-break seed"
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=30.0,
            help="per-rank SPMD watchdog seconds (default: 30)",
        )
        p.add_argument(
            "--snapshot-cache",
            default=None,
            metavar="DIR",
            help="warm-start snapshot cache directory (enables mesh-warm "
            "cache hits; default: off)",
        )

    p_serve = sub.add_parser(
        "serve", help="run a JSON job list through the mesh-job service"
    )
    p_serve.add_argument("--jobs", required=True, help="jobs JSON file")
    add_service_args(p_serve)
    p_serve.add_argument(
        "--out", default="serve-out", help="output directory (created)"
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_couple = sub.add_parser(
        "couple",
        help="run a coupled job graph (jobs + deps + channels) through "
        "the mesh-job service",
    )
    p_couple.add_argument(
        "--graph", required=True, help="job graph JSON file"
    )
    add_service_args(p_couple)
    p_couple.add_argument(
        "--out", default="couple-out", help="output directory (created)"
    )
    p_couple.set_defaults(fn=cmd_couple)

    p_submit = sub.add_parser(
        "submit", help="run one job through a fresh mesh-job service"
    )
    p_submit.add_argument("--name", default="job", help="job name")
    p_submit.add_argument(
        "--workload",
        default="stencil",
        help="registered workload name (see repro.workloads.job_workload_names)",
    )
    p_submit.add_argument(
        "--parts", type=int, default=2, help="gang size (default: 2)"
    )
    p_submit.add_argument(
        "--n", type=int, default=8, help="mesh resolution (default: 8)"
    )
    p_submit.add_argument(
        "--steps", type=int, default=2, help="superstep count (default: 2)"
    )
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall seconds per attempt (default: none)",
    )
    p_submit.add_argument(
        "--retries", type=int, default=0, help="retry budget (default: 0)"
    )
    p_submit.add_argument(
        "--faults", default=None, help="JSON fault-plan file (default: none)"
    )
    add_service_args(p_submit)
    p_submit.set_defaults(fn=cmd_submit)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
