"""Run one workload in this process and print its record as the last line.

``run.py`` starts this file in a fresh single-threaded subprocess per
workload (thread caps, ``PYTHONHASHSEED`` and the core it is pinned to are
set before numpy loads).  The record is a JSON object: the metrics of the
requested kind — every end-to-end metric for ``--trace 0``, every per-layer
metric for ``--trace 1`` — the operations attempted and failed, and the
samples behind the medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from metrics import END_TO_END, PER_LAYER, SIZES
from spans import STAGE, chrome_trace, layer_table

# numpy and repro load with these three; importing them is part of set-up.
_import_started = time.perf_counter()
import numpy  # noqa: E402
import probes  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, StageFailed  # noqa: E402

IMPORT_S = time.perf_counter() - _import_started

#: Snapshots go to a fresh directory per pass, inside the checkout.
TMP_ROOT = Path(__file__).resolve().parent / ".tmp"
MIN_PASSES = 3
SETUP_REPEATS = 3
#: A workload whose pass spread (max-min)/median exceeds this is flagged.
NOISY_SPREAD = 0.10


def run_pass(name: str, inp: Any, traced: bool) -> Pass:
    """One pass of workload ``name``; returns the finished ``Pass``."""
    gc.collect()
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        p = Pass(name, tmp, Tracer() if traced else None)
        try:
            WORKLOADS[name].run(inp, p)
        except StageFailed:
            pass  # recorded by the pass; the remaining stages are skipped
        p.close()
    return p


def set_up(name: str, size: str, seed: int) -> Tuple[Any, List[float]]:
    """Build the inputs ``SETUP_REPEATS`` times; keep the last.

    One set-up is: a warm-up pass on the ``tiny`` inputs (so lazy
    initialisation is done before timing), then input generation and
    whatever untimed pre-state the workload needs.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        inp = None  # drop the previous build before timing the next
        gc.collect()
        t0 = time.perf_counter()
        warm = WORKLOADS[name].build(dict(SIZES["tiny"][name]), seed)
        run_pass(name, warm, traced=False)
        inp = WORKLOADS[name].build(dict(SIZES[size][name]), seed)
        samples.append(time.perf_counter() - t0)
    return inp, samples


def pass_layers(p: Pass) -> Dict[str, float]:
    """The per-layer metrics one traced pass yields (probes excluded)."""
    table = layer_table(p.rec.spans)

    def total(*names: str) -> float:
        return sum(table[n]["total_s"] for n in names if n in table)

    def stage(name: str) -> float:
        return total(STAGE + name)

    def own(prefix: str) -> float:
        return sum(
            row["self_s"] for n, row in table.items() if n.startswith(prefix)
        )

    def per(seconds: float, count: float) -> float:
        return 1e6 * seconds / count if count else 0.0

    facts = p.facts
    migrated = p.counter("migration.elements")
    return {
        "partitioners.hypergraph_s": stage("partitioners.hypergraph"),
        "partitioners.cut_faces": facts.get("partitioners.cut_faces", 0),
        "partition.ghost_s": stage("partition.ghost"),
        "partition.ghost_us_per_element": per(
            stage("partition.ghost"), facts.get("ghosts_created", 0)
        ),
        "partition.delete_ghosts_s": stage("partition.delete_ghosts"),
        "store.save_s": stage("store.save"),
        "store.load_s": stage("store.load"),
        "store.bytes_written": facts.get("store.bytes_written", 0),
        "core.split_s": stage("core.split"),
        "core.improve_s": stage("core.improve"),
        # improve's time outside migrate: candidate/element selection.
        "core.select_s": own(STAGE + "core.improve") + own("improve"),
        "core.improve_iterations": facts.get("core.improve_iterations", 0),
        "core.final_imbalance_pct": facts.get("core.final_imbalance_pct", 0.0),
        "partition.migrate_s": total("migrate"),
        "partition.migrate.pack_s": total("migrate.pack"),
        "partition.migrate.unpack_s": total("migrate.unpack"),
        "partition.migrate.remove_s": total("migrate.remove"),
        "partition.migrate.relink_s": total("migrate.relink"),
        "partition.migrate_elements": migrated,
        "partition.migrate_us_per_element": per(total("migrate"), migrated),
        "partition.boundary_copies": facts.get("partition.boundary_copies", 0),
        "parallel.sf_s": total("sf.bcast", "sf.reduce", "sf.fetch_and_op"),
        "parallel.sf_ops": p.counter(
            "sf.ops.bcast", "sf.ops.reduce", "sf.ops.fetch_and_op"
        ),
        "adapt.adapt_s": stage("adapt.adapt"),
        "adapt.splits": facts.get("adapt.splits", 0),
        "adapt.collapses": facts.get("adapt.collapses", 0),
        "adapt.us_per_split": per(
            stage("adapt.adapt"), facts.get("adapt.splits", 0)
        ),
        "partition.refine_distributed_s": stage("partition.refine_distributed"),
        "core.predictive_s": stage("core.predictive"),
        "field.transfer_s": stage("field.transfer"),
        "partition.distribute_s": stage("partition.distribute"),
        "parallel.wire_bytes": p.counter("net.bytes.off_node"),
        "parallel.encoded_bytes": p.counter("net.bytes.encoded"),
        "parallel.messages": p.messages(),
        "parallel.supersteps": p.counter("net.exchanges"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            trace_out: str = "") -> Dict[str, Any]:
    inp, setup_samples = set_up(name, size, seed)

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(name, inp, traced=False))
        if trace:
            traced.append(run_pass(name, inp, traced=True))
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    walls = [p.wall_s for p in untraced if not p.aborted]
    if not walls:
        raise SystemExit(f"{name}: every pass failed: {failures}")
    wall_s = statistics.median(walls)

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "params": SIZES[size][name],
        "elements": inp.elements,
        "parts": inp.parts,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "wall": {
            "samples": walls,
            "min": min(walls),
            "max": max(walls),
            "noisy": (max(walls) - min(walls)) / wall_s > NOISY_SPREAD,
        },
        "setup": {"import_s": IMPORT_S, "samples": setup_samples},
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": numpy.__version__,
        },
    }

    if not trace:
        values = {
            "setup_s": IMPORT_S + statistics.median(setup_samples),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        good = [p for p in traced if not p.aborted]
        if not good:
            raise SystemExit(f"{name}: every traced pass failed: {failures}")
        per_pass = [pass_layers(p) for p in good]
        # Times: median over the traced passes.  Counts repeat exactly.
        values = {
            key: statistics.median(layers[key] for layers in per_pass)
            for key in per_pass[0]
        }
        for stage, key in (("partition.synchronize", "partition.sync_ms"),
                           ("partition.accumulate", "partition.accumulate_ms")):
            calls = [
                1e3 * span.seconds
                for p in good for span in p.rec.stages()
                if span.name == STAGE + stage
            ]
            for q in (50, 90):
                values[f"{key}_p{q}"] = (
                    float(numpy.percentile(calls, q)) if calls else 0.0
                )
            record.setdefault("samples", {})[key] = len(calls)
        values.update(probes.run_probes(seed))
        values["mesh.generate_s"] = inp.generate_s
        values["mesh.verify_s"] = inp.verify_s + statistics.median(
            p.verify_s for p in good
        )
        traced_wall = statistics.median(p.wall_s for p in good)
        values["obs.trace_overhead_pct"] = 100.0 * (traced_wall - wall_s) / wall_s
        last = good[-1]
        record["layers"] = layer_table(last.rec.spans)
        record["stage_comm"] = last.stage_comm
        if trace_out:
            Path(trace_out).write_text(json.dumps(chrome_trace(last.rec.spans)))

    record["metrics"] = {
        m.name: {"value": values[m.name], "unit": m.unit}
        for m in (PER_LAYER if trace else END_TO_END)
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["default"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size,
        args.trace_out,
    )
    print(json.dumps(record, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
