"""The benchmark's metric and size tables — the one place names, units and
bounds are written down.  ``BENCHMARK.json`` lists exactly these metrics
(``tests/`` checks the two agree), ``worker.py`` reports them, ``diff.py``
applies the bounds.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end: share of the parent's median the metric may worsen by.
    #: Per-layer metrics carry no bound.
    bound: float = 0.0


#: What a user of the pipeline sees; same names on every workload.  The
#: time bounds are as wide as the contract allows because the sandbox is
#: not quiet: ten runs spread 2-3 % (quartile distance / median) for many
#: minutes, then 13-15 % for a few while a neighbour is busy.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: failed / attempted.  Any increase is a regression, so it cannot carry a
#: relative bound and (being 0 on a healthy run) cannot be listed in
#: ``BENCHMARK.json``'s ``end_to_end``; there it travels as the result's
#: ``attempted``/``failed`` keys.  ``run.py`` prints it and ``diff.py``
#: compares it like the other three.
FAILED_SHARE = Metric("failed_share", "ratio", "lower", 0.0)


def failed_share(record: dict) -> float:
    """``failed / attempted`` of one worker record."""
    return record["failed"] / record["attempted"]


#: Single-layer metrics of the traced run, ``<module>.<name>``.  Times are
#: benchmark-side spans around public calls plus the spans the program
#: already emits; counts come from the stats dataclasses and PerfCounters.
#: A layer a workload never calls reports 0.
PER_LAYER: List[Metric] = [
    # -> wall_s on `pipeline`
    Metric("partitioners.hypergraph_s", "s", "lower"),
    Metric("partitioners.cut_faces", "count", "lower"),
    Metric("partition.ghost_s", "s", "lower"),
    Metric("partition.ghost_us_per_element", "us", "lower"),
    Metric("partition.delete_ghosts_s", "s", "lower"),
    Metric("store.save_s", "s", "lower"),
    Metric("store.load_s", "s", "lower"),
    Metric("store.bytes_written", "count", "lower"),
    Metric("mesh.create_us_per_entity", "us", "lower"),
    # -> wall_s on `rebalance`
    Metric("core.split_s", "s", "lower"),
    Metric("core.improve_s", "s", "lower"),
    Metric("core.select_s", "s", "lower"),
    Metric("core.improve_iterations", "count", "lower"),
    Metric("core.final_imbalance_pct", "%", "lower"),
    Metric("partition.migrate_s", "s", "lower"),
    Metric("partition.migrate.pack_s", "s", "lower"),
    Metric("partition.migrate.unpack_s", "s", "lower"),
    Metric("partition.migrate.remove_s", "s", "lower"),
    Metric("partition.migrate.relink_s", "s", "lower"),
    Metric("partition.migrate_elements", "count", "lower"),
    Metric("partition.migrate_us_per_element", "us", "lower"),
    Metric("partition.boundary_copies", "count", "lower"),
    # -> wall_s on `halo-exchange`
    Metric("partition.sync_ms_p50", "ms", "lower"),
    Metric("partition.sync_ms_p90", "ms", "lower"),
    Metric("partition.accumulate_ms_p50", "ms", "lower"),
    Metric("partition.accumulate_ms_p90", "ms", "lower"),
    Metric("parallel.sf_s", "s", "lower"),
    Metric("parallel.sf_ops", "count", "lower"),
    Metric("parallel.sf.bcast_us_per_leaf", "us", "lower"),
    Metric("parallel.codec.encode_mb_per_s", "MB/s", "higher"),
    Metric("parallel.codec.decode_mb_per_s", "MB/s", "higher"),
    Metric("parallel.network.exchange_us_per_msg", "us", "lower"),
    # -> wall_s on `adapt-cycle`
    Metric("adapt.adapt_s", "s", "lower"),
    Metric("adapt.splits", "count", "lower"),
    Metric("adapt.collapses", "count", "lower"),
    Metric("adapt.us_per_split", "us", "lower"),
    Metric("partition.refine_distributed_s", "s", "lower"),
    Metric("core.predictive_s", "s", "lower"),
    Metric("field.transfer_s", "s", "lower"),
    # every workload
    Metric("partition.distribute_s", "s", "lower"),
    Metric("parallel.wire_bytes", "count", "lower"),
    Metric("parallel.encoded_bytes", "count", "lower"),
    Metric("parallel.messages", "count", "lower"),
    Metric("parallel.supersteps", "count", "lower"),
    Metric("mesh.generate_s", "s", "lower"),
    Metric("mesh.verify_s", "s", "lower"),
    Metric("obs.trace_overhead_pct", "%", "lower"),
]

#: Workload name -> the one line on why it exists.
WORKLOAD_WHY: Dict[str, str] = {
    "pipeline": (
        "the paper's headline path: hypergraph partition, distribute, ParMA improve, "
        "depth-1 ghost, accumulate+sync, unghost, snapshot save, load at half the "
        "parts; 5,184 tets, 16 parts"
    ),
    "rebalance": (
        "Sec. III-B spikes: an 88%-imbalanced weighted-RCB partition goes through heavy "
        "part splitting and Rgn diffusion; migrate dominates, ghosting and the store "
        "do nothing; 5,184 tets, 16 parts"
    ),
    "halo-exchange": (
        "a solver's inner loop: accumulate+synchronize rounds over three fields that "
        "only read the boundary links and ghosts the other workloads write; 5,184 "
        "tets, 16 parts, depth-1 ghosts"
    ),
    "adapt-cycle": (
        "the adaptive workflow: predictive balance, distributed refinement, improve, "
        "serial adapt, field transfer; adapt kernels and entity create/destroy "
        "dominate; 768 -> 3,800 tets, 8 parts"
    ),
}

#: Workload parameters per size.  ``default`` is the only size official
#: numbers come from; ``tiny`` feeds the warm-up pass and the self-tests.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "default": {
        "pipeline": {"n": 6, "parts": 16, "load_parts": 8, "rounds": 10},
        "rebalance": {"n": 6, "parts": 16},
        "halo-exchange": {"n": 6, "parts": 16, "rounds": 40},
        "adapt-cycle": {"n": 8, "parts": 8, "refinement": 2.0, "max_passes": 3},
    },
    "tiny": {
        "pipeline": {"n": 2, "parts": 4, "load_parts": 2, "rounds": 2},
        "rebalance": {"n": 3, "parts": 16},
        "halo-exchange": {"n": 2, "parts": 4, "rounds": 3},
        "adapt-cycle": {"n": 4, "parts": 4, "refinement": 2.0, "max_passes": 2},
    },
}


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these tables imply."""
    return {
        "command": ["python3", "benchmarks/pipeline/run.py"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
