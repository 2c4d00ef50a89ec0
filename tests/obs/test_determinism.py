"""Two identical traced runs must produce identical communication metrics.

The simulated runtime is deterministic (sorted iteration, seeded
partitioners); the observability layer must preserve that: superstep counts,
per-superstep matrices, counter snapshots and timeline shapes may not vary
between runs, or traces would be useless as regression baselines.
"""

from repro import obs
from repro.core import ParMA
from repro.mesh import rect_tri
from repro.parallel import PerfCounters
from repro.partition import DistributedField, accumulate, distribute, ghost_layer
from repro.partition import delete_ghosts
from repro.partitioners import partition


def run_workload():
    perf = PerfCounters()
    tracer = obs.Tracer(counters=perf)
    mesh = rect_tri(6)
    assignment = partition(mesh, 4, method="hypergraph", seed=3)
    dm = distribute(mesh, assignment, counters=perf, tracer=tracer)
    ParMA(dm).improve("Vtx > Rgn", tol=0.05)
    ghost_layer(dm)
    delete_ghosts(dm)
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0] + x[1])
    accumulate(df)
    return tracer, perf


def test_two_runs_identical_comm_metrics():
    t1, p1 = run_workload()
    t2, p2 = run_workload()
    assert t1.superstep_count() == t2.superstep_count() > 0
    assert t1.supersteps() == t2.supersteps()  # every per-step matrix
    assert t1.comm_matrix() == t2.comm_matrix()
    assert p1.counters() == p2.counters()
    assert t1.timelines() == t2.timelines()


def test_two_runs_identical_span_structure():
    t1, _ = run_workload()
    t2, _ = run_workload()

    def shape(tracer):
        return [
            [
                (s.name, s.superstep_start, s.superstep_end)
                for s in root.walk()
            ]
            for root in tracer.roots
        ]

    assert shape(t1) == shape(t2)


def test_metrics_documents_identical_modulo_time():
    t1, p1 = run_workload()
    t2, p2 = run_workload()

    def strip_seconds(doc):
        def walk(span):
            span.pop("seconds")
            for child in span["children"]:
                walk(child)

        for span in doc["spans"]:
            walk(span)
        return doc

    d1 = strip_seconds(obs.metrics_dict(tracer=t1, counters=p1))
    d2 = strip_seconds(obs.metrics_dict(tracer=t2, counters=p2))
    assert d1 == d2
