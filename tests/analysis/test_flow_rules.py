"""Fixture corpus for the SPMD analyzer's flow rules and call resolution.

Each fixture is a small SPMD program seeded with exactly the hazard (or
non-hazard) named by the test; assertions pin the *code and line* so a rule
regression cannot pass silently by firing somewhere else.
"""

import textwrap

from repro.analysis.engine import FlowAnalyzer, analyze_source


def analyze(src):
    return analyze_source(textwrap.dedent(src), path="fixture.py")


def hits(src):
    """(code, line) pairs, the corpus' assertion currency."""
    return [(f.code, f.line) for f in analyze(src)]


# ---------------------------------------------------------------------------
# SPMD101: collective under rank-divergent control flow
# ---------------------------------------------------------------------------


def test_collective_in_rank_branch_fires():
    src = """
    def run(world, data):
        if world.rank == 0:
            world.bcast(data)
    """
    assert hits(src) == [("SPMD101", 4)]


def test_aliased_collective_in_rank_branch_fires():
    # `b = world.bcast; b(x)` defeats an attribute-name match; the taint
    # lattice tracks bound collectives as COLL tokens.
    src = """
    def run(world, payload):
        b = world.bcast
        if world.rank == 0:
            b(payload)
    """
    assert hits(src) == [("SPMD101", 5)]


def test_rank_dependent_early_exit_fires_on_later_collective():
    src = """
    def run(world, data):
        if world.rank == 0:
            return None
        world.bcast(data)
    """
    assert hits(src) == [("SPMD101", 5)]


def test_cross_function_divergence_fires_at_call_site():
    # The callee's collectives are guarded by a parameter; the call site
    # binds that parameter to a rank predicate.  Neither function is buggy
    # alone — only the interprocedural summary sees the hazard.
    src = """
    def helper(world, flag):
        if flag:
            world.barrier()

    def run(world):
        helper(world, world.rank == 0)
    """
    assert hits(src) == [("SPMD101", 7)]


def test_collective_in_rank_bounded_loop_fires():
    src = """
    def run(world, data):
        for _ in range(world.rank):
            world.allreduce(data)
    """
    assert hits(src) == [("SPMD101", 4)]


def test_symmetric_branch_collectives_are_clean():
    # Both arms run the same collective sequence: every rank matches.
    src = """
    def run(world, data):
        if world.rank == 0:
            world.bcast(data)
        else:
            world.bcast(None)
    """
    assert hits(src) == []


def test_collective_outside_branch_is_clean():
    src = """
    def run(world, data):
        value = world.bcast(data)
        if world.rank == 0:
            log = value
        return value
    """
    assert hits(src) == []


# ---------------------------------------------------------------------------
# SPMD102: branch-inconsistent collective sequences
# ---------------------------------------------------------------------------


def test_reordered_collective_sequences_fire():
    src = """
    def run(world, x):
        if world.rank == 0:
            world.reduce(x)
            world.barrier()
        else:
            world.barrier()
            world.reduce(x)
    """
    assert hits(src) == [("SPMD102", 3)]


def test_unbalanced_collective_counts_fire():
    src = """
    def run(world, x):
        if world.rank == 0:
            world.allreduce(x)
            world.allreduce(x)
        else:
            world.allreduce(x)
    """
    assert hits(src) == [("SPMD102", 3)]


# ---------------------------------------------------------------------------
# SPMD103: nondeterminism into wire / report paths
# ---------------------------------------------------------------------------


def test_wall_clock_into_wire_fires():
    src = """
    import time

    def run(net, msg):
        stamp = time.time()
        net.send(0, (stamp, msg))
    """
    assert hits(src) == [("SPMD103", 6)]


def test_unseeded_random_into_wire_fires():
    src = """
    import random

    def run(net):
        net.post(0, random.random())
    """
    assert hits(src) == [("SPMD103", 5)]


def test_set_iteration_order_into_wire_fires():
    src = """
    def run(net, parts):
        targets = set(parts)
        for t in list(targets):
            net.send(t, "x")
    """
    assert hits(src) == [("SPMD103", 5)]


def test_nondeterministic_report_return_fires():
    src = """
    import time

    def make_report(stats):
        return {"wall": time.perf_counter(), "stats": stats}
    """
    assert hits(src) == [("SPMD103", 5)]


def test_sorted_iteration_launders_set_order():
    src = """
    def run(net, parts):
        targets = set(parts)
        for t in sorted(targets):
            net.send(t, "x")
    """
    assert hits(src) == []


def test_logical_counter_into_wire_is_clean():
    src = """
    def run(net, step, msg):
        net.send(0, (step, msg))
    """
    assert hits(src) == []


# ---------------------------------------------------------------------------
# SPMD104: stale-ghost read
# ---------------------------------------------------------------------------


def test_ghost_read_after_owner_mutation_fires():
    src = """
    def run(field, values):
        field.set_owned(values)
        return field.ghost_values()
    """
    assert hits(src) == [("SPMD104", 4)]


def test_ghost_read_after_synchronize_is_clean():
    src = """
    def run(field, sync, values):
        field.set_owned(values)
        sync.synchronize(field)
        return field.ghost_values()
    """
    assert hits(src) == []


def test_ghost_read_with_sync_on_one_path_only_fires():
    # The else path reaches the read without synchronizing; the dataflow
    # join keeps the DIRTY token because *some* path is stale.
    src = """
    def run(field, sync, values, fast):
        field.set_owned(values)
        if fast:
            sync.synchronize(field)
        return field.ghost_values()
    """
    assert hits(src) == [("SPMD104", 6)]


# ---------------------------------------------------------------------------
# SPMD105: rank-tainted value into shared state
# ---------------------------------------------------------------------------


def test_rank_value_into_module_container_fires():
    src = """
    CACHE = {}

    def run(world):
        CACHE[world.rank] = world.rank * 2
    """
    assert hits(src) == [("SPMD105", 5)]


def test_rank_value_into_class_attribute_fires():
    src = """
    class Registry:
        seen = []

        def record(self, world):
            self.seen.append(world.rank)
    """
    assert hits(src) == [("SPMD105", 6)]


def test_rank_value_in_local_is_clean():
    src = """
    def run(world):
        mine = world.rank * 2
        return mine
    """
    assert hits(src) == []


def test_instance_attribute_store_is_clean():
    # Plain per-instance state is not shared across rank threads (each rank
    # holds its own object); only class-level containers are.
    src = """
    class Worker:
        def __init__(self, world):
            self.rank = world.rank
    """
    assert hits(src) == []


# ---------------------------------------------------------------------------
# interactions and suppression
# ---------------------------------------------------------------------------


def test_noqa_with_justification_suppresses_flow_finding():
    src = """
    def run(world, data):
        if world.rank == 0:
            world.bcast(data)  # noqa: SPMD101 - fixture exercises the hang
    """
    assert hits(src) == []


def test_bare_code_noqa_is_reported_as_spmd007():
    src = """
    def run(world, data):
        if world.rank == 0:
            world.bcast(data)  # noqa: SPMD101
    """
    assert hits(src) == [("SPMD007", 4)]


def test_file_level_suppression_drops_everything():
    src = """\
    # repro: noqa - generated fixture
    def run(world, data):
        if world.rank == 0:
            world.bcast(data)
    """
    assert hits(src) == []


def test_syntax_error_reports_spmd000():
    assert [f.code for f in analyze("def broken(:\n")] == ["SPMD000"]


def test_multiple_hazards_report_in_line_order():
    src = """
    import time

    STATE = {}

    def run(world, net, data):
        STATE["who"] = world.rank
        if world.rank == 0:
            world.bcast(data)
        net.send(0, time.time())
    """
    assert hits(src) == [
        ("SPMD105", 7),
        ("SPMD101", 9),
        ("SPMD103", 10),
    ]


def analyze_modules(files):
    """(path, code, line) over several in-memory modules, one program."""
    sources = {path: textwrap.dedent(src) for path, src in files.items()}
    return [(f.path, f.code, f.line) for f in FlowAnalyzer(sources).run()]


# ---------------------------------------------------------------------------
# nested defs and module-level code are analyzed bodies
# ---------------------------------------------------------------------------


def test_nested_rank_program_is_analyzed():
    # Every rank program in a test is a nested def handed to spmd().
    src = """
    def test_something(run):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
        run(2, prog)
    """
    assert hits(src) == [("SPMD101", 5)]


def test_nested_helper_resolves_in_its_enclosing_scope():
    src = """
    def run(world):
        def helper():
            world.barrier()
        if world.rank == 0:
            helper()
    """
    findings = analyze(src)
    assert [(f.code, f.line) for f in findings] == [("SPMD101", 6)]
    assert "run.<locals>.helper()" in findings[0].message


def test_nested_def_is_not_a_target_outside_its_scope():
    src = """
    def outer(world):
        def helper():
            world.barrier()
        return helper

    def helper():
        return 1

    def run(world):
        if world.rank == 0:
            helper()
    """
    assert hits(src) == []


def test_module_level_code_is_analyzed():
    src = """
    import time

    from somewhere import net, world

    if world.rank == 0:
        world.barrier()
    net.send(0, time.time())
    """
    assert hits(src) == [("SPMD101", 7), ("SPMD103", 8)]


# ---------------------------------------------------------------------------
# import-aware call resolution: each false positive of name-based resolution
# next to its positive twin
# ---------------------------------------------------------------------------


def test_numpy_split_is_not_a_collective():
    src = """
    import numpy as np

    def run(world, data):
        if world.rank == 0:
            return np.split(data, 2)
    """
    assert hits(src) == []


def test_communicator_split_is_a_collective():
    src = """
    import numpy as np

    def run(world, data):
        if world.rank == 0:
            return world.split(0)
    """
    assert hits(src) == [("SPMD101", 6)]


def test_numpy_ufunc_reduce_is_not_a_collective():
    src = """
    import numpy as np

    def run(world, data):
        if world.rank == 0:
            return np.add.reduce(data)
    """
    assert hits(src) == []


def test_communicator_reduce_is_a_collective():
    src = """
    import numpy as np

    def run(world, data):
        if world.rank == 0:
            return world.reduce(data)
    """
    assert hits(src) == [("SPMD101", 6)]


STORE = """
import json

class Store:
    def load(self, world):
        return world.bcast(None)
"""


def test_json_load_does_not_resolve_to_an_analyzed_load():
    src = STORE + """
def run(world, fh):
    if world.rank == 0:
        return json.load(fh)
"""
    assert hits(src) == []


def test_load_on_an_object_resolves_to_the_analyzed_load():
    src = STORE + """
def run(world, store):
    if world.rank == 0:
        return store.load(world)
"""
    assert hits(src) == [("SPMD101", 10)]


GATHERER = """
class Gatherer:
    def _gather(self, world):
        return world.gather(1)
"""


def test_self_call_does_not_reach_another_class():
    src = GATHERER + """
class Local:
    def _gather(self, parts):
        return [p for p in parts]

    def run(self, world, parts):
        if world.rank == 0:
            return self._gather(parts)
"""
    assert hits(src) == []


def test_self_call_reaches_own_and_base_class_collective():
    src = GATHERER + """
    def run(self, world):
        if world.rank == 0:
            return self._gather(world)

class Child(Gatherer):
    def step(self, world):
        if world.rank == 0:
            return self._gather(world)
"""
    assert hits(src) == [("SPMD101", 8), ("SPMD101", 13)]


COLLECTIVE_HELPER = {
    "collective.py": """
    def helper(world):
        world.barrier()
    """,
}


def test_bare_name_does_not_reach_another_module():
    files = dict(COLLECTIVE_HELPER)
    files["local.py"] = """
    def helper(value):
        return value

    def run(world):
        if world.rank == 0:
            helper(world)
    """
    assert analyze_modules(files) == []


def test_imported_name_reaches_its_module():
    files = dict(COLLECTIVE_HELPER)
    files["caller.py"] = """
    import collective
    from collective import helper

    def run(world):
        if world.rank == 0:
            helper(world)
        if world.rank == 1:
            collective.helper(world)
    """
    assert analyze_modules(files) == [
        ("caller.py", "SPMD101", 7),
        ("caller.py", "SPMD101", 9),
    ]


# ---------------------------------------------------------------------------
# SPMD003 in the taint lattice, and the worklist fixpoint
# ---------------------------------------------------------------------------


def test_payload_reached_through_subscript_is_tainted():
    src = """
    def run(comm):
        msg = comm.recv(source=0)
        msg["cells"].append(3)
    """
    assert hits(src) == [("SPMD003", 4)]


def test_payload_copied_on_one_path_only_fires():
    src = """
    def run(comm, fresh):
        data = comm.recv(source=0)
        if fresh:
            data = dict(data)
        data["k"] = 1
    """
    assert hits(src) == [("SPMD003", 6)]


def test_payload_returned_by_a_helper_is_tainted():
    src = """
    def fetch(comm):
        return comm.recv(source=0)

    def run(comm):
        got = fetch(comm)
        got.append(1)
    """
    assert hits(src) == [("SPMD003", 7)]


def test_collective_found_through_a_call_chain():
    src = """
    def c(world):
        world.barrier()

    def b(world):
        c(world)

    def a(world):
        b(world)

    def run(world):
        if world.rank == 0:
            a(world)
    """
    assert hits(src) == [("SPMD101", 13)]


def test_recursion_terminates():
    src = """
    def ping(world, n):
        if n:
            return pong(world, n - 1)
        return world.allreduce(n)

    def pong(world, n):
        return ping(world, n)

    def run(world):
        if world.rank == 0:
            ping(world, 3)
    """
    assert hits(src) == [("SPMD101", 12)]
