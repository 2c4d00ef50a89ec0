"""The syntactic-lint fixtures, run through the one analyzer.

Every fixture is the *minimal* program exhibiting the hazard class it names;
a sibling "clean" fixture pins down that the analyzer does not fire on the
correct version of the same code.  Assertions pin ``(code, line)``.  The
former SPMD001 (collective in a rank branch) is reported as SPMD101 and the
former SPMD002 (posting driven by set iteration) as SPMD103.
"""

import json
import textwrap
from pathlib import Path

import repro
from repro.analysis.engine import (
    analyze_paths,
    analyze_source,
    format_json,
    format_text,
)


def lint(code):
    return analyze_source(textwrap.dedent(code), path="fixture.py")


def hits(code):
    return [(f.code, f.line) for f in lint(code)]


# -- collective inside a rank-dependent branch (SPMD101) ---------------------


def test_spmd001_collective_in_rank_branch():
    buggy = """
    def prog(comm):
        if comm.rank == 0:
            comm.barrier()
    """
    assert hits(buggy) == [("SPMD101", 4)]


def test_spmd001_exchange_in_rank_branch():
    buggy = """
    def superstep(net, rank):
        if rank % 2 == 0:
            net.exchange()
    """
    assert hits(buggy) == [("SPMD101", 4)]


def test_spmd001_clean_when_every_rank_calls():
    clean = """
    def prog(comm):
        is_root = comm.rank == 0
        value = comm.bcast(42 if is_root else None)
        return value
    """
    assert hits(clean) == []


def test_spmd001_point_to_point_in_branch_is_fine():
    clean = """
    def prog(comm):
        if comm.rank == 0:
            comm.send("x", dest=1)
    """
    assert hits(clean) == []


def test_spmd001_local_alias_of_collective():
    # `b = world.bcast; b(x)` is the aliasing pattern that defeats an
    # attribute-name match.
    buggy = """
    def prog(comm, data):
        b = comm.bcast
        if comm.rank == 0:
            b(data)
    """
    assert hits(buggy) == [("SPMD101", 5)]


def test_spmd001_self_attribute_collective_alias():
    # A collective stashed on the instance in __init__ and called from a
    # different method.
    buggy = """
    class Runner:
        def __init__(self, world):
            self._sync = world.barrier

        def step(self, world):
            if world.rank == 0:
                self._sync()
    """
    assert hits(buggy) == [("SPMD101", 8)]


def test_spmd001_plain_method_call_is_not_an_alias():
    clean = """
    class Runner:
        def __init__(self, world):
            self._log = world.logger

        def step(self, world):
            if world.rank == 0:
                self._log()
    """
    assert hits(clean) == []


def test_spmd001_nested_function_resets_branch_context():
    clean = """
    def prog(comm):
        if comm.rank == 0:
            def helper(c):
                c.barrier()
    """
    # The nested function is defined, not called, in the branch.
    assert hits(clean) == []


# -- posting driven by unordered iteration (SPMD103) -------------------------


def test_spmd002_posting_over_set_literal():
    buggy = """
    def superstep(net):
        for dst in {3, 1, 2}:
            net.post(0, dst, 0, "payload")
    """
    assert hits(buggy) == [("SPMD103", 4)]


def test_spmd002_posting_over_set_variable():
    buggy = """
    def superstep(net, neighbors):
        targets = set(neighbors)
        for dst in targets:
            net.post(0, dst, 0, "payload")
    """
    assert hits(buggy) == [("SPMD103", 5)]


def test_spmd002_clean_when_sorted():
    clean = """
    def superstep(net, neighbors):
        for dst in sorted(set(neighbors)):
            net.post(0, dst, 0, "payload")
    """
    assert hits(clean) == []


# -- SPMD003: mutating a received payload ------------------------------------


def test_spmd003_mutating_recv_result():
    buggy = """
    def prog(comm):
        data = comm.recv(source=0)
        data.append(99)
    """
    assert hits(buggy) == [("SPMD003", 4)]


def test_spmd003_mutating_inbox_payload():
    buggy = """
    def superstep(router):
        inboxes = router.exchange()
        for src, tag, payload in inboxes[0]:
            payload["seen"] = True
    """
    assert hits(buggy) == [("SPMD003", 5)]


def test_spmd003_clean_after_defensive_copy():
    clean = """
    def prog(comm):
        data = comm.recv(source=0)
        data = list(data)
        data.append(99)
    """
    assert hits(clean) == []


def test_spmd003_fresh_comprehension_is_not_tainted():
    clean = """
    def superstep(router):
        inboxes = router.exchange()
        ordered = [payload for _s, _t, payload in inboxes[0]]
        ordered.append("mine")
    """
    assert hits(clean) == []


def test_spmd003_alias_of_tainted_name_is_tainted():
    buggy = """
    def prog(comm):
        data = comm.recv(source=0)
        alias = data
        alias.update(x=1)
    """
    assert hits(buggy) == [("SPMD003", 5)]


# -- SPMD004: mutable default argument ---------------------------------------


def test_spmd004_mutable_default():
    buggy = """
    def prog(comm, cache={}):
        cache[comm.rank] = 1
    """
    assert hits(buggy) == [("SPMD004", 2)]


def test_spmd004_clean_none_default():
    clean = """
    def prog(comm, cache=None):
        cache = {} if cache is None else cache
    """
    assert hits(clean) == []


# -- SPMD005: bare except ----------------------------------------------------


def test_spmd005_bare_except():
    buggy = """
    def prog(comm):
        try:
            comm.recv(source=0)
        except:
            pass
    """
    assert hits(buggy) == [("SPMD005", 5)]


def test_spmd005_specific_except_is_fine():
    clean = """
    def prog(comm):
        try:
            comm.recv(source=0)
        except ValueError:
            pass
    """
    assert hits(clean) == []


# -- SPMD006: implicit-Optional annotation -----------------------------------


def test_spmd006_implicit_optional():
    buggy = """
    def verify(mesh, check_classification: bool = None):
        pass
    """
    assert hits(buggy) == [("SPMD006", 2)]


def test_spmd006_explicit_optional_is_fine():
    clean = """
    from typing import Optional

    def verify(mesh, check_classification: Optional[bool] = None):
        pass
    """
    assert hits(clean) == []


# -- suppression, formatting -------------------------------------------------


def test_noqa_with_code_suppresses():
    suppressed = """
    def prog(comm):
        if comm.rank == 0:
            comm.barrier()  # noqa: SPMD101 - fixture exercises the hang path
    """
    assert hits(suppressed) == []


def test_blanket_noqa_suppresses():
    suppressed = """
    def prog(comm, cache={}):  # noqa
        pass
    """
    assert hits(suppressed) == []


def test_noqa_other_code_does_not_suppress():
    buggy = """
    def prog(comm):
        if comm.rank == 0:
            comm.barrier()  # noqa: SPMD999
    """
    assert hits(buggy) == [("SPMD101", 4), ("SPMD007", 4)]


def test_bare_code_suppression_is_reported_as_spmd007():
    buggy = """
    def prog(comm):
        if comm.rank == 0:
            comm.barrier()  # noqa: SPMD101
    """
    assert hits(buggy) == [("SPMD007", 4)]


def test_justified_suppression_has_no_spmd007():
    suppressed = """
    def prog(comm):
        if comm.rank == 0:
            comm.barrier()  # noqa: SPMD101 - fixture exercises the hang path
    """
    assert hits(suppressed) == []


def test_file_level_noqa_header_suppresses_whole_file():
    suppressed = """\
    # repro: noqa - generated fixture file
    def prog(comm, cache={}):
        if comm.rank == 0:
            comm.barrier()
    """
    assert hits(suppressed) == []


def test_repro_noqa_below_header_window_does_not_suppress():
    buggy = "\n" * 6 + textwrap.dedent(
        """
        # repro: noqa - too late, not in the header
        def prog(comm, cache={}):
            pass
        """
    )
    assert [(f.code, f.line) for f in analyze_source(buggy)] == [
        ("SPMD004", 9)
    ]


def test_syntax_error_becomes_finding():
    assert [code for code, _ in hits("def broken(:")] == ["SPMD000"]


def test_json_format_round_trips():
    findings = lint(
        """
        def prog(comm):
            data = comm.recv(source=0)
            data.append(1)
        """
    )
    decoded = json.loads(format_json(findings))
    assert decoded["new"][0]["code"] == "SPMD003"
    assert decoded["new"][0]["line"] == findings[0].line


def test_text_format_mentions_hint_and_count():
    findings = lint("def f(x=[]):\n    pass\n")
    text = format_text(findings)
    assert "SPMD004" in text and "hint:" in text and "1 new finding(s)" in text


def test_package_tree_is_lint_clean():
    """Acceptance criterion: the shipped package has zero findings, with no
    baseline applied."""
    package_dir = Path(repro.__file__).resolve().parent
    findings = analyze_paths([package_dir])
    assert findings == [], "\n".join(f.format() for f in findings)
