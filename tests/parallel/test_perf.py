"""Unit tests for the performance counter registry."""

import threading

from repro.parallel.perf import PerfCounters


def test_counter_starts_at_zero():
    perf = PerfCounters()
    assert perf.get("nothing") == 0


def test_add_and_get():
    perf = PerfCounters()
    perf.add("msgs")
    perf.add("msgs", 4)
    assert perf.get("msgs") == 5
    assert perf.counters() == {"msgs": 5}


def test_reset_clears_everything():
    perf = PerfCounters()
    perf.add("a")
    perf.reset()
    assert perf.counters() == {}


def test_merge_combines_counters_and_timers():
    a = PerfCounters()
    b = PerfCounters()
    a.add("x", 2)
    b.add("x", 3)
    b.add("y", 1)
    a.merge(b)
    assert a.get("x") == 5
    assert a.get("y") == 1


def test_thread_safety_of_add():
    perf = PerfCounters()

    def worker():
        for _ in range(1000):
            perf.add("n")

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert perf.get("n") == 8000


def test_report_mentions_counters_and_timers():
    perf = PerfCounters()
    perf.add("alpha", 7)
    perf.add("beta", 1)
    text = perf.report()
    assert "alpha: 7" in text
    assert "beta: 1" in text
    # The registry times nothing: wall time is the tracer's spans.
    assert not hasattr(perf, "timer") and not hasattr(perf, "timers")
