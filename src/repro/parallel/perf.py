"""Performance measurement utilities (run-time and memory usage counters).

The paper (Section II-D) lists "performance measurement: run-time and memory
usage counter" among PUMI's parallel control functionalities.  This module
provides a small, thread-safe counter registry used by every other subsystem:
the simulated network counts messages and bytes here, migration counts moved
entities, and the benchmark harness reads the totals.
"""

from __future__ import annotations

import threading
from typing import Dict


class PerfCounters:
    """Thread-safe registry of named counters.

    Counters are plain integers incremented with :meth:`add` (wall time is
    the tracer's job: :mod:`repro.obs` spans time every layer).  A single
    instance may be shared by many simulated ranks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (creates it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        with self._lock:
            return dict(self._counters)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

    def merge(self, other: "PerfCounters") -> None:
        """Fold another registry's counters into this one."""
        for name, value in other.counters().items():
            self.add(name, value)

    def report(self) -> str:
        """Human-readable multi-line report of the counters."""
        return "\n".join(
            f"{name}: {value}" for name, value in sorted(self.counters().items())
        )


#: Default shared registry used when callers do not supply their own.
GLOBAL = PerfCounters()
