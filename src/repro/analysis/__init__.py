"""SPMD correctness tooling: one static analyzer and the runtime sanitizers.

The paper's infrastructure leans on ``apf::verify``-style invariant checking
after every distributed operation.  This package is the analogous correctness
net for the *communication* layer of the reproduction: an interprocedural
rank-taint dataflow analyzer that knows the hazard classes of thread-based
SPMD programs (collectives under rank-divergent control flow, mismatched
collective sequences, on-node payload aliasing, stale ghost reads,
nondeterministic wire payloads, rank state leaking into shared state), and
runtime sanitizers that catch the same classes dynamically while the
simulated runtime executes.

* ``engine.py`` — ``python -m repro analyze``: the worklist summary
  fixpoint, baselines (``repro.analysis/1``), text/JSON/SARIF.
* ``program.py`` — modules, defs, classes, and import-aware call resolution.
* ``cfg.py`` / ``taint.py`` — control-flow graphs and the token lattice the
  dataflow runs over.
* ``rules.py`` — the SPMD003..SPMD006 and SPMD101..SPMD105 checks,
  evaluated in one walk per body.
* ``suppress.py`` — the ``# noqa`` policy (justified suppressions,
  ``# repro: noqa`` file opt-out, SPMD007).
* ``sanitizers.py`` — freeze proxies and sanitizer errors used by
  :mod:`repro.parallel` when sanitize mode is on.

Only the sanitizer names are re-exported here, so importing
:mod:`repro.parallel` never loads the analyzer.
"""

from .sanitizers import (
    CollectiveMismatchError,
    DeadlockError,
    FrozenDict,
    FrozenList,
    FrozenSet,
    PayloadAliasError,
    SanitizerError,
    freeze,
    sanitize_default,
)

__all__ = [
    "CollectiveMismatchError",
    "DeadlockError",
    "FrozenDict",
    "FrozenList",
    "FrozenSet",
    "PayloadAliasError",
    "SanitizerError",
    "freeze",
    "sanitize_default",
]
