"""Resilience component: deterministic fault injection + checkpoint/restart.

The simulated runtime makes failures *schedulable*: a seeded
:class:`FaultPlan` names exactly which messages to drop, duplicate, delay
or corrupt and which ranks to crash at which superstep, and the
:class:`FaultInjector` executes the plan deterministically through hooks in
:class:`~repro.parallel.network.Network` and the
:func:`~repro.parallel.executor.spmd` executor.  On the recovery side,
:class:`CheckpointManager` rotates atomic, hash-validated ``repro.store/2``
checkpoints (the partition, tags, fields and ghost configuration
included), and :func:`resilient_spmd` runs a workload in checkpoint epochs,
classifying failures as injected vs. real and restarting from the newest
valid checkpoint — on the saved partition, or onto a different part count
via the store's star-forest redistribution.

The three layers compose but stand alone: inject faults without recovery
to harden an algorithm, or checkpoint without faults for plain
restartability.
"""

from ..store.format import CorruptCheckpointError
from .checkpoint import CheckpointInfo, CheckpointManager, NoCheckpointError
from .faults import (
    ENDPOINT_KINDS,
    MESSAGE_KINDS,
    CorruptedPayload,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRecord,
    FaultSpec,
    InjectedFault,
    InjectedRankFailure,
)
from .recovery import (
    RecoveryEvent,
    RecoveryExhaustedError,
    RecoveryReport,
    classify_failure,
    resilient_spmd,
)

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "CorruptCheckpointError",
    "CorruptedPayload",
    "ENDPOINT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRecord",
    "FaultSpec",
    "InjectedFault",
    "InjectedRankFailure",
    "MESSAGE_KINDS",
    "NoCheckpointError",
    "RecoveryEvent",
    "RecoveryExhaustedError",
    "RecoveryReport",
    "classify_failure",
    "resilient_spmd",
]
