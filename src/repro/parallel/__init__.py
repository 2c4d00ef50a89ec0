"""Parallel control substrate: simulated MPI, BSP network, topology, perf.

This package is the reproduction's stand-in for PUMI's "Parallel Control"
component (Fig. 1 of the paper): communicators, collectives, neighbor
exchange, architecture topology, message routing, and performance counters.
"""

from ..analysis.sanitizers import (
    CollectiveMismatchError,
    DeadlockError,
    PayloadAliasError,
    SanitizerError,
)
from . import codec
from .codec import CodecError
from .detect import detect, virtual
from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    CommAbortedError,
    CommTimeoutError,
    CommWorld,
    Request,
)
from .executor import RankFailure, SpmdError, spmd
from .neighbors import dense_exchange, neighbor_exchange
from .network import Message, Network, wire_size
from .perf import GLOBAL, PerfCounters, TimerStat
from .routing import BufferedRouter, NodeRouter
from .sf import (
    BUNDLES,
    GENERIC,
    OPS,
    VALUES,
    SFComm,
    SFDatatype,
    StarForest,
)
from .topology import (
    CoreLedger,
    CoreSlot,
    MachineTopology,
    PlacedTopology,
    TopologyError,
    flat,
    single_node,
)
from .twolevel import TwoLevelComm

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BUNDLES",
    "BufferedRouter",
    "CodecError",
    "CollectiveMismatchError",
    "Comm",
    "CoreLedger",
    "CoreSlot",
    "CommAbortedError",
    "CommTimeoutError",
    "CommWorld",
    "DeadlockError",
    "GENERIC",
    "OPS",
    "PayloadAliasError",
    "SanitizerError",
    "GLOBAL",
    "MachineTopology",
    "Message",
    "Network",
    "NodeRouter",
    "PerfCounters",
    "PlacedTopology",
    "RankFailure",
    "Request",
    "SFComm",
    "SFDatatype",
    "SpmdError",
    "StarForest",
    "VALUES",
    "TimerStat",
    "TopologyError",
    "TwoLevelComm",
    "codec",
    "dense_exchange",
    "detect",
    "flat",
    "neighbor_exchange",
    "single_node",
    "spmd",
    "virtual",
    "wire_size",
]
