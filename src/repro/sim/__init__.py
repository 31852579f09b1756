"""GPGPU cycle simulator substrate.

This subpackage implements the trace-driven, cycle-level GPGPU simulator the
paper's evaluation rests on (Section VI, Table II): SIMT cores with in-order
warp scheduling, memory coalescing, per-core memory request queues with
intra-core merging, a fixed-latency injection-limited interconnect, a banked
DRAM model with inter-core merging and demand-over-prefetch priority, and the
per-core prefetch cache that backs both software and hardware MT-prefetching.
"""

from repro.sim.config import (
    CoreConfig,
    DramConfig,
    GpuConfig,
    InterconnectConfig,
    PrefetchCacheConfig,
    baseline_config,
)
from repro.sim.durable import atomic_write_json
from repro.sim.errors import (
    CycleLimitExceeded,
    DeadlockError,
    InvariantViolation,
    SimulationError,
    load_failure_report,
    write_failure_report,
)
from repro.sim.gpu import GpuSimulator, SimulationResult
from repro.sim.invariants import InvariantChecker, invariants_enabled_from_env
from repro.sim.stats import SimStats

__all__ = [
    "CoreConfig",
    "CycleLimitExceeded",
    "DeadlockError",
    "DramConfig",
    "GpuConfig",
    "GpuSimulator",
    "InterconnectConfig",
    "InvariantChecker",
    "InvariantViolation",
    "PrefetchCacheConfig",
    "SimStats",
    "SimulationError",
    "SimulationResult",
    "atomic_write_json",
    "baseline_config",
    "invariants_enabled_from_env",
    "load_failure_report",
    "write_failure_report",
]
