"""Resilience: deterministic fault injection, checkpointing, recovery.

The subsystem has three layers, each usable alone:

* :mod:`repro.resilience.faults` — declarative, seeded
  :class:`FaultPlan` (crash / drop / duplicate / delay / slow-node)
  with a JSON round trip and the ambient :func:`injected` context.
* :mod:`repro.resilience.checkpoint` — hop-boundary messenger
  snapshots and Chandy–Lamport-style :class:`ConsistentCut` capture,
  with in-memory and on-disk stores.
* :mod:`repro.resilience.recovery` — :class:`RecoveryPolicy`
  (retry/backoff) and :class:`ReplayLedger` (respawn replay).

See ``docs/resilience.md`` for the fault-plan schema, the snapshot
protocol, and the recovery guarantees per fabric.
"""

from .faults import (
    Crash,
    FaultPlan,
    MessageFault,
    PlanRuntime,
    SlowNode,
    STATS,
    ambient,
    injected,
)
from .checkpoint import (
    CheckpointStore,
    ConsistentCut,
    DiskStore,
    MemoryStore,
    restore_cut,
    resume_from_cut,
)
from .recovery import RecoveryPolicy, ReplayLedger

__all__ = [
    "Crash",
    "MessageFault",
    "SlowNode",
    "FaultPlan",
    "PlanRuntime",
    "injected",
    "ambient",
    "STATS",
    "ConsistentCut",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "restore_cut",
    "resume_from_cut",
    "RecoveryPolicy",
    "ReplayLedger",
]
