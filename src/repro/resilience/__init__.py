"""Resilience: deterministic fault injection, checkpointing, recovery.

The subsystem has three layers, each usable alone:

* :mod:`repro.resilience.faults` — declarative, seeded
  :class:`FaultPlan` (crash / drop / duplicate / delay / slow-node)
  with a JSON round trip, the ambient :func:`injected` context, and
  :class:`PlanRuntime`, which decides each message fault and counts
  every fault outcome in the counts of the run that saw it (no tally
  is process-wide; :func:`injected` yields the sum of its fabrics').
* :mod:`repro.resilience.checkpoint` — :class:`DiskStore`, the
  durable store of the serve daemon's cut bundles.
* :mod:`repro.resilience.recovery` — :class:`RecoveryPolicy`
  (retry/backoff) and :class:`ReplayLedger` (respawn replay).

See ``docs/resilience.md`` for the fault-plan schema, the recovery
guarantees per fabric, and the checkpoint protocol of the
process/socket controller.
"""

from .faults import (
    Crash,
    FaultPlan,
    MessageFault,
    PlanRuntime,
    SlowNode,
    ambient,
    injected,
)
from .checkpoint import DiskStore
from .recovery import RecoveryPolicy, ReplayLedger

__all__ = [
    "Crash",
    "MessageFault",
    "SlowNode",
    "FaultPlan",
    "PlanRuntime",
    "injected",
    "ambient",
    "DiskStore",
    "RecoveryPolicy",
    "ReplayLedger",
]
