"""The job model: what a tenant submits and what the daemon tracks.

A :class:`JobSpec` is the immutable submission — program, shape,
tenant, priority, lease width. A :class:`JobRecord` is the daemon's
mutable view of one accepted job as it moves through the lifecycle::

    pending ──▶ running ──▶ completed   (recovered=True if any respawn)
                      └───▶ failed      (reason says why)

Rejected submissions never get a record — admission control answers
with the reason and the daemon forgets them (a bounded rejection tally
survives for ``repro status``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..errors import AdmissionError

__all__ = ["JobSpec", "JobRecord", "JOB_STATES", "STATE_PENDING",
           "STATE_RUNNING", "STATE_COMPLETED", "STATE_FAILED"]

STATE_PENDING = "pending"
STATE_RUNNING = "running"
STATE_COMPLETED = "completed"
STATE_FAILED = "failed"
JOB_STATES = (STATE_PENDING, STATE_RUNNING, STATE_COMPLETED, STATE_FAILED)

_SPEC_FIELDS = ("program", "g", "seed", "ab", "workers", "tenant",
                "priority", "key")


@dataclass(frozen=True)
class JobSpec:
    """One submission: a (program, shape) pair plus scheduling hints.

    ``workers`` is the lease width — how many pool workers the job's
    ``g*g`` logical PEs fold onto (:func:`~repro.fabric.hosts.
    cyclic_hosts`). Higher ``priority`` dispatches sooner; ties are
    FIFO. Validation raises :class:`~repro.errors.AdmissionError` so a
    malformed submission reads as a rejection, not a server error.
    """

    program: str
    g: int = 2
    seed: int = 0
    ab: int = 4
    workers: int = 2
    tenant: str = "default"
    priority: int = 0
    key: str | None = None   # idempotency key: resubmit == same job

    def validate(self) -> "JobSpec":
        if self.g < 2:
            raise AdmissionError(f"g must be >= 2 (got {self.g})")
        if self.ab < 1:
            raise AdmissionError(f"ab must be >= 1 (got {self.ab})")
        if not 1 <= self.workers <= self.g * self.g:
            raise AdmissionError(
                f"workers must be in 1..g*g = 1..{self.g * self.g} "
                f"(got {self.workers})")
        if not self.tenant or not isinstance(self.tenant, str):
            raise AdmissionError("tenant must be a non-empty string")
        if self.key is not None and (
                not self.key or not isinstance(self.key, str)):
            raise AdmissionError(
                "idempotency key must be a non-empty string or omitted")
        return self

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SPEC_FIELDS}

    @classmethod
    def from_dict(cls, raw) -> "JobSpec":
        if not isinstance(raw, dict):
            raise AdmissionError("job spec must be a mapping")
        unknown = set(raw) - set(_SPEC_FIELDS)
        if unknown:
            raise AdmissionError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}")
        if "program" not in raw:
            raise AdmissionError("job spec needs a 'program'")
        try:
            return cls(**raw).validate()
        except TypeError as exc:  # wrong field type bubbled from init
            raise AdmissionError(f"bad job spec: {exc}") from exc


@dataclass
class JobRecord:
    """The daemon's mutable view of one accepted job."""

    jid: str
    spec: JobSpec
    seq: int                              # admission order, FIFO key
    state: str = STATE_PENDING
    reason: str = ""                      # failure reason, "" otherwise
    restarts: int = 0                     # worker respawns paid by this job
    digest: str | None = None             # sha256 of the C result bytes
    ok: bool | None = None                # catalog.shares_ok (Freivalds)
    wall_s: float | None = None
    submitted_s: float = 0.0              # monotonic, daemon-relative
    started_s: float | None = None
    finished_s: float | None = None
    resumed: bool = False                 # re-admitted by ledger replay
    durable: bool = True                  # admitted record is fsync'd; the
                                          # dispatcher skips it until then
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def recovered(self) -> bool:
        return self.state == STATE_COMPLETED and self.restarts > 0

    def finish(self, state: str, reason: str = "") -> None:
        self.state = state
        self.reason = reason
        self.done.set()

    def to_dict(self) -> dict:
        return {
            "job": self.jid,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "reason": self.reason,
            "restarts": self.restarts,
            "recovered": self.recovered,
            "resumed": self.resumed,
            "digest": self.digest,
            "ok": self.ok,
            "wall_s": self.wall_s,
        }
