"""Admission queue: bounded FIFO with priorities and tenant fairness.

Admission control answers *at submit time* with a reason string —
the queue is depth-bounded and each tenant has an in-flight cap
(pending + running), so one chatty tenant can neither grow the daemon
without bound nor starve everyone else by flooding the queue.

Dispatch order among admitted jobs:

1. highest ``priority`` first;
2. among those, the tenant with the fewest *running* jobs (fairness:
   a backlogged tenant's tenth job does not beat another tenant's
   first);
3. within a tenant, FIFO by admission sequence.

A job whose lease width exceeds the workers currently free is skipped
— a smaller job behind it may dispatch first (backfilling), which
keeps the pool busy at the cost of strict FIFO across widths.

The queue is not thread-safe by itself; the service serializes access
under its own lock.
"""

from __future__ import annotations

from .jobs import JobRecord

__all__ = ["JobQueue"]


class JobQueue:
    def __init__(self, max_depth: int = 64, tenant_cap: int = 8):
        self.max_depth = max_depth
        self.tenant_cap = tenant_cap
        self._pending: list[JobRecord] = []

    def __len__(self) -> int:
        return len(self._pending)

    def pending_of(self, tenant: str) -> int:
        return sum(1 for r in self._pending if r.spec.tenant == tenant)

    # -- admission -----------------------------------------------------
    def admit_reason(self, record: JobRecord, running_of: dict) -> str | None:
        """Why this record may NOT be queued, or None to admit.

        ``running_of`` maps tenant -> currently running job count.
        """
        if len(self._pending) >= self.max_depth:
            return (f"queue full ({self.max_depth} job(s) pending); "
                    f"retry later")
        tenant = record.spec.tenant
        in_flight = self.pending_of(tenant) + running_of.get(tenant, 0)
        if in_flight >= self.tenant_cap:
            return (f"tenant {tenant!r} at its in-flight cap "
                    f"({self.tenant_cap})")
        return None

    def push(self, record: JobRecord) -> None:
        self._pending.append(record)

    def discard(self, record: JobRecord) -> bool:
        """Drop a pending record whose admission never became durable;
        False if it is no longer pending (cancelled at shutdown)."""
        try:
            self._pending.remove(record)
        except ValueError:
            return False
        return True

    def restore(self, records) -> None:
        """Boot-time re-admission of replayed jobs, ordered by their
        original admission sequence. Bypasses admit_reason: these jobs
        already passed admission in a previous daemon session."""
        self._pending.extend(sorted(records, key=lambda r: r.seq))

    # -- dispatch ------------------------------------------------------
    def take(self, free_workers: int, running_of: dict) -> JobRecord | None:
        """Pop the next record to dispatch, or None if nothing fits.

        A record still waiting on its write-ahead ``admitted`` ledger
        append (``durable`` False) counts toward depth and tenant caps
        but is never handed out — dispatching it could put a
        ``dispatched`` record on disk before its ``admitted``.
        """
        fits = [r for r in self._pending
                if r.durable and r.spec.workers <= free_workers]
        if not fits:
            return None
        top = max(r.spec.priority for r in fits)
        contenders = [r for r in fits if r.spec.priority == top]
        pick = min(contenders,
                   key=lambda r: (running_of.get(r.spec.tenant, 0), r.seq))
        self._pending.remove(pick)
        return pick

    def cancel_all(self) -> list[JobRecord]:
        """Drain every pending record (daemon shutdown)."""
        drained, self._pending = self._pending, []
        return drained

    def snapshot(self) -> dict:
        by_tenant: dict = {}
        for r in self._pending:
            by_tenant[r.spec.tenant] = by_tenant.get(r.spec.tenant, 0) + 1
        return {"depth": len(self._pending), "max_depth": self.max_depth,
                "tenant_cap": self.tenant_cap, "by_tenant": by_tenant}
