"""Controller-side worker pool: spawn, lease, respawn, resize, reap.

The pool is a :class:`~repro.fabric.socket.WorkerSet` — the socket
fabric's supervised workers: fork, hello, generation fence, heartbeat
suspicion, retirement, teardown — plus what a service adds: leases,
the shipped-programs cache, ``resize`` and ``snapshot``. It does not
know what a job is beyond the opaque lease tag. Failure policy is
split in two, mirroring who owns what:

* the **pool** always replaces a dead worker (a fresh process, a
  bumped connection generation so the zombie's socket cannot deliver,
  an empty shipped-programs cache) — the pool's size is a service
  invariant, independent of any job's fate;
* the **job** leasing the worker decides, via its own
  :class:`~repro.fabric.controller.Supervisor` respawn budget, whether
  *it* recovers onto the replacement or fails.

Elasticity is the same machinery: ``resize`` grows by spawning and
shrinks by stopping idle workers (leased workers finish their job
first), mid-stream, while other jobs keep running.
"""

from __future__ import annotations

from ..errors import ServeError
from ..fabric.socket import WorkerSet
from .worker import pool_worker_main

__all__ = ["WorkerPool"]


class WorkerPool:
    def __init__(self, ctl_addr, heartbeat_s: float = 0.025):
        self.ctl_addr = ctl_addr
        self.heartbeat_s = heartbeat_s
        self.workers = WorkerSet(heartbeat_s)   # one slot per worker id
        self.lock = self.workers.lock
        self.leases: dict = {}      # wid -> the leasing jid, None if free
        self._shipped: dict = {}    # wid -> program names its worker caches
        self._next_wid = 0
        self.total_respawns = 0

    # -- spawning ------------------------------------------------------
    def spawn(self) -> int:
        """Fork one new worker slot; blocks until it says hello."""
        with self.lock:
            wid = self._next_wid
            self._next_wid += 1
            self.leases[wid] = None
        self._start(wid, new=True)
        return wid

    def _start(self, wid: int, new: bool = False) -> None:
        self.workers.fork(wid, pool_worker_main,
                          (wid, self.ctl_addr, self.heartbeat_s, wid),
                          f"poolworker{wid}", new)
        self._shipped[wid] = set()   # a fresh process has an empty registry
        self.workers.greet(wid)

    def respawn(self, wid: int, gen=None, eof: bool = False) -> str | None:
        """Replace a worker process in place (same slot, next
        generation); returns how the old one ended, or None when
        generation ``gen`` (if given) is already replaced. See
        :meth:`WorkerSet.retire <repro.fabric.socket.WorkerSet.retire>`.

        The lease tag survives — the leasing job decides separately
        whether to recover onto the replacement or fail.
        """
        how = self.workers.retire(wid, gen, eof)
        if how is not None:
            with self.lock:
                self.total_respawns += 1
            self._start(wid)
        return how

    # -- frames --------------------------------------------------------
    def send(self, wid: int, cmd) -> int:
        """Frame one command to a worker (:meth:`WorkerSet.send
        <repro.fabric.socket.WorkerSet.send>`)."""
        return self.workers.send(wid, cmd)

    def ship(self, wid: int, programs) -> None:
        """Register programs on a worker, skipping its warm cache."""
        with self.lock:
            shipped = self._shipped.get(wid)
            if shipped is None:
                return
            new = [p for p in programs if p.name not in shipped]
            shipped.update(p.name for p in new)
        if new:
            self.send(wid, ("register", new))

    # -- leasing -------------------------------------------------------
    def _free(self) -> list:
        with self.lock:
            live = self.workers.attached()
            return sorted(wid for wid, jid in self.leases.items()
                          if jid is None and wid in live)

    def free_count(self) -> int:
        return len(self._free())

    def lease(self, n: int, jid: str) -> list | None:
        with self.lock:
            free = self._free()
            if len(free) < n:
                return None
            wids = free[:n]
            for wid in wids:
                self.leases[wid] = jid
            return wids

    def release(self, wids) -> None:
        with self.lock:
            for wid in wids:
                if wid in self.leases:
                    self.leases[wid] = None

    def lease_of(self, wid: int) -> str | None:
        return self.leases.get(wid)

    # -- elasticity ----------------------------------------------------
    def resize(self, n: int) -> int:
        """Grow by spawning, shrink by retiring idle workers; returns
        the resulting pool size. Leased workers are never retired —
        a shrink below the leased count settles as leases end and
        ``resize`` is called again (the CLI reports the actual size)."""
        if n < 1:
            raise ServeError(f"pool size must be >= 1 (got {n})")
        while len(self.leases) < n:
            self.spawn()
        with self.lock:
            idle = sorted((wid for wid, jid in self.leases.items()
                           if jid is None), reverse=True)
            retire = idle[:len(self.leases) - n]
            for wid in retire:
                del self.leases[wid]
                self._shipped.pop(wid, None)
        self.workers.stop(retire, self.send)
        return len(self.leases)

    def stop_all(self) -> None:
        with self.lock:
            self.leases.clear()
            self._shipped.clear()
        self.workers.stop(list(self.workers.slots), self.send)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "size": len(self.leases),
                "free": len(self._free()),
                "leases": {wid: jid for wid, jid in self.leases.items()
                           if jid is not None},
                "respawns": self.total_respawns,
                "stale_frames": self.workers.stale_frames,
            }
