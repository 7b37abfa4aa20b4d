"""Controller-side worker pool: spawn, lease, respawn, resize, reap.

The pool owns the worker *processes* and their connections; it does
not know what a job is beyond the opaque lease tag. Failure policy is
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

import multiprocessing as mp
import os
import signal as signal_mod
import threading
import time

from ..errors import ServeError
from ..fabric.controller import exit_cause, reap_workers
from ..fabric.socket import PhiAccrualDetector
from ..fabric.wire import FRAME_CMD, WireError, send_obj, send_or_drop

__all__ = ["PoolWorker", "WorkerPool"]


class PoolWorker:
    """Book-keeping for one pool worker slot."""

    __slots__ = ("wid", "gen", "proc", "conn", "detector", "lease",
                 "shipped", "respawns")

    def __init__(self, wid: int):
        self.wid = wid
        self.gen = 0
        self.proc = None
        self.conn = None            # FrameSocket once attached
        self.detector = None        # PhiAccrualDetector once attached
        self.lease = None           # jid while leased
        self.shipped: set = set()   # program names cached in the worker
        self.respawns = 0


class WorkerPool:
    def __init__(self, ctl_addr, heartbeat_s: float = 0.025,
                 phi_threshold: float = 12.0, backoff_seed: int = 0,
                 hello_timeout_s: float = 20.0):
        self._ctx = mp.get_context("fork")
        self.ctl_addr = ctl_addr
        self.heartbeat_s = heartbeat_s
        self.phi_threshold = phi_threshold
        self.backoff_seed = backoff_seed
        self.hello_timeout_s = hello_timeout_s
        self.workers: dict[int, PoolWorker] = {}
        self.lock = threading.RLock()
        self._next_wid = 0
        self._hello_evts: dict = {}   # (wid, gen) -> Event
        self.stale_frames = 0
        self.total_respawns = 0

    # -- spawning ------------------------------------------------------
    def spawn(self) -> int:
        """Fork one new worker slot; blocks until it says hello."""
        with self.lock:
            wid = self._next_wid
            self._next_wid += 1
            w = self.workers[wid] = PoolWorker(wid)
        self._start(w)
        return wid

    def _start(self, w: PoolWorker) -> None:
        from .worker import pool_worker_main
        evt = threading.Event()
        self._hello_evts[(w.wid, w.gen)] = evt
        proc = self._ctx.Process(
            target=pool_worker_main,
            args=(w.wid, self.ctl_addr, w.gen, self.heartbeat_s,
                  self.backoff_seed * 31 + w.wid),
            daemon=True, name=f"poolworker{w.wid}",
        )
        proc.start()
        w.proc = proc
        if not evt.wait(timeout=self.hello_timeout_s):
            raise ServeError(
                f"pool worker {w.wid} did not say hello within "
                f"{self.hello_timeout_s:.0f}s")

    def attach(self, wid: int, gen: int, fs) -> bool:
        """Wire an inbound hello'd connection to its slot; False means
        the connection is stale (a replaced worker's socket)."""
        with self.lock:
            w = self.workers.get(wid)
            if w is None or gen != w.gen:
                self.stale_frames += 1
                return False
            w.conn = fs
            w.detector = PhiAccrualDetector(time.monotonic(),
                                            self.heartbeat_s)
            evt = self._hello_evts.pop((wid, gen), None)
        if evt is not None:
            evt.set()
        return True

    # -- frames --------------------------------------------------------
    def send(self, wid: int, cmd) -> int:
        """Frame one command to a worker; 0 if it is gone (failure
        handling belongs to the detector + journal, not the sender). A
        command over the wire's bounds is a :class:`FabricError`."""
        with self.lock:
            w = self.workers.get(wid)
            fs, gen = (w.conn, w.gen) if w is not None else (None, 0)
        if fs is None:
            return 0
        return send_or_drop(fs, FRAME_CMD, cmd, wid, gen=gen)

    def ship(self, wid: int, programs) -> None:
        """Register programs on a worker, skipping its warm cache."""
        with self.lock:
            w = self.workers.get(wid)
            if w is None:
                return
            new = [p for p in programs if p.name not in w.shipped]
            w.shipped.update(p.name for p in new)
        if new:
            self.send(wid, ("register", new))

    def beat(self, wid: int, gen: int) -> None:
        with self.lock:
            w = self.workers.get(wid)
            if w is None or gen != w.gen or w.detector is None:
                return
            w.detector.beat(time.monotonic())

    def current_gen(self, wid: int) -> int | None:
        with self.lock:
            w = self.workers.get(wid)
            return None if w is None else w.gen

    # -- failure handling ----------------------------------------------
    def suspects(self) -> list:
        """(wid, phi) for attached workers past the phi threshold."""
        now = time.monotonic()
        out = []
        with self.lock:
            for w in self.workers.values():
                if w.detector is None:
                    continue
                phi = w.detector.phi(now)
                if phi > self.phi_threshold:
                    out.append((w.wid, phi))
        return out

    def respawn(self, wid: int, eof: bool = False) -> str | None:
        """Replace a worker process in place (same slot, fresh gen);
        returns how the old one ended (:func:`~repro.fabric.controller.
        exit_cause`). ``eof``: its connection closed, so it is on its
        way out — worth a moment's wait for the exit code.

        The lease tag survives — the leasing job decides separately
        whether to recover onto the replacement or fail.
        """
        with self.lock:
            w = self.workers.get(wid)
            if w is None:
                return None
            w.gen += 1          # the zombie's frames are stale from here
            if w.conn is not None:
                w.conn.close()
                w.conn = None
            w.detector = None
            w.shipped.clear()   # a fresh process has an empty registry
            old = w.proc
            w.respawns += 1
            self.total_respawns += 1
        how = None
        if old is not None:
            if eof:
                old.join(timeout=1.0)
            how = exit_cause(old)
            if old.is_alive():
                old.terminate()
            reap_workers([old], grace_s=2.0)
        self._start(w)
        return how

    def kill(self, wid: int) -> bool:
        """SIGKILL a worker process (chaos injection — a *real* crash,
        detected by heartbeat loss like any other)."""
        with self.lock:
            w = self.workers.get(wid)
            proc = w.proc if w is not None else None
        if proc is None or proc.pid is None or not proc.is_alive():
            return False
        os.kill(proc.pid, signal_mod.SIGKILL)
        return True

    # -- leasing -------------------------------------------------------
    def free_count(self) -> int:
        with self.lock:
            return sum(1 for w in self.workers.values()
                       if w.lease is None and w.conn is not None)

    def lease(self, n: int, jid: str) -> list | None:
        with self.lock:
            free = sorted(w.wid for w in self.workers.values()
                          if w.lease is None and w.conn is not None)
            if len(free) < n:
                return None
            wids = free[:n]
            for wid in wids:
                self.workers[wid].lease = jid
            return wids

    def release(self, wids) -> None:
        with self.lock:
            for wid in wids:
                w = self.workers.get(wid)
                if w is not None:
                    w.lease = None

    def lease_of(self, wid: int) -> str | None:
        with self.lock:
            w = self.workers.get(wid)
            return None if w is None else w.lease

    # -- elasticity ----------------------------------------------------
    def resize(self, n: int) -> int:
        """Grow by spawning, shrink by retiring idle workers; returns
        the resulting pool size. Leased workers are never retired —
        a shrink below the leased count settles as leases end and
        ``resize`` is called again (the CLI reports the actual size)."""
        if n < 1:
            raise ServeError(f"pool size must be >= 1 (got {n})")
        while len(self.workers) < n:
            self.spawn()
        with self.lock:
            idle = sorted((w.wid for w in self.workers.values()
                           if w.lease is None),
                          reverse=True)
            excess = len(self.workers) - n
            retire = [self.workers[wid] for wid in idle[:excess]]
            for w in retire:
                del self.workers[w.wid]
        self._stop_workers(retire)
        return len(self.workers)

    def _stop_workers(self, workers) -> None:
        for w in workers:
            if w.conn is not None:
                try:
                    send_obj(w.conn, FRAME_CMD, ("stop",), gen=w.gen)
                except WireError:
                    pass
        reap_workers([w.proc for w in workers])
        for w in workers:
            if w.conn is not None:
                w.conn.close()
                w.conn = None

    def stop_all(self) -> None:
        with self.lock:
            workers = list(self.workers.values())
            self.workers.clear()
        self._stop_workers(workers)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "size": len(self.workers),
                "free": sum(1 for w in self.workers.values()
                            if w.lease is None and w.conn is not None),
                "leases": {w.wid: w.lease
                           for w in self.workers.values()
                           if w.lease is not None},
                "respawns": self.total_respawns,
                "stale_frames": self.stale_frames,
            }
