"""The serve daemon: listener, dispatcher, failure monitor, verbs.

One TCP listener serves both populations: pool workers connect with a
``("hello-worker", wid, _)`` frame and stream heartbeats + job
reports; clients connect with ``("hello-client", _, _)`` and speak a
request/response protocol of CMD frames answered by REPORT frames —
``("ok", payload)`` or ``("err", code, reason)``. Both ride the same
:mod:`repro.fabric.wire` VERSION-2 multi-buffer framing as every hop
in the system.

Threads, and what each owns:

* **accept loop** (a :class:`~repro.fabric.wire.Acceptor`) — hands
  each connection to a handler thread;
* **worker handlers** — heartbeats to the pool's detectors, job
  reports routed to the owning :class:`~repro.serve.scheduler.JobRun`,
  EOF turned into a death event;
* **client handlers** — one per connection (a blocking ``wait`` verb
  must not stall other clients);
* **dispatcher** — admission queue -> pool leases, woken by submits,
  completions, respawns and resizes;
* **monitor** — phi-accrual suspicion + EOF events -> pool respawn,
  then a ``respawned`` post to the leasing job, whose controller loop
  recovers onto the replacement (or fails the job, if its respawn
  budget is spent).

Admission control answers at submit time (see
:class:`~repro.serve.queue.JobQueue` for the bounds, and
:func:`~repro.serve.catalog.admission_verdict` for the static
protocol-deadlock gate).
"""

from __future__ import annotations

import functools
import os
import queue as queue_mod
import threading
import time

from ..errors import AdmissionError, FabricError, ServeError
from ..fabric.factory import fabric_capabilities
from ..fabric.wire import (FRAME_CMD, FRAME_HELLO, FRAME_REPORT, Acceptor,
                           FrameSocket, WireError, load_obj, send_obj)
from ..resilience.checkpoint import DiskStore
from .catalog import (DATA_VERSION, REJECT_STATUSES, admission_verdict,
                      program_names)
from .jobs import JobRecord, JobSpec, STATE_FAILED, STATE_RUNNING
from .ledger import JobLedger, LedgerReplay
from .pool import WorkerPool
from .queue import JobQueue
from .scheduler import JobRun

__all__ = ["ServeService"]

#: Capabilities the pool substrate must offer for serve mode at all,
#: plus the ones specific features lean on. The pool runs on the
#: socket transport, so this always holds — but the query keeps the
#: dependency honest and is the same check ``repro run`` uses.
_REQUIRED_CAPS = frozenset({"ir-inject", "real-transport", "serve-pool",
                            "checkpoint", "respawn"})


class ServeService:
    """A long-lived multi-tenant job service over a warm worker pool."""

    def __init__(self, pool_size: int = 4, port: int = 0,
                 window: int = 32, coalesce: int = 8,
                 heartbeat_s: float = 0.025,
                 max_depth: int = 64, tenant_cap: int = 8,
                 checkpoint_every: int | None = 8, max_restarts: int = 2,
                 job_timeout_s: float = 60.0, chaos: bool = False,
                 mc_admission: bool = True, state_dir: str | None = None):
        missing = _REQUIRED_CAPS - fabric_capabilities("socket")
        if missing:  # pragma: no cover - the table satisfies this
            raise ServeError(
                f"socket fabric lacks capabilities required by serve: "
                f"{', '.join(sorted(missing))}")
        self.pool_size = pool_size
        self.port = port
        self.window = window
        self.coalesce = min(coalesce, window)
        self.heartbeat_s = heartbeat_s
        self.checkpoint_every = checkpoint_every
        self.max_restarts = max_restarts
        self.job_timeout_s = job_timeout_s
        self.chaos = chaos
        self.mc_admission = mc_admission
        self.state_dir = state_dir

        # durable control plane (wired in start() when state_dir is set);
        # without it no cut is kept: nothing could ever read one back
        self.ledger: JobLedger | None = None
        self.store: DiskStore | None = None
        self.idem: dict[str, str] = {}   # idempotency key -> jid
        self.recovery_summary = {"terminal": 0, "requeued": 0,
                                 "resumed": 0, "stale": 0,
                                 "unclean": False, "sessions": 0}

        self.pool: WorkerPool | None = None
        self.queue = JobQueue(max_depth=max_depth, tenant_cap=tenant_cap)
        self.jobs: dict[str, JobRecord] = {}
        self.runs: dict[str, JobRun] = {}
        self.running_of: dict[str, int] = {}   # tenant -> running count
        self.rejections: dict[str, int] = {}   # reason -> count (bounded)
        self.completed = 0
        self.failed = 0

        self._lock = threading.RLock()
        self._dispatch_evt = threading.Event()
        self._deaths: queue_mod.Queue = queue_mod.Queue()
        self._stop_evt = threading.Event()
        self._stopped_evt = threading.Event()
        self._stopping = False
        self._seq = 0
        self._t0 = time.monotonic()
        self._listener: Acceptor | None = None
        self._loops: list = []          # dispatcher + monitor threads
        self.addr = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple:
        """Bind, spawn the pool, start the service threads; returns the
        daemon address. With a ``state_dir``, the ledger is replayed
        and every surviving job recovered *before* the listener binds,
        so no client can observe a half-recovered daemon."""
        if self.state_dir is not None:
            self.store = DiskStore(os.path.join(self.state_dir, "ckpt"))
            self.ledger = JobLedger(os.path.join(self.state_dir, "wal"))
            self._recover(self.ledger.open())
        self._listener = Acceptor(("127.0.0.1", self.port), 64)
        self.addr = self._listener.addr
        self._listener.start(self._serve_conn, "serve-accept")
        self.pool = WorkerPool(self.addr, heartbeat_s=self.heartbeat_s)
        try:
            for _ in range(self.pool_size):
                self.pool.spawn()
        except BaseException:
            # a half-built pool must not leak processes or the port
            self.pool.stop_all()
            self._listener.close()
            if self.ledger is not None:
                self.ledger.close(drained=False)
            raise
        self._loops = [
            threading.Thread(target=self._dispatch_loop, daemon=True,
                             name="serve-dispatch"),
            threading.Thread(target=self._monitor_loop, daemon=True,
                             name="serve-monitor")]
        for loop in self._loops:
            loop.start()
        return self.addr

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` verb (or :meth:`shutdown`)."""
        self._stopped_evt.wait()

    def _recover(self, replay: LedgerReplay) -> None:
        """Fold a ledger replay into live daemon state (boot only, no
        lock needed: nothing else runs yet). Terminal jobs become
        answerable history; the rest go back on the queue — jobs a
        previous session had dispatched are flagged ``resumed`` so
        dispatch hands them their persisted cut bundle — unless they
        were admitted under another data version: those are finished
        ``failed`` (``stale``) and never run on this daemon's data."""
        summary = self.recovery_summary
        summary["unclean"] = not replay.clean_close
        summary["sessions"] = replay.sessions
        requeue = []
        for job in sorted(replay.jobs.values(), key=lambda j: j.seq):
            spec = JobSpec.from_dict(dict(job.spec))
            record = JobRecord(jid=job.jid, spec=spec, seq=job.seq,
                               submitted_s=self._now())
            if job.key is not None:
                self.idem[job.key] = job.jid
            if job.terminal:
                record.digest = job.digest
                record.ok = job.ok
                record.wall_s = job.wall_s
                record.restarts = job.restarts
                record.finish(job.state, job.reason)
                if job.state == STATE_FAILED:
                    self.failed += 1
                else:
                    self.completed += 1
                summary["terminal"] += 1
            elif job.data_version != DATA_VERSION:
                found = (job.data_version if job.data_version is not None
                         else "1 (unstamped)")
                record.finish(
                    STATE_FAILED,
                    f"stale job data: admitted under data version "
                    f"{found}, this daemon generates version "
                    f"{DATA_VERSION}; resubmit to run it on that data")
                self.failed += 1
                self._ledger_done(record)
                summary["stale"] += 1
            else:
                record.resumed = job.state == STATE_RUNNING
                requeue.append(record)
                summary["resumed" if record.resumed else "requeued"] += 1
            self.jobs[record.jid] = record
        self.queue.restore(requeue)
        if replay.max_seq >= 0:
            self._seq = replay.max_seq + 1

    def shutdown(self, drain: bool = True,
                 preserve_pending: bool | None = None) -> dict:
        """Stop admitting, optionally drain running jobs, then reap the
        pool, close the listener, and cleanly close the ledger.

        A durable daemon (``state_dir`` set) *preserves* pending jobs
        by default instead of cancelling them — they are already in the
        ledger, so the next session re-admits them; cancelling would
        turn a routine restart into failed jobs. A non-durable daemon
        keeps the old behaviour (pending jobs fail with "cancelled at
        shutdown" — there is nowhere for them to survive).

        Only the first call tears down — and hears of it if the
        teardown raises; a later or concurrent one waits for that to
        end, outside ``_lock`` (a finishing job needs the lock to get
        through :meth:`on_job_done`), and reports nothing cancelled.
        """
        preserve = (self.state_dir is not None
                    if preserve_pending is None else preserve_pending)
        with self._lock:
            first = not self._stopping
            self._stopping = True
            if first:
                cancelled = []
                preserved = len(self.queue) if preserve else 0
                if not preserve:
                    cancelled = self.queue.cancel_all()
                    for rec in cancelled:
                        rec.finish(STATE_FAILED, "cancelled at shutdown")
                        self.failed += 1
                runs = list(self.runs.values())
        if not first:
            self._stopped_evt.wait()
            return {"cancelled": 0, "drained": 0, "preserved": 0}
        drained = 0
        try:
            if drain:
                for run in runs:
                    run.join(timeout=self.job_timeout_s + 10.0)
                    drained += 1
            self._stop_evt.set()
            self._dispatch_evt.set()
            try:
                if self.pool is not None:
                    self.pool.stop_all()
            finally:
                # whatever the pool did, the port and the ledger are
                # released and no service thread outlives the service
                if self._listener is not None:
                    self._listener.close()
                for loop in self._loops:
                    loop.join(timeout=5.0)
                if self.ledger is not None:
                    self.ledger.close(drained=drain)
        finally:
            self._stopped_evt.set()
        return {"cancelled": len(cancelled), "drained": drained,
                "preserved": preserved}

    # -- the control plane (also used in-process by tests/benchmarks) --
    def _dedup(self, spec: JobSpec) -> dict | None:
        """Under ``_lock``: the exactly-once answer for a replayed
        idempotency key, or None for a fresh submission. Key reuse with
        a *different* spec is a client bug, rejected loudly."""
        if spec.key is None or spec.key not in self.idem:
            return None
        prior = self.jobs[self.idem[spec.key]]
        if prior.spec.to_dict() != spec.to_dict():
            raise AdmissionError(
                f"idempotency key {spec.key!r} was already used with a "
                f"different spec (job {prior.jid})")
        return {"job": prior.jid, "state": prior.state, "deduped": True}

    def submit(self, raw_spec) -> dict:
        """Admit one submission or raise :class:`AdmissionError`.

        Exactly-once: a spec carrying an idempotency ``key`` the daemon
        has seen — in this session or replayed from the ledger of a
        previous one — returns the original jid instead of admitting a
        duplicate, so clients can blindly resubmit after an ambiguous
        failure.
        """
        try:
            spec = JobSpec.from_dict(raw_spec)
            with self._lock:
                deduped = self._dedup(spec)
                if deduped is not None:
                    return deduped
            if spec.program not in program_names():
                raise AdmissionError(
                    f"unknown program {spec.program!r}; runnable "
                    f"programs: {', '.join(program_names())}")
            with self._lock:
                pool_total = len(self.pool.leases)
            if spec.workers > pool_total:
                raise AdmissionError(
                    f"job wants {spec.workers} worker(s) but the pool "
                    f"has {pool_total}; resize the pool or narrow the "
                    f"lease")
            if self.mc_admission:
                verdict = admission_verdict(spec.program, spec.g,
                                            self.window)
                if verdict.status in REJECT_STATUSES:
                    # first line only: the full counterexample schedule
                    # is hundreds of steps (repro lint shows it all)
                    detail = (verdict.detail or verdict.summary()
                              ).splitlines()[0]
                    raise AdmissionError(
                        f"statically rejected: {verdict.status} — "
                        f"{detail} (run the protocol model checker "
                        f"for the full schedule)")
            with self._lock:
                if self._stopping:
                    raise AdmissionError("daemon is shutting down")
                deduped = self._dedup(spec)   # raced a same-key submit
                if deduped is not None:
                    return deduped
                record = JobRecord(jid=f"j{self._seq}", spec=spec,
                                   seq=self._seq,
                                   submitted_s=self._now())
                reason = self.queue.admit_reason(record, self.running_of)
                if reason is not None:
                    raise AdmissionError(reason)
                self._seq += 1
                self.jobs[record.jid] = record
                if spec.key is not None:
                    self.idem[spec.key] = record.jid
                # queued now so depth/tenant accounting is exact, but
                # invisible to the dispatcher until the admitted record
                # is durable — a ``dispatched`` record must never reach
                # the ledger ahead of its ``admitted``
                record.durable = self.ledger is None
                self.queue.push(record)
        except AdmissionError as exc:
            with self._lock:
                if len(self.rejections) < 64:
                    key = str(exc)
                    self.rejections[key] = self.rejections.get(key, 0) + 1
            raise
        # write-ahead: durable before the dispatcher may run the job
        # and before the client hears the jid, so a crash can neither
        # forget an acknowledged job nor replay a dispatch of an
        # unrecorded one. A failed append (and, the ledger being
        # fail-stop, every later one) refuses the submit.
        if self.ledger is not None:
            try:
                self.ledger.append({"t": "admitted", "jid": record.jid,
                                    "seq": record.seq,
                                    "spec": spec.to_dict(),
                                    "data_version": DATA_VERSION})
            except OSError as exc:
                reason = f"admission not durable: ledger write failed: {exc}"
                with self._lock:
                    if spec.key is not None:
                        self.idem.pop(spec.key, None)
                    if self.queue.discard(record):
                        record.finish(STATE_FAILED, reason)
                        self.failed += 1
                raise ServeError(reason) from exc
        with self._lock:
            record.durable = True
        self._dispatch_evt.set()
        return {"job": record.jid, "state": record.state}

    def _ledger_append(self, entry: dict) -> None:
        """Best-effort durable append for the records a crash may lose:
        a lost ``dispatched`` means the job is requeued and runs from
        scratch, and a lost ``done`` a deterministic re-run to the
        same digest. Only ``admitted`` must be durable before the
        client hears of it (see submit)."""
        if self.ledger is not None:
            try:
                self.ledger.append(entry)
            except OSError:  # pragma: no cover - disk failure path
                pass

    def status(self, jid: str | None = None) -> dict:
        if jid is not None:
            with self._lock:
                record = self.jobs.get(jid)
            if record is None:
                raise ServeError(f"unknown job {jid!r}")
            return record.to_dict()
        with self._lock:
            states: dict = {}
            for rec in self.jobs.values():
                states[rec.state] = states.get(rec.state, 0) + 1
            out = {
                "uptime_s": round(self._now(), 3),
                "pool": self.pool.snapshot(),
                "queue": self.queue.snapshot(),
                "jobs": states,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": sum(self.rejections.values()),
                "tenants_running": dict(self.running_of),
            }
            if self.state_dir is not None:
                out["durability"] = {
                    "state_dir": self.state_dir,
                    "recovered": dict(self.recovery_summary),
                    "ledger": self.ledger.stats(),
                }
            return out

    def wait_job(self, jid: str, timeout: float = 60.0) -> dict:
        with self._lock:
            record = self.jobs.get(jid)
        if record is None:
            raise ServeError(f"unknown job {jid!r}")
        record.done.wait(timeout)
        out = record.to_dict()
        if not record.done.is_set():
            out["timed_out"] = True
        return out

    def resize(self, n: int) -> int:
        size = self.pool.resize(n)
        self._dispatch_evt.set()
        return size

    def kill_worker(self, wid: int | None = None) -> int:
        """Chaos verb: SIGKILL one (preferably leased) worker."""
        if not self.chaos:
            raise ServeError("chaos verbs are disabled; start the "
                             "daemon with chaos enabled")
        with self.pool.lock:
            leases = self.pool.leases
            candidates = sorted(leases,
                                key=lambda w: (leases[w] is None, w))
            if wid is not None:
                candidates = [w for w in candidates if w == wid]
            if not candidates:
                raise ServeError(f"no such worker to kill: {wid!r}")
            target = candidates[0]
        if not self.pool.workers.kill(target):
            raise ServeError(f"worker {target} is not running")
        return target

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop_evt.is_set():
            self._dispatch_evt.wait(timeout=0.1)
            self._dispatch_evt.clear()
            while True:
                with self._lock:
                    if self._stopping:
                        break
                    record = self.queue.take(self.pool.free_count(),
                                             self.running_of)
                    if record is None:
                        break
                    wids = self.pool.lease(record.spec.workers,
                                           record.jid)
                    if wids is None:   # raced a death; requeue
                        self.queue.push(record)
                        break
                    record.state = STATE_RUNNING
                    record.started_s = self._now()
                    tenant = record.spec.tenant
                    self.running_of[tenant] = (
                        self.running_of.get(tenant, 0) + 1)
                    run = JobRun(self, record, wids)
                    self.runs[record.jid] = run
                if record.resumed:
                    # a previous daemon session had this job in flight;
                    # hand over its last fully-committed cut (None means
                    # no commit landed — the run restarts from scratch,
                    # deterministically reproducing the same digest)
                    run.bundle = self.store.try_load(f"cut:{record.jid}")
                self._ledger_append({"t": "dispatched",
                                     "jid": record.jid})
                run.start()

    def on_job_done(self, run: JobRun, recycle: bool = False) -> None:
        """Called by a finishing JobRun (both outcomes)."""
        record = run.record
        if recycle:
            # a failed job's workers may hold arbitrary mid-protocol
            # state (or be wedged executing); replace the processes
            # rather than trust ``endjob`` hygiene
            for wid in run.wids:
                try:
                    self.pool.respawn(wid)
                except FabricError:
                    pass  # slot stays dead; resize can refill it
        with self._lock:
            self.pool.release(run.wids)
            self.runs.pop(record.jid, None)
            tenant = record.spec.tenant
            left = self.running_of.get(tenant, 1) - 1
            if left > 0:
                self.running_of[tenant] = left
            else:
                self.running_of.pop(tenant, None)
            if record.state == STATE_FAILED:
                self.failed += 1
            else:
                self.completed += 1
        self._ledger_done(record)
        self._dispatch_evt.set()

    def _ledger_done(self, record: JobRecord) -> None:
        self._ledger_append({
            "t": "done", "jid": record.jid, "state": record.state,
            "reason": record.reason, "digest": record.digest,
            "ok": record.ok, "wall_s": record.wall_s,
            "restarts": record.restarts})

    # -- failure monitor -----------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop_evt.is_set():
            dead: dict = {}
            gone = None     # the worker whose connection hit EOF
            try:
                _gone, gone, gen = self._deaths.get(
                    timeout=max(self.heartbeat_s * 4, 0.05))
                dead[gone] = gen
            except queue_mod.Empty:
                pass
            for wid, gen in self.pool.workers.suspects():
                dead.setdefault(wid, gen)
            for wid, gen in dead.items():
                if self._stop_evt.is_set():
                    return
                jid = self.pool.lease_of(wid)
                try:
                    how = self.pool.respawn(wid, gen, eof=wid == gone)
                except FabricError as exc:
                    if jid is not None:
                        run = self.runs.get(jid)
                        if run is not None:
                            run.post(("error", wid, str(exc)))
                    continue
                if how is None:
                    continue   # already replaced (recycle or races)
                if jid is not None:
                    run = self.runs.get(jid)
                    if run is not None:
                        run.post(("respawned", wid, how))
                self._dispatch_evt.set()

    # -- connections ---------------------------------------------------
    def _serve_conn(self, fs: FrameSocket) -> None:
        try:
            hello = fs.recv()
        except WireError:
            fs.close()
            return
        if hello.kind != FRAME_HELLO:
            fs.close()
            return
        tag = load_obj(hello)
        if tag[0] == "hello-worker":
            self.pool.workers.serve(fs, tag[1], hello.gen,
                                    functools.partial(self._route, tag[1]),
                                    self._deaths.put)
        elif tag[0] == "hello-client":
            self._serve_client(fs)
        else:
            fs.close()

    def _route(self, wid: int, report) -> None:
        _tag, jid, msg = report
        with self._lock:
            run = self.runs.get(jid) if jid is not None else None
        if run is None:
            return   # report for a finished/failed job: drop
        if wid not in run.wids:
            return   # lease moved on; a zombie's late report
        run.post(msg)

    # -- the client protocol -------------------------------------------
    def _serve_client(self, fs: FrameSocket) -> None:
        while True:
            try:
                frame = fs.recv()
            except WireError:
                fs.close()
                return
            if frame.kind != FRAME_CMD:
                continue
            # errors travel structured — ("err", code, reason) — so the
            # client classifies by code, not by sniffing reason strings
            try:
                reply = ("ok", self._handle(load_obj(frame)))
            except AdmissionError as exc:
                reply = ("err", "admission", str(exc))
            except ServeError as exc:
                reply = ("err", "serve", str(exc))
            except Exception as exc:  # noqa: BLE001 - protocol-level
                reply = ("err", "internal", f"{type(exc).__name__}: {exc}")
            try:
                send_obj(fs, FRAME_REPORT, reply)
            except WireError:
                fs.close()
                return

    def _handle(self, req):
        if not isinstance(req, tuple) or not req:
            raise ServeError("malformed request")
        verb = req[0]
        if verb == "submit":
            return self.submit(req[1])
        if verb == "status":
            return self.status(req[1])
        if verb == "wait":
            return self.wait_job(req[1], req[2])
        if verb == "programs":
            return list(program_names())
        if verb == "resize":
            return self.resize(int(req[1]))
        if verb == "kill-worker":
            return self.kill_worker(req[1])
        if verb == "shutdown":
            return self.shutdown(drain=bool(req[1]))
        raise ServeError(f"unknown verb {verb!r}")

    def _now(self) -> float:
        return time.monotonic() - self._t0
