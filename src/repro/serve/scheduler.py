"""JobRun: one job's controller over leased pool workers.

One thread per running job, driving the shared controller loop
(:class:`~repro.fabric.controller.Controller` — the same one the
process and socket fabrics run) over the pool's warm connections.
``JobRun`` is that loop's :class:`~repro.fabric.controller.Link`:

* *send* tags the command with the job id — ``(op, jid, *rest)`` —
  and hands it to :meth:`WorkerPool.send` for the leased worker;
* *receive* waits on the queue the service routes this job's reports
  into; the failure monitor's ``("respawned", wid, how)`` post — the
  pool has already forked the replacement — is the "host lost" event;
* *replace* re-sends the job header and programs (the fresh worker's
  cache is empty); the loop then restores the last committed
  checkpoint and replays the journal.

No setup crosses the wire. The ``("job", ...)`` header carries the
host's initial signals and the job's ``(program, g, seed, ab)``, and
each worker seeds its core from it before the first command
(:func:`~repro.serve.worker.seed_job`): the signals, and its own PEs'
blocks (:func:`~repro.serve.catalog.job_loads`) — on a replacement and
a resumed job too, just as a forked fabric worker seeds from its
image. So a cut carries only the variables the closure writes
(:func:`~repro.fabric.controller.written_names`), never the A and B
blocks. The daemon builds only the job's programs, entry and initial
signals (:func:`~repro.serve.catalog.job_suite`) and never generates
A or B: ``record.ok`` is Freivalds' check over the assembled ``C`` and
the check shares each worker computed from the blocks it generated,
collected with ``C`` (:func:`~repro.serve.catalog.shares_ok`).

Everything stateful is per-job — the
:class:`~repro.fabric.controller.Supervisor` (journal, quiescent
checkpoints, respawn budget) and the loop's credit gate — so
concurrent jobs are isolated: one job's SIGKILLed worker, exhausted
budget (*that job* fails; the pool replaced the process regardless),
or timeout never touches another's.

Durable daemons extend the same machinery across a *daemon* crash:
every fully-committed coordinated checkpoint reaches
:meth:`JobRun._persist_cut` as the loop's resume bundle and is saved
to the service's checkpoint store under ``cut:{jid}``: per host, the
written variables, event counts and messenger state, plus the journal
suffix past the cut. The bundle is the job's only checkpoint; the
ledger records no cuts. A restarted daemon hands the bundle back via
``bundle=`` if one was saved (a job with none runs from scratch); the
workers seed from their headers as ever, and the loop restores every
host from the bundle instead of injecting the entry. The workers'
(mid, hops) dedup makes the cross-restart replay exactly-once too.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time

from ..fabric.controller import (Controller, Link, Supervisor, mc_hint,
                                 written_names)
from ..fabric.hosts import cyclic_hosts, resolve_hosts
from ..fabric.topology import Grid2D
from ..matmul.ir2d import assemble_product
from ..resilience.recovery import RecoveryPolicy
# build_job_suite is not called here: bench/workloads/serve.py's traced
# run wraps this module's attribute of that name, so it stays importable
from .catalog import (CHECK_SHARES, build_job_suite,  # noqa: F401
                      job_suite, shares_ok)
from .jobs import JobRecord, STATE_COMPLETED, STATE_FAILED

__all__ = ["JobRun"]


class JobRun(threading.Thread, Link):
    """Drive one leased job to completion (or failure)."""

    def __init__(self, service, record: JobRecord, wids: list):
        super().__init__(name=f"jobrun-{record.jid}", daemon=True)
        self.service = service
        self.record = record
        self.wids = list(wids)          # job-local host h -> wids[h]
        self.bundle = None              # resume bundle from a prior daemon
        self.reports: queue.Queue = queue.Queue()
        self._headers: dict = {}        # host -> its ("job", ...) header
        self._programs = ()

    def post(self, msg) -> None:
        self.reports.put(msg)

    # -- lifecycle -----------------------------------------------------
    def run(self) -> None:
        record = self.record
        t0 = time.perf_counter()
        failed = False
        try:
            record.digest, record.ok = self._execute()
            record.wall_s = time.perf_counter() - t0
            record.finish(STATE_COMPLETED)
        except Exception as exc:  # noqa: BLE001 - reported per job
            failed = True
            record.wall_s = time.perf_counter() - t0
            record.finish(STATE_FAILED, f"{type(exc).__name__}: {exc}")
        finally:
            self.service.on_job_done(self, recycle=failed)

    # -- the link verbs ------------------------------------------------
    def send(self, host, cmd) -> None:
        self.service.pool.send(self.wids[host],
                               (cmd[0], self.record.jid) + cmd[1:])

    def receive(self, timeout):
        try:
            msg = self.reports.get(timeout=min(timeout, 0.1))
        except queue.Empty:
            return None
        if msg[0] == "respawned":
            return ("lost", self.wids.index(msg[1]), msg[2])
        return msg

    def replace(self, host) -> None:
        self.record.restarts += 1
        self._send_header(host)

    def _send_header(self, host) -> None:
        # One FIFO connection per worker carries header, programs and
        # runs in order, and cross-host hops all detour through the
        # controller, so no hop can overtake the header the worker
        # generates its loads from.
        pool = self.service.pool
        pool.send(self.wids[host], self._headers[host])
        pool.ship(self.wids[host], self._programs)

    # -- the run -------------------------------------------------------
    def _execute(self):
        service = self.service
        spec = self.record.spec
        jid = self.record.jid
        hosts = range(len(self.wids))

        suite = job_suite(spec.program, spec.g)
        topology = Grid2D(spec.g)
        host_of = resolve_hosts(topology, cyclic_hosts(topology, len(hosts)))
        self._programs = suite.programs
        for h in hosts:
            self._headers[h] = (
                "job", jid, h,
                [c for c in topology.coords if host_of[c] == h],
                dict(host_of),
                [s for s in suite.initial_signals if host_of[s[0]] == h],
                spec.program, spec.g, spec.seed, spec.ab)
            self._send_header(h)

        places = Controller(
            self, f"job {jid}", len(hosts), host_of, service.job_timeout_s,
            sup=Supervisor(RecoveryPolicy(), service.max_restarts),
            window=service.window, coalesce=service.coalesce,
            checkpoint_every=service.checkpoint_every,
            hint=lambda: mc_hint([(suite.entry.name, (0, 0), {})],
                                 suite.initial_signals, suite.programs,
                                 service.window),
            on_cut=self._persist_cut if service.store is not None else None,
            collect=("C", CHECK_SHARES),    # what is verified below
            cut=written_names(suite.programs),
        ).run([(f"{jid}/m0", (0, 0), suite.entry.name, {})],
              resume=self.bundle)
        for h in hosts:
            self.send(h, ("endjob",))

        # -- assemble + verify -----------------------------------------
        c = assemble_product(suite, places)
        digest = hashlib.sha256(c.tobytes()).hexdigest()
        return digest, shares_ok(c, places, spec.g, spec.seed)

    def _persist_cut(self, cid, bundle) -> None:
        """Every host committed checkpoint ``cid``: persist the resume
        bundle a restarted daemon needs to continue this job."""
        self.service.store.save(f"cut:{self.record.jid}", bundle)
