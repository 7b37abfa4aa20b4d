"""ProcessFabric: PEs as OS processes, migration as pickled state.

This is the faithful end of the fabric spectrum: every PE is a real
``multiprocessing.Process`` with its own address space. Node variables
never leave their process; when an IR messenger hops, its continuation
— program name, control stack, agent environment — is pickled and
shipped through an inter-process queue, exactly the MESSENGERS
discipline ("the state of the computation is moved on each hop, the
code is not moved"). Programs are installed into every worker once at
start-up, like compiled messenger code loaded by each daemon.

Only IR messengers run here: CPython cannot pickle a live generator
frame, and the IR interpreter's explicit continuation is the honest
equivalent of MESSENGERS' compiled resumption points (see DESIGN.md).
The worker execution engine, the setup-side API and the controller
loop itself (:class:`~repro.fabric.controller.Controller`) are shared
with the TCP-transport :class:`~repro.fabric.socket.SocketFabric` —
this module is only the multiprocessing :class:`~repro.fabric.
controller.Link`: one inbound queue per worker, one shared report
queue, ``Process.is_alive()`` for liveness (checked whenever the
report queue runs dry, so a dying worker's last reports — its error,
above all — are read first), a fresh queue + fork + ``register`` to
replace a worker, ``SIGKILL`` to crash one.

Resilient mode
--------------
With a fault plan (or ``supervise=True``) the fabric runs in resilient
mode, and a worker process can be SIGKILLed mid-run and the run still
completes:

* every cross-host hop routes through the **controller** (workers stop
  writing peer queues), which journals each command per destination
  host in a :class:`~repro.resilience.recovery.ReplayLedger`;
* deliveries carry a ``(messenger id, hop count)`` key and each worker
  keeps a seen-set, so replayed deliveries are processed exactly once
  — a replayed continuation that re-emits a hop the original already
  made is discarded at the destination, while its *new* hops (ones the
  dead original never made) carry unseen keys and proceed;
* on a ``ckpt`` marker a worker replies — at task-queue quiescence, so
  no continuation is ever split by the cut — with its full state
  (node variables, event counts, parked waiters, ready tasks, seen
  keys); the controller then truncates that host's journal to the
  entries forwarded after the marker (every inter-host message passes
  through the journal, which is what makes the per-host cut globally
  consistent);
* a dead worker is respawned with a fresh queue, re-registered,
  restored from its last checkpoint, and replayed from the journal.

Losing a worker therefore loses only the work since its last
checkpoint, and that work is re-executed deterministically. Without a
checkpoint the journal reaches back to start-up and replay simply
re-runs the host's history. Crash specs name *host* indices and fire
on wall-clock time or on the global forwarded-hop count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import sys

from . import payload as payload_mod
from .controller import (ControllerFabric, WorkerCore, exit_cause,
                         reap_workers)

__all__ = ["ProcessFabric"]


def _worker(host, coords, host_of, in_queue, host_queues, report_queue,
            resilient=False, tracing=False):
    """One host process around a :class:`WorkerCore`.

    Plain mode writes peer queues directly and (when tracing) keeps a
    local hop log shipped with the collect reply — deterministic,
    unlike racing per-hop reports against the peers' completion
    reports. Resilient mode emits every hop to the controller.
    """
    hop_log: list = []  # (src, dst, nbytes, mid) per emitted hop

    def emit_hop(dst_host, payload):
        if resilient:
            report_queue.put(("hop", host, dst_host, payload))
            return
        if tracing:
            hop_log.append((host, dst_host,
                            payload_mod.encoded_nbytes(payload),
                            payload[0]))
        host_queues[dst_host].put(("run", payload))

    def emit_report(msg):
        if hop_log and msg[0] == "vars":
            report_queue.put(("hoplog", host, hop_log))
        report_queue.put(msg)

    core = WorkerCore(host, coords, host_of, emit_hop, emit_report,
                      dedup=resilient)
    try:
        while True:
            if core.ready:
                core.step()
                continue
            if core.handle(in_queue.get()) == "stop":
                return
    except BaseException as exc:  # noqa: BLE001 - forwarded to controller
        report_queue.put(("error", host, f"{type(exc).__name__}: {exc}"))
        sys.exit(1)  # exit code 0 is reserved for "took its `stop`"


class ProcessFabric(ControllerFabric):
    """Multiprocessing executor for IR messengers."""

    kind = "process"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ctx = mp.get_context("fork")
        self._reports = None
        self._queues: dict = {}     # host -> its worker's inbound queue
        self._workers: dict = {}    # host -> Process

    def _open(self) -> None:
        hosts = range(self.n_hosts)
        self._reports = self._ctx.Queue()
        # every queue exists before the first fork: plain-mode workers
        # inherit the whole table and write their peers directly
        self._queues = {h: self._ctx.Queue() for h in hosts}
        # and every fork happens before the first `put`, which starts
        # a queue feeder thread: bring-up never forks with threads alive
        for h in hosts:
            self._fork(h)
        for h in hosts:
            self._register(h)

    def _fork(self, h) -> None:
        worker = self._ctx.Process(
            target=_worker,
            args=(h, self._coords_of(h), self._host_of, self._queues[h],
                  None if self.resilient else self._queues, self._reports,
                  self.resilient, self.trace.enabled),
            daemon=True, name=f"host{h}")
        worker.start()
        self._workers[h] = worker

    def _register(self, h) -> None:
        self.send(h, ("register", list(self._programs.values())))

    def _close(self) -> None:
        for h in self._workers:
            try:
                self.send(h, ("stop",))
            except Exception:  # pragma: no cover - shutdown races
                pass
        reap_workers(self._workers.values())
        for h, q in self._queues.items():
            q.close()  # the feeder thread exits once it has flushed
            worker = self._workers.get(h)
            if worker is not None and worker.exitcode == 0:
                # it took its `stop`, so it read everything before it
                # and the feeder has nothing left to block on
                q.join_thread()
            else:
                # toward a dead worker the feeder may be wedged on a
                # full pipe nobody reads; waiting for it would hang
                q.cancel_join_thread()

    # -- the link verbs ------------------------------------------------
    def send(self, host, cmd) -> None:
        self._queues[host].put(cmd)

    def receive(self, timeout):
        try:
            msg = self._reports.get(timeout=min(timeout, 0.2))
        except queue_mod.Empty:
            for h, worker in self._workers.items():
                if not worker.is_alive():
                    return ("lost", h, exit_cause(worker))
            return None
        if msg[0] == "hoplog":
            self._note_hops(msg[2])
            return None
        return msg

    def replace(self, host) -> None:
        """Mid-run, unlike :meth:`_open`, this forks with the other
        hosts' queue feeder threads alive."""
        old = self._workers[host]
        if old.is_alive():  # pragma: no cover - defensive
            old.terminate()
        old.join(timeout=5.0)
        self._queues[host].close()
        self._queues[host].cancel_join_thread()
        self._queues[host] = self._ctx.Queue()
        self._fork(host)
        self._register(host)

    def crash(self, host) -> bool:
        worker = self._workers[host]
        if not worker.is_alive():
            return False
        os.kill(worker.pid, signal.SIGKILL)
        return True
