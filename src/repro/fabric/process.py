"""ProcessFabric: PEs as OS processes, migration as pickled state.

This is the faithful end of the fabric spectrum: every PE is a real
``multiprocessing.Process`` with its own address space. Node variables
never leave their process; when an IR messenger hops, its continuation
— program name, control stack, agent environment — is pickled and
shipped to the destination process, exactly the MESSENGERS discipline
("the state of the computation is moved on each hop, the code is not
moved"). Programs are installed into every worker once at start-up,
like compiled messenger code loaded by each daemon — and, like the
paper's DSC starting point, the data is already distributed when the
run begins: each worker is forked with its host's setup (programs,
loads, initial signals) in its image and applies it before it reads a
frame, so the wire carries only agent state, cuts and results.

Only IR messengers run here: CPython cannot pickle a live generator
frame, and the IR interpreter's explicit continuation is the honest
equivalent of MESSENGERS' compiled resumption points (see DESIGN.md).
The worker execution engine, the setup-side API and the controller
loop itself (:class:`~repro.fabric.controller.Controller`) are shared
with the TCP-transport :class:`~repro.fabric.socket.SocketFabric` —
this module is only the :class:`~repro.fabric.controller.Link` of a
process run, and it speaks the same wire: every message is one
:mod:`repro.fabric.wire` frame on a ``socket.socketpair()`` made
before the fork, so blocks travel as out-of-band buffers (scatter/
gather out, ``recv_into`` in) with no TCP, accept thread, heartbeat
or generation.

* One control pair per host; in plain mode also a full mesh of peer
  pairs, over which workers ship hops to each other directly.
* Bring-up forks every worker before it starts a thread, closes the
  worker ends in the parent, then starts one reader per host that
  decodes its reports onto the queue :meth:`ProcessFabric.receive`
  polls. A child first closes every end it does not own — so EOF and
  EPIPE are honest and a dead peer's buffer can wedge nobody — and
  reads its control and peer sockets on reader threads into one inbox,
  so two workers shipping each other large frames cannot deadlock.
* Liveness is ``Process.is_alive()``, checked whenever the reports run
  dry, so a dying worker's last reports — its error, above all — are
  read first; ``SIGKILL`` crashes one; a new pair + a fork from the same
  setup image replaces one, after its old control end is closed (which
  fences off whatever the dead worker left unread).

Resilient mode
--------------
With a fault plan (or ``supervise=True``) the fabric runs in resilient
mode, and a worker process can be SIGKILLed mid-run and the run still
completes:

* every cross-host hop routes through the **controller** (workers get
  no peer pairs), which journals each command per destination host in
  a :class:`~repro.resilience.recovery.ReplayLedger`;
* deliveries carry a ``(messenger id, hop count)`` key and each worker
  keeps a seen-set, so replayed deliveries are processed exactly once
  — a replayed continuation that re-emits a hop the original already
  made is discarded at the destination, while its *new* hops (ones the
  dead original never made) carry unseen keys and proceed;
* on a ``ckpt`` marker a worker replies — at task-queue quiescence, so
  no continuation is ever split by the cut — with its state (the node
  variables the run can write, event counts, parked waiters, ready
  tasks, seen keys); the controller then truncates that host's journal
  to the entries forwarded after the marker (every inter-host message
  passes through the journal, which is what makes the per-host cut
  globally consistent);
* a dead worker is respawned on a fresh pair from the same setup image,
  restored from its last checkpoint, and replayed from the journal.

Losing a worker therefore loses only the work since its last
checkpoint, and that work is re-executed deterministically. Without a
checkpoint the journal reaches back to the first entry continuation
and replay over the setup image simply re-runs the host's history.
With one, ``restore`` lays the cut's variables over the image (whose
other variables are still the loads, since only a ``NodeSet`` writes
one) and replaces the event counts wholesale. Crash specs name *host*
indices and fire on wall-clock time or on the global forwarded-hop
count.

The image is prepared once, in the parent, before the first fork:
every program's liveness table is solved and every load is in the form
a frame would deliver, so neither the first worker nor a replacement
solves a table or copies a load.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue
import signal
import socket
import sys
import threading

from . import payload as payload_mod
from .controller import (ControllerFabric, WorkerCore, exit_cause,
                         reap_workers)
from .wire import (FRAME_CMD, FRAME_REPORT, FRAME_RUN, FrameSocket,
                   WireError, load_obj, send_or_drop)

__all__ = ["ProcessFabric"]


class _Inbox(queue.SimpleQueue):
    """The messages of any number of sockets, in one queue: a reader
    thread per socket drains its frames as they arrive, so no sender
    ever waits on this side's main loop."""

    def read(self, fs: FrameSocket, eof=None) -> threading.Thread:
        """Start decoding ``fs`` onto this queue; at its EOF queue
        ``eof`` (unless None) and end."""
        thread = threading.Thread(target=self._pump, args=(fs, eof),
                                  daemon=True)
        thread.start()
        return thread

    def _pump(self, fs: FrameSocket, eof) -> None:
        try:
            while True:
                self.put(load_obj(fs.recv()))
        except WireError:
            if eof is not None:
                self.put(eof)


def _worker(host, coords, host_of, ctl, peers, ends, resilient, tracing,
            setup):
    """One host process around a :class:`WorkerCore`.

    ``ctl`` and ``peers`` (``{dst host: socket}``, plain mode only) are
    this host's ends of the fabric's socketpairs; every other one of
    ``ends`` the fork copied is closed first. ``setup`` — programs,
    loads, initial signals — came with the fork and is applied before
    the first frame is read. Plain mode ships hops to its peers
    directly and (when tracing) keeps a local hop log shipped with the
    collect reply — deterministic, unlike racing per-hop reports
    against the peers' completion reports. Resilient mode emits every
    hop to the controller.
    """
    for sock in ends:
        if sock is not ctl and sock not in peers.values():
            sock.close()    # close, never shut down: the parent's stay open
    inbox = _Inbox()
    ctl = FrameSocket(ctl)
    inbox.read(ctl, eof=("stop",))      # the controller is gone: stop
    peers = {dst: FrameSocket(sock) for dst, sock in peers.items()}
    for fs in peers.values():
        inbox.read(fs)
    hop_log: list = []  # (src, dst, nbytes, mid) per emitted hop

    def emit_hop(dst_host, payload):
        if resilient:
            emit_report(("hop", host, dst_host, payload))
            return
        if tracing:
            hop_log.append((host, dst_host,
                            payload_mod.encoded_nbytes(payload),
                            payload[0]))
        # a dead peer is the controller's to notice, not this sender's
        send_or_drop(peers[dst_host], FRAME_RUN, ("run", payload), host)

    def emit_report(msg):
        if hop_log and msg[0] == "vars":
            send_or_drop(ctl, FRAME_REPORT, ("hoplog", host, hop_log), host)
        send_or_drop(ctl, FRAME_REPORT, msg, host)

    core = WorkerCore(host, coords, host_of, emit_hop, emit_report,
                      dedup=resilient)
    try:
        core.seed(setup)
        while True:
            if core.ready:
                core.step()
                continue
            if core.handle(inbox.get()) == "stop":
                return
    except BaseException as exc:  # noqa: BLE001 - forwarded to controller
        send_or_drop(ctl, FRAME_REPORT,
                     ("error", host, f"{type(exc).__name__}: {exc}"), host)
        sys.exit(1)  # exit code 0 is reserved for "took its `stop`"


class ProcessFabric(ControllerFabric):
    """Multiprocessing executor for IR messengers."""

    kind = "process"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ctx = mp.get_context("fork")
        self._reports = None        # every host's reports, as read
        self._ctl: dict = {}        # host -> controller end of its pair
        self._readers: dict = {}    # host -> the thread reading that end
        self._workers: dict = {}    # host -> Process

    def _open(self) -> None:
        hosts = range(self.n_hosts)
        self._reports = _Inbox()
        pairs = [socket.socketpair() for _ in hosts]
        peers: list = [{} for _ in hosts]
        if not self.resilient:
            for a, b in itertools.combinations(hosts, 2):
                peers[a][b], peers[b][a] = socket.socketpair()
        self._ctl = {h: FrameSocket(pairs[h][0]) for h in hosts}
        theirs = [sock for h in hosts
                  for sock in (pairs[h][1], *peers[h].values())]
        try:
            # fork before threads: every worker starts from a
            # single-threaded image of this process
            for h in hosts:
                self._fork(h, pairs[h][1], peers[h], theirs)
        finally:
            for sock in theirs:
                sock.close()
        for h in hosts:
            self._readers[h] = self._reports.read(self._ctl[h])

    def _fork(self, h, ctl, peers, theirs=()) -> None:
        """Fork ``h``'s worker, with its setup, on its ends ``ctl`` and
        ``peers``; it closes the rest: the controller's ends and
        ``theirs``."""
        ends = [fs.sock for fs in self._ctl.values()] + list(theirs)
        worker = self._ctx.Process(
            target=_worker,
            args=(h, self._coords_of(h), self._host_of, ctl, peers, ends,
                  self.resilient, self.trace.enabled, self._setup(h)),
            daemon=True, name=f"host{h}")
        worker.start()
        self._workers[h] = worker

    def _close(self) -> None:
        for h in self._ctl:
            self.send(h, ("stop",))
        reap_workers(self._workers.values())
        for h, fs in self._ctl.items():
            fs.close(self._readers.get(h))   # a late send finds it closed

    # -- the link verbs ------------------------------------------------
    def send(self, host, cmd) -> None:
        send_or_drop(self._ctl[host], FRAME_CMD, cmd, host)

    def receive(self, timeout):
        try:
            msg = self._reports.get(timeout=min(timeout, 0.2))
        except queue.Empty:
            for h, worker in self._workers.items():
                if not worker.is_alive():
                    # whatever it sent before dying is read first: its
                    # reader ends at EOF, after the last of it
                    self._readers[h].join(timeout=1.0)
                    return (("lost", h, exit_cause(worker))
                            if self._reports.empty() else None)
            return None
        if msg[0] == "hoplog":
            self._note_hops(msg[2])
            return None
        return msg

    def replace(self, host) -> None:
        """Mid-run, unlike :meth:`_open`, this forks with the other
        hosts' reader threads alive. The old worker is dead: that is
        how :meth:`receive` came to report it lost. The new one starts
        from the same setup image as the first; the controller's
        ``restore`` and journal replay bring it up to date."""
        self._workers[host].join(timeout=5.0)
        # closing the old end fences off whatever the dead worker left
        self._ctl[host].close(self._readers[host])
        ours, theirs = socket.socketpair()
        self._ctl[host] = FrameSocket(ours)
        with theirs:
            self._fork(host, theirs, {})
        self._readers[host] = self._reports.read(self._ctl[host])

    def crash(self, host) -> bool:
        worker = self._workers[host]
        if not worker.is_alive():
            return False
        os.kill(worker.pid, signal.SIGKILL)
        return True
