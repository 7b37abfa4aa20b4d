"""SocketFabric: PEs as worker processes behind a real TCP transport.

The fourth fabric kind. Workers are the same OS processes (and the
same :class:`~repro.fabric.controller.WorkerCore` execution engine) as
:class:`~repro.fabric.process.ProcessFabric`, but every byte between
them travels over real 127.0.0.1 TCP connections speaking the framed
protocol of :mod:`repro.fabric.wire` — the closest this reproduction
gets to the paper's MESSENGERS daemons exchanging messengers over
Ethernet. Robustness is the core of the design:

**Failure detection.** Every worker streams heartbeat frames to the
controller; a per-worker phi-accrual detector turns inter-arrival
statistics into a suspicion score (``phi ~ -log10 P(alive)``), so a
SIGKILLed or wedged worker is *detected by heartbeat loss* rather than
trusted process handles. Connection EOF counts as heartbeat loss.

**Generations.** Each (host, respawn) pair has a connection-generation
number carried in every frame header. The controller bumps it before
respawning, and both sides drop frames from stale generations — a
zombie socket of a replaced worker cannot deliver.

**Reconnection.** Workers connect (and reconnect) with jittered
exponential backoff (:meth:`RecoveryPolicy.jittered_delays`), so peers
that fail together do not retry in lockstep.

**Backpressure.** Flow control is credit-based: a sender may have at
most ``window`` unacknowledged continuation *hops* toward any one
receiver, and a receiver returns one credit each time a hop leaves
its mailbox. A slow PE therefore *blocks its upstream sender* instead
of growing an unbounded queue — observable as a bounded
``inbox_hwm`` in the per-worker ``transport`` trace events
(:meth:`~repro.fabric.trace.TraceLog.mailbox_hwm`).

**Zero-copy payloads.** Every pickled frame body goes through
:mod:`repro.fabric.payload`: matrix blocks ship as out-of-band buffer
segments of a multi-buffer frame (scatter/gather send, ``recv_into``
receive), so a hop never copies its blocks into a contiguous blob on
either side.

**Hop coalescing.** Hops toward the same destination that are emitted
back-to-back (a burst of ready carriers) batch into one RUN frame, up
to ``coalesce`` hops per frame, under the same credit window — one
credit per hop, so the receiver mailbox bound is unchanged. A batch is
flushed when it reaches ``coalesce`` hops, when the sender's credit
window is exhausted, when ``coalesce_delay_s`` elapses with hops
pending, or when the worker goes idle (the barrier flush: a worker
never blocks on its inbox with hops still buffered, so coalescing can
delay a frame only while the sender is busy producing more). In
resilient mode the controller's :class:`~repro.fabric.controller.
CreditGate` does the batching; the journal stays per-hop, so replay
after a crash re-coalesces deterministically.

**Deadlines.** With ``hop_deadline_s`` set, every continuation frame
carries an absolute deadline in its header; receivers count late
arrivals per hop (soft deadlines: the frame is still delivered),
surfaced via :meth:`~repro.fabric.trace.TraceLog.deadline_misses`.

**Recovery.** In resilient mode (a fault plan, ``supervise=True`` or
``checkpoint_every``), hops route through the shared controller loop
(:class:`~repro.fabric.controller.Controller`), which journals them
per destination, takes quiescent per-host checkpoints, and — on
heartbeat loss — has this fabric replace the worker, restores its last
checkpoint, and replays the journal. Detection, fencing and the
replacement are one :class:`WorkerSet`, the controller end the job
service's pool is built on too: the lost worker's generation is
retired (a bump, its connection closed, a still-running worker
``SIGKILL``\\ ed and reaped at once), then a fork from the same setup
image says hello in the next one. ``(messenger id, hop count)`` dedup
in the worker makes the at-least-once replay exactly-once.
``FaultPlan`` message faults act on the frames the controller forwards
(really dropped, duplicated, delayed) and crashes are real
``SIGKILL``\\ s. Drops with recovery disabled are casualties, reported
in the :class:`~repro.errors.DeadlockError` like ThreadFabric's.

Plain mode (no plan, no supervision) skips the controller detour:
workers learn each other's addresses at start-up and ship hops
peer-to-peer, with the same credit-based flow control per connection.
It is the same loop over the same link. Peer connections are not
ordered against the controller's, and need not be: a worker is forked
with its setup (programs, loads, initial signals) and applies it
before it reads a frame, so no peer's hop can overtake a setup frame —
there is none.

**Lifetime.** A run owns what it starts. Bring-up binds the listener,
forks *every* worker and only then starts its first thread (the
:class:`~repro.fabric.wire.Acceptor`), so the initial forks never copy
a multi-threaded parent; teardown stops the workers, ends the accept
thread, reaps the processes and joins the per-connection readers, so
when ``run()`` returns — or raises — no thread of it is alive and
nothing but the caller references the fabric.

This module is the fabric's side of that loop — the
:class:`~repro.fabric.controller.Link` verbs on
:class:`SocketFabric` — plus both ends of a supervised worker that the
job service's pool shares: :class:`WorkerSession` in the worker
process, :class:`WorkerSet` in the controller.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import queue
import threading
import time
from collections import defaultdict

from ..errors import FabricError
from . import payload as payload_mod
from .controller import (ControllerFabric, WorkerCore, exit_cause,
                         reap_workers)
from .wire import (FRAME_CMD, FRAME_CREDIT, FRAME_HEARTBEAT, FRAME_HELLO,
                   FRAME_REPORT, FRAME_RUN, Acceptor, FrameSocket, WireError,
                   connect_with_backoff, frame_nbytes, load_obj, send_obj,
                   send_or_drop)

__all__ = ["SocketFabric", "PhiAccrualDetector", "WorkerSession",
           "WorkerSet"]

_POLL_S = 0.05          # the controller's wait for the next report
_PHI_THRESHOLD = 12.0   # the suspicion at which a silent worker is lost
_HELLO_TIMEOUT_S = 20.0  # a forked worker's time to dial in, say hello


class PhiAccrualDetector:
    """Suspicion score over heartbeat inter-arrival times.

    Exponential model: with mean inter-arrival ``m``, the probability
    that a live peer stays silent for ``t`` seconds is ``exp(-t/m)``,
    so ``phi = t / (m ln 10)`` is ``-log10`` of that probability —
    phi 1 means "90% dead", phi 8 "dead to 8 nines". The mean is an
    EWMA so the detector adapts to a slower observed cadence; it never
    drops below the configured one — beats cannot be *sent* faster, so
    shorter intervals only mean the reader caught up on a backlog, and
    learning from that burst would make the next ordinary gap look
    fatal.
    """

    __slots__ = ("mean", "last", "floor")

    def __init__(self, now: float, expected: float):
        self.floor = self.mean = max(expected, 1e-3)
        self.last = now

    def beat(self, now: float) -> None:
        interval = now - self.last
        self.last = now
        self.mean = max(0.8 * self.mean + 0.2 * interval, self.floor)

    def phi(self, now: float) -> float:
        return (now - self.last) / (self.mean * math.log(10.0))


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

class WorkerSession:
    """The worker end of a control connection.

    Dials the controller with jittered backoff and says ``hello``.
    Entered as a context manager around the worker's main loop, it
    runs the two threads every socket worker needs — a reader that
    hands each decoded CMD frame to ``on_cmd(cmd, frame)`` (default:
    queue it on :attr:`inbox`) and queues ``("eof",)`` when the
    controller goes away, and a heartbeat — then forwards an exception
    escaping the loop as ``error_report(text)`` and closes the
    connection.
    """

    def __init__(self, ctl_addr, gen, hello, heartbeat_s, backoff_seed,
                 error_report, on_cmd=None):
        self.gen = gen
        self.inbox: queue.Queue = queue.Queue()
        self.error_report = error_report
        self._on_cmd = on_cmd or (lambda cmd, frame: self.inbox.put(cmd))
        self._heartbeat_s = heartbeat_s
        self._stop = threading.Event()
        self.ctl = FrameSocket(connect_with_backoff(ctl_addr, backoff_seed))
        send_obj(self.ctl, FRAME_HELLO, hello, gen=gen)

    def report(self, msg) -> int:
        """Send one report to the controller; returns its wire size."""
        return send_obj(self.ctl, FRAME_REPORT, msg, gen=self.gen)

    def _read(self) -> None:
        while True:
            try:
                frame = self.ctl.recv()
            except WireError:
                self.inbox.put(("eof",))
                return
            if frame.kind == FRAME_CMD:
                self._on_cmd(load_obj(frame), frame)

    def _beat(self) -> None:
        while not self._stop.wait(self._heartbeat_s):
            try:
                self.ctl.send(FRAME_HEARTBEAT, b"", gen=self.gen)
            except WireError:
                return

    def __enter__(self):
        threading.Thread(target=self._read, daemon=True).start()
        threading.Thread(target=self._beat, daemon=True).start()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            try:
                self.report(self.error_report(
                    f"{exc_type.__name__}: {exc}"))
            except WireError:  # pragma: no cover - controller also gone
                pass
        self._stop.set()
        self.ctl.close()
        # a forwarded failure ends the worker quietly; interrupts and
        # exits keep propagating
        return isinstance(exc, Exception)


def _sock_worker(host, coords, host_of, ctl_addr, resilient, tracing,
                 window, heartbeat_s, hop_deadline_s, backoff_seed,
                 coalesce, coalesce_delay_s, setup, *, gen):
    """One host process: a :class:`WorkerCore` behind TCP.

    ``setup`` (programs, loads, initial signals) came with the fork and
    is applied once the hello is out, before the first command is read.
    Controller commands arrive as CMD frames on the controller
    connection; peer continuations (plain mode) as RUN frames on
    accepted peer connections, each frame carrying a *batch* of one or
    more hops. Every hop arrival is paid back with one credit when it
    leaves the mailbox.
    """
    stats = {"inbox_hwm": 0, "window": window, "frames_in": 0,
             "bytes_in": 0, "frames_out": 0, "bytes_out": 0,
             "hops_out": 0, "max_batch": 0,
             "late": 0, "credit_waits": 0}
    peers_ready = threading.Event()
    depth_lock = threading.Lock()
    depth = [0]
    hop_log: list = []

    peer_listener = None
    my_addr = None
    peer_table: dict = {}     # host -> (ip, port), from the controller
    credit_back: dict = {}    # src host -> inbound FrameSocket
    peers_out: dict = {}      # dst host -> (FrameSocket, credit semaphore)

    if not resilient:
        peer_listener = Acceptor(("127.0.0.1", 0), 16)
        my_addr = peer_listener.addr

    def enqueue(frame, tasks, wrap) -> None:
        """Count one inbound hop frame, then give each of its hops its
        own mailbox entry so each pays its own credit back on dequeue."""
        stats["frames_in"] += 1
        stats["bytes_in"] += frame_nbytes(frame.payload, frame.buffers)
        if frame.deadline and time.time() > frame.deadline:
            stats["late"] += len(tasks)  # every hop in a late frame is late
        for task in tasks:
            with depth_lock:
                depth[0] += 1
                if depth[0] > stats["inbox_hwm"]:
                    stats["inbox_hwm"] = depth[0]
            inbox.put(wrap(task))

    def took_from_mailbox() -> None:
        with depth_lock:
            depth[0] -= 1

    def on_cmd(cmd, frame):
        op = cmd[0]
        if op == "run" or op == "runs":
            enqueue(frame, [cmd[1]] if op == "run" else cmd[1],
                    lambda task: ("crun", ("run", task)))
        elif op == "peers":
            # applied here, not in the main loop: a peer's first RUN
            # frame can arrive while the main loop is busy, and its
            # onward hop must not find an empty routing table
            peer_table.update(cmd[1])
            peers_ready.set()
        else:
            inbox.put(("cmd", cmd))

    session = WorkerSession(
        ctl_addr, gen, ("hello", host, my_addr), heartbeat_s, backoff_seed,
        lambda text: ("error", host, text), on_cmd)
    inbox = session.inbox

    def peer_reader(fs: FrameSocket):
        src = None
        while True:
            try:
                frame = fs.recv()
            except WireError:
                return
            if frame.kind == FRAME_HELLO:
                src = load_obj(frame)[1]
                credit_back[src] = fs
            elif frame.kind == FRAME_RUN:
                enqueue(frame, load_obj(frame),
                        lambda task: ("prun", task, src))

    def out_reader(fs: FrameSocket, credits: threading.Semaphore):
        while True:
            try:
                frame = fs.recv()
            except WireError:
                return
            if frame.kind == FRAME_CREDIT:
                credits.release()

    if peer_listener is not None:
        peer_listener.start(peer_reader, f"peer-accept{host}")

    def get_peer(dst):
        entry = peers_out.get(dst)
        if entry is None:
            if not peers_ready.wait(timeout=20.0):
                raise WireError(f"host {host}: no peer table within 20s")
            fs = FrameSocket(
                connect_with_backoff(peer_table[dst], backoff_seed))
            send_obj(fs, FRAME_HELLO, ("hello", host, None), gen=gen)
            credits = threading.Semaphore(window)
            threading.Thread(target=out_reader, args=(fs, credits),
                             daemon=True).start()
            entry = peers_out[dst] = (fs, credits)
        return entry

    def emit_report(msg):
        if msg[0] == "vars":
            session.report(("stats", host, dict(stats)))
            if hop_log:
                session.report(("hoplog", host, hop_log))
        # a reply over the wire's bounds fails the run, naming itself
        n = send_or_drop(session.ctl, FRAME_REPORT, msg, host,
                         gen=session.gen)
        if msg[0] == "hop":
            stats["frames_out"] += 1
            stats["bytes_out"] += n
            stats["hops_out"] += 1

    # -- plain-mode hop coalescing ------------------------------------
    # dst -> buffered task payloads whose credits are already held; a
    # nonzero flush_due[0] is the monotonic deadline of the oldest one
    pending_hops: dict = defaultdict(list)
    flush_due = [0.0]

    def flush_hops(only=None) -> None:
        targets = (only,) if only is not None else tuple(pending_hops)
        for dst in targets:
            batch = pending_hops.get(dst)
            if not batch:
                continue
            pending_hops[dst] = []
            fs, _credits = peers_out[dst]
            deadline = (time.time() + hop_deadline_s
                        if hop_deadline_s else 0.0)
            n = send_obj(fs, FRAME_RUN, batch, gen=gen, deadline=deadline)
            stats["frames_out"] += 1
            stats["bytes_out"] += n
            if len(batch) > stats["max_batch"]:
                stats["max_batch"] = len(batch)
        if not any(pending_hops.values()):
            flush_due[0] = 0.0

    def emit_hop(dst, task):
        if resilient:
            emit_report(("hop", host, dst, task))
            return
        _fs, credits = get_peer(dst)
        if not credits.acquire(blocking=False):
            # window exhausted: ship everything buffered, then block
            # until the receiver hands a credit back (this IS the
            # backpressure — and the credit-exhaustion flush)
            flush_hops()
            stats["credit_waits"] += 1
            if not credits.acquire(timeout=60.0):
                raise WireError(
                    f"host {host}: no credit from host {dst} in 60s")
        batch = pending_hops[dst]
        batch.append(task)
        stats["hops_out"] += 1
        if tracing:
            hop_log.append((host, dst,
                            payload_mod.encoded_nbytes(task), task[0]))
        if len(batch) >= coalesce:
            flush_hops(dst)
        elif flush_due[0] == 0.0 and coalesce_delay_s:
            flush_due[0] = time.monotonic() + coalesce_delay_s

    core = WorkerCore(host, coords, host_of, emit_hop, emit_report,
                      dedup=resilient)
    try:
        with session:
            core.seed(setup)
            while True:
                if core.ready:
                    core.step()
                    if flush_due[0] and time.monotonic() >= flush_due[0]:
                        flush_hops()  # deadline flush: sender is busy but
                        #               the batch has waited long enough
                    continue
                flush_hops()  # barrier flush: never block with hops buffered
                item = inbox.get()
                tag = item[0]
                if tag == "cmd":
                    if core.handle(item[1]) == "stop":
                        break
                elif tag == "crun":
                    took_from_mailbox()
                    session.report(("credit", host))
                    core.handle(item[1])
                elif tag == "prun":
                    took_from_mailbox()
                    back = credit_back.get(item[2])
                    if back is not None:
                        try:
                            back.send(FRAME_CREDIT, b"", gen=gen)
                        except WireError:  # pragma: no cover - peer gone
                            pass
                    core.handle(("run", item[1]))
                elif tag == "eof":
                    break  # controller went away; nothing left to serve
    finally:
        if peer_listener is not None:
            peer_listener.close()
        for fs, _credits in peers_out.values():
            fs.close()
        for fs in credit_back.values():
            fs.close()


# ----------------------------------------------------------------------
# Controller side: the supervised worker set, and the link
# ----------------------------------------------------------------------

class _Slot:
    """One supervised worker: its generation and, while that generation
    lives, its process, connection, detector and hello event."""

    __slots__ = ("gen", "proc", "conn", "detector", "hello")

    def __init__(self):
        self.gen = 0
        self.proc = self.conn = self.detector = self.hello = None


class WorkerSet:
    """The controller end of supervised TCP workers, one slot per key
    (a fabric's host, the pool's worker id): fork, hello, generation
    fence, heartbeat suspicion, retirement, teardown.

    What to do about a lost worker stays with the caller; this only
    detects it (:meth:`suspects`, ``on_gone``) and ends its generation
    (:meth:`retire`). ``lock`` guards the slots, and a caller may hold
    it over its own tables of the same keys.
    """

    def __init__(self, heartbeat_s: float):
        self.heartbeat_s = heartbeat_s
        self.slots: dict = {}           # key -> _Slot
        self.lock = threading.RLock()
        self.stale_frames = 0           # dropped stale-generation frames
        self._ctx = mp.get_context("fork")

    def fork(self, key, target, args, name, new: bool = False) -> None:
        """Start ``target(*args, gen=...)`` as ``key``'s worker in the
        slot's current generation — a ``new`` key's first, or the
        replacement of a retired one; it dials in and waits, if need
        be, in the listener's backlog. Does not block: :meth:`greet`
        waits for its hello. A replacement for a key stopped since its
        retirement is a :class:`FabricError`: nothing would stop it."""
        with self.lock:
            if new:
                self.slots[key] = _Slot()
            slot = self.slots.get(key)
            if slot is None:
                raise FabricError(f"{name}: worker {key!r} is stopped")
            slot.hello = threading.Event()
        proc = self._ctx.Process(target=target, args=args,
                                 kwargs={"gen": slot.gen}, daemon=True,
                                 name=name)
        proc.start()
        slot.proc = proc

    def greet(self, key) -> None:
        """Wait for the hello of ``key``'s current worker."""
        slot = self.slots.get(key)
        if slot is None:
            raise FabricError(f"worker {key!r} stopped before its hello")
        if not slot.hello.wait(timeout=_HELLO_TIMEOUT_S):
            raise FabricError(f"{slot.proc.name} did not say hello within "
                              f"{_HELLO_TIMEOUT_S:.0f}s")

    def serve(self, fs: FrameSocket, key, gen, on_report, on_gone) -> None:
        """Attach ``fs``, whose hello named ``key`` in generation
        ``gen``, and pump its frames: heartbeats to the slot's
        detector, each decoded report to ``on_report``; at EOF,
        ``("gone", key, gen)`` to ``on_gone``. A hello or frame of a
        generation other than the slot's is dropped and counted — a
        replaced worker's socket cannot deliver."""
        with self.lock:
            slot = self.slots.get(key)
            if slot is None or gen != slot.gen:
                self.stale_frames += 1
                fs.close()
                return
            slot.conn = fs
            detector = slot.detector = PhiAccrualDetector(
                time.monotonic(), self.heartbeat_s)
            slot.hello.set()
        while True:
            try:
                frame = fs.recv()
            except WireError:
                on_gone(("gone", key, gen))
                return
            if frame.gen != slot.gen:
                with self.lock:
                    self.stale_frames += 1
            elif frame.kind == FRAME_HEARTBEAT:
                detector.beat(time.monotonic())
            elif frame.kind == FRAME_REPORT:
                on_report(load_obj(frame))

    def send(self, key, cmd, deadline: float = 0.0) -> int:
        """Frame one command to ``key``'s worker; 0 if it is gone
        (failure handling belongs to the detector and the journal, not
        the sender). A command over the wire's bounds is a
        :class:`FabricError`."""
        with self.lock:
            slot = self.slots.get(key)
            fs, gen = (slot.conn, slot.gen) if slot else (None, 0)
        if fs is None:
            return 0
        return send_or_drop(fs, FRAME_CMD, cmd, key, gen=gen,
                            deadline=deadline)

    def attached(self) -> set:
        """The keys whose current worker has said hello."""
        with self.lock:
            return {key for key, slot in self.slots.items()
                    if slot.conn is not None}

    def suspects(self) -> list:
        """``(key, gen)`` of every attached worker silent past the phi
        threshold."""
        now = time.monotonic()
        with self.lock:
            return [(key, slot.gen) for key, slot in self.slots.items()
                    if slot.detector is not None
                    and slot.detector.phi(now) > _PHI_THRESHOLD]

    def retire(self, key, gen=None, eof: bool = False) -> str | None:
        """End ``key``'s current generation — if it is ``gen``, when one
        is given — and return how its worker ended
        (:func:`~repro.fabric.controller.exit_cause`), or None when
        there is none to end: no worker under supervision (none has
        said hello, it is retired already, or it is being stopped).
        The generation is bumped first, so nothing the old worker still
        sends is delivered. ``eof``: its connection closed, so it is on
        its way out and gets a moment to exit; a worker still running
        after that, or condemned by heartbeat, is ``SIGKILL``\\ ed and
        reaped at once — a stopped or wedged process heeds no gentler
        signal."""
        with self.lock:
            slot = self.slots.get(key)
            if (slot is None or slot.detector is None
                    or gen not in (None, slot.gen)):
                return None
            slot.gen += 1
            conn, slot.conn, slot.detector = slot.conn, None, None
        if conn is not None:
            conn.close()
        proc = slot.proc
        if eof:
            # its socket closes a moment before it can be reaped
            proc.join(timeout=1.0)
        how = exit_cause(proc)
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        return how

    def kill(self, key) -> bool:
        """``SIGKILL`` ``key``'s worker — a real crash, for the detector
        to notice like any other; False when it is not running."""
        slot = self.slots.get(key)
        proc = slot.proc if slot is not None else None
        if proc is None or not proc.is_alive():
            return False
        proc.kill()
        return True

    def stop(self, keys, send) -> None:
        """Stop the workers of ``keys`` and forget their slots: a stop
        command each, through the owner's ``send(key, cmd)`` verb, then
        :func:`~repro.fabric.controller.reap_workers`' escalation for
        any that does not exit, then their connections closed. Also on
        exception paths, where a worker may be wedged mid-protocol:
        every process exits."""
        with self.lock:
            # out of supervision first: a worker that exits on its stop
            # command is not lost, and nothing may retire and replace it
            keys = [key for key in keys if key in self.slots]
            for key in keys:
                self.slots[key].detector = None
        for key in keys:
            send(key, ("stop",))
        with self.lock:
            slots = [self.slots.pop(key) for key in keys
                     if key in self.slots]
        reap_workers([slot.proc for slot in slots])
        for slot in slots:
            if slot.conn is not None:
                slot.conn.close()


class SocketFabric(ControllerFabric):
    """TCP executor for IR messengers (see the module docstring)."""

    kind = "socket"

    def __init__(self, topology, machine=None, timeout: float = 120.0,
                 hosts=None, faults=None, recovery=True,
                 checkpoint_every: int | None = None, max_restarts: int = 2,
                 supervise: bool | None = None, trace: bool = False,
                 window: int = 32, heartbeat_s: float = 0.025,
                 hop_deadline_s: float | None = None,
                 coalesce: int = 8, coalesce_delay_s: float = 0.0005):
        super().__init__(topology, machine, timeout, hosts, faults,
                         recovery, checkpoint_every, max_restarts,
                         supervise, trace)
        if window < 1:
            raise FabricError("flow-control window must be >= 1")
        if coalesce < 1:
            raise FabricError("coalesce batch bound must be >= 1")
        self.window = window
        self.heartbeat_s = heartbeat_s
        self.hop_deadline_s = hop_deadline_s
        self.coalesce = min(coalesce, window)
        self.coalesce_delay_s = coalesce_delay_s
        self.workers = WorkerSet(heartbeat_s)   # one slot per host
        self._peer_addrs: dict = {}             # host -> (ip, port)
        self._reports: queue.Queue | None = None    # this run's reports
        self._listener: Acceptor | None = None

    @property
    def stale_frames(self) -> int:
        """Frames (and hellos) of replaced workers dropped so far."""
        return self.workers.stale_frames

    # -- connection plumbing ------------------------------------------
    def _serve_conn(self, fs: FrameSocket) -> None:
        """Handshake one inbound connection, then pump its frames."""
        try:
            hello = fs.recv()
        except WireError:
            fs.close()
            return
        if hello.kind != FRAME_HELLO:
            fs.close()
            return
        _tag, host, peer_addr = load_obj(hello)
        if peer_addr is not None:   # plain mode, where none is replaced
            self._peer_addrs[host] = tuple(peer_addr)
        self.workers.serve(fs, host, hello.gen, self._reports.put,
                           self._reports.put)

    def _fork(self, host, new: bool = False) -> None:
        """Start ``host``'s worker with its setup."""
        self.workers.fork(host, _sock_worker, (
            host, self._coords_of(host), self._host_of,
            self._listener.addr, self.resilient, self.trace.enabled,
            self.window, self.heartbeat_s, self.hop_deadline_s,
            (self._plan.seed or 0) * 31 + host,
            self.coalesce, self.coalesce_delay_s, self._setup(host),
        ), f"sockhost{host}", new)

    def _open(self) -> None:
        hosts = range(self.n_hosts)
        # a run's own: the last run's readers queued an EOF per worker
        # ("gone" in a generation this run's workers may reuse)
        self._reports = queue.Queue()
        self._listener = Acceptor(("127.0.0.1", 0), self.n_hosts + 4)
        # fork before threads: every worker starts from a
        # single-threaded image of this process, and their hellos
        # overlap instead of each waiting out the previous fork
        for h in hosts:
            self._fork(h, new=True)
        self._listener.start(self._serve_conn, "socket-accept")
        for h in hosts:
            self.workers.greet(h)
        if not self.resilient:
            peer_table = {h: self._peer_addrs[h] for h in hosts}
            for h in hosts:
                self.send(h, ("peers", peer_table))

    def _close(self) -> None:
        """Tear the world down — also on exception paths, where a
        worker may be wedged mid-protocol: every process must exit,
        every 127.0.0.1 socket close and every thread this run started
        end, or a failed run would leak orphans into the caller's
        process table and a finished one its fabric (a parked thread
        pins ``self``: the loaded blocks, the journal, the last
        checkpoint of every host)."""
        self.workers.stop(list(self.workers.slots), self.send)
        if self._listener is not None:
            self._listener.close()
            # every peer was a child, and is reaped: each reader has
            # seen (or is about to see) its EOF
            self._listener.join_handlers()

    # -- the link verbs ------------------------------------------------
    def send(self, host, cmd) -> None:
        """Frame one command to a worker.

        A dead worker's connection may already be broken — that is not
        an error here (the heartbeat detector owns failure handling and
        the journal owns redelivery); a frame over the wire's bounds is.
        """
        deadline = 0.0
        if (self.resilient and self.hop_deadline_s
                and (cmd[0] == "run" or cmd[0] == "runs")):
            deadline = time.time() + self.hop_deadline_s
        self.workers.send(host, cmd, deadline)

    def receive(self, timeout):
        """Failure detection is heartbeat-based, and EOF counts as
        loss. Silence is judged only on an idle poll — whatever a
        dying worker managed to report is read first — and never on a
        poll this process itself overslept: after a stall on this side
        the beats sit unread in the sockets and ``now`` is ahead of
        them. A lost worker is retired on the spot, so it is fenced
        off (and, if still running, killed) before ``replace``."""
        began = time.monotonic()
        try:
            msg = self._reports.get(timeout=min(timeout, _POLL_S))
        except queue.Empty:
            if time.monotonic() - began < 4 * _POLL_S:
                for host, gen in self.workers.suspects():
                    return self._lost(host, gen, eof=False)
            return None
        op = msg[0]
        if op == "gone":
            return self._lost(msg[1], msg[2], eof=True)
        if op == "stats":
            if self.trace.enabled:
                self._note(msg[1], "transport", "transport", " ".join(
                    f"{k}={v}" for k, v in sorted(msg[2].items())))
        elif op == "hoplog":
            self._note_hops(msg[2])
        else:
            return msg
        return None

    def _lost(self, host, gen, eof):
        how = self.workers.retire(host, gen, eof)
        return None if how is None else ("lost", host, how)

    def replace(self, host) -> None:
        """Mid-run, unlike :meth:`_open`, this forks with the accept
        and reader threads alive — from the same setup image as the
        first worker, in the generation :meth:`receive` opened when it
        retired the lost one; ``restore`` and journal replay follow."""
        self._fork(host)
        self.workers.greet(host)

    def crash(self, host) -> bool:
        return self.workers.kill(host)
