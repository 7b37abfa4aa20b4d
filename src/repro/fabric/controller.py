"""The controller: one driver loop over a four-verb transport link.

:class:`~repro.fabric.process.ProcessFabric` (workers behind pre-fork
socketpairs), :class:`~repro.fabric.socket.SocketFabric` (workers
behind real TCP) and the job service's
:class:`~repro.serve.scheduler.JobRun` (leased warm-pool workers) are
all *controller fabrics*: a supervisor injects IR messengers, routes
cross-host hops, journals traffic for replay, and collects the final
node variables. Like the MESSENGERS daemon, there is exactly one such
loop, and the network underneath is a detail:

:class:`Controller`
    The loop itself — injection (or resuming from a cut bundle), the
    ``known <= done`` termination wait, journal + credit-gate routing
    of forwarded hops, acting out fault verdicts, checkpoint cadence
    and commit, the recovery sequence, and the collect phase. Plain
    (unsupervised) mode is the same loop run without a
    :class:`Supervisor`.

:class:`Link`
    The loop's only view of the transport: *send* a command, *receive*
    the next event, *replace* a host's worker, *crash* a host.

:class:`ControllerFabric`
    The setup-side base class of the two fabrics — host resolution,
    fault-plan wiring, ``load``/``signal_initial``/``inject``
    collection (IR messengers only: a live generator frame cannot be
    pickled; an IR continuation can), each host's setup — handed to its
    worker in the fork image, never sent — and the thin ``run()`` that
    opens the link, drives the loop, collects the variables the
    programs write and wraps the result.

:class:`WorkerCore`
    The execution engine of one worker host: node variables, event
    tables, the ready deque, ``(messenger id, hop count)`` delivery
    dedup, and the quiescent checkpoint/restore protocol. The transport
    supplies two callbacks — ``emit_hop`` (a continuation leaves this
    host) and ``emit_report`` (a control message for the controller) —
    and feeds commands in through :meth:`~WorkerCore.handle`.

:class:`Supervisor`, :class:`CreditGate`
    The loop's bookkeeping: the per-host
    :class:`~repro.resilience.recovery.ReplayLedger`, committed
    checkpoint states and marks, the respawn budget; per-destination
    credit windows with hop coalescing.

Message faults are not decided here. Each forwarded hop asks the plan's
one :meth:`~repro.resilience.faults.PlanRuntime.verdict` — the same one
sim and thread ask — with its real source and destination host, and the
loop only acts the outcome out: it forwards an extra copy of a
duplicate, sleeps for a delay and drops a lost hop. A plan's
drop/duplicate/delay specs therefore mean the same thing over a
socketpair, over TCP, in virtual time and on threads. The two crash
outcomes the loop meets itself — a worker SIGKILLed, a worker
respawned — are counted and named by the same run's
:meth:`~repro.resilience.faults.PlanRuntime.count`.

The command vocabulary between controller and worker is shared too
(``register`` / ``load`` / ``signal0`` / ``run`` / ``runs`` / ``ckpt``
/ ``restore`` / ``collect`` / ``stop``), which is what lets the journal
and checkpoint machinery replay identically over every transport — and
so are the codec and the frame format (:mod:`repro.fabric.wire`): every
link moves its commands and reports as the same multi-buffer frames.
No setup crosses a link. Every worker applies its ``register`` /
``load`` / ``signal0`` commands itself (:meth:`WorkerCore.seed`) before
it reads a frame: a forked fabric worker from its fork image, a serve
pool worker from the job header. So every cut carries only the node
variables the run can write (:func:`written_names`).
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import defaultdict, deque

import numpy as np

from ..analysis.visitor import walk_stmts
from ..errors import (ConfigurationError, DeadlockError, FabricError,
                      MigrationError, ResilienceError)
from ..machine.presets import SUN_BLADE_100
from ..navp import ir
from ..navp.interp import Interp, code_table, live_table
from ..navp.kernels import get_kernel
from ..navp.messenger import Messenger
from ..resilience.faults import DELIVER, FaultPlan, PlanRuntime
from ..resilience.faults import ambient as ambient_faults
from ..resilience.faults import counts_of
from ..resilience.recovery import RecoveryPolicy, ReplayLedger
from . import payload as payload_mod
from .hosts import host_count, resolve_hosts
from .sim import FabricResult
from .trace import TraceLog

__all__ = [
    "Controller",
    "ControllerFabric",
    "CreditGate",
    "Link",
    "WorkerCore",
    "Supervisor",
    "freeze_task",
    "thaw_task",
    "reap_workers",
    "exit_cause",
    "written_names",
    "mc_hint",
]


def reap_workers(procs, grace_s: float = 5.0) -> None:
    """Make every worker process exit, whatever state it is in.

    Escalates politely: a shared ``grace_s`` join window (the stop
    command may still be draining), then ``terminate`` (SIGTERM), then
    ``SIGKILL`` for workers wedged past signals (e.g. blocked in a
    long credit wait). Never raises — teardown runs on exception paths
    and must not mask the error that triggered it. Used by every
    fabric/pool that forks workers, so a failed or rejected run cannot
    leave orphaned processes behind.
    """
    procs = [p for p in procs if p is not None]
    deadline = time.monotonic() + grace_s
    for p in procs:
        try:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        except (OSError, ValueError):  # pragma: no cover - already gone
            continue
    stragglers = [p for p in procs if p.is_alive()]
    for p in stragglers:
        try:
            p.terminate()
        except (OSError, ValueError):  # pragma: no cover
            pass
    for p in stragglers:
        p.join(timeout=2.0)
        if p.is_alive() and p.pid is not None:
            try:
                os.kill(p.pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - raced its exit
                pass
            p.join(timeout=2.0)


def exit_cause(proc) -> str:
    """How a lost worker's process ended, for the error message, the
    ``respawn`` trace note and a job's failure reason. Read it before
    replacing the worker: the replacement terminates a live one."""
    code = proc.exitcode
    if code is None:
        return "heartbeat timeout, still running"
    if code >= 0:
        return f"exit code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:  # pragma: no cover - a signal Python cannot name
        return f"killed by signal {-code}"


def written_names(programs) -> tuple:
    """The node variables some ``NodeSet`` of ``programs`` (an injection
    closure) can write, sorted: what a run collects and a cut carries.
    IR values are immutable — kernels return new values and ``NodeSet``
    is the only node write — so every other variable is still the
    host's setup."""
    return tuple(sorted({
        stmt.name for program in programs
        for _path, stmt in walk_stmts(program.body)
        if isinstance(stmt, ir.NodeSet)}))


def mc_hint(roots, signals, programs, window) -> str:
    """The model checker's verdict on a timed-out run, as a suffix for
    its :class:`DeadlockError`: ``roots`` ``(program name, coord,
    env)`` and ``signals`` as the run injected and seeded them, over
    the closure ``programs`` it shipped — not whatever the registry
    holds now — under the credit ``window``. ``""`` when there is
    nothing useful to say; never raises, so the hint cannot mask the
    timeout it annotates."""
    from ..analysis.protocol_mc import runtime_deadlock_hint

    hint = runtime_deadlock_hint(
        roots, signals, registry={p.name: p for p in programs},
        window=window)
    return "\n" + hint if hint else ""


# Field offsets of a worker task record (see WorkerCore.execute).
_ID, _CHILDREN, _SEQ, _AT, _INTERP, _HOPS = range(6)


def freeze_task(task: list) -> tuple:
    return (task[_ID], task[_CHILDREN], task[_SEQ], task[_AT],
            task[_INTERP].agent_snapshot(), task[_HOPS])


def thaw_task(snap) -> list:
    return [snap[0], snap[1], snap[2], tuple(snap[3]),
            Interp.from_snapshot(snap[4]), snap[5]]


def _wire_form(value):
    """``value`` as a frame would deliver it. A C-contiguous array is
    that already and stays the very object; anything else — a strided
    view above all, which kernels and cuts would otherwise meet as is —
    takes one payload-codec round trip."""
    if isinstance(value, np.ndarray) and value.flags.c_contiguous:
        return value
    return payload_mod.decode(*payload_mod.encode(value))


class WorkerCore:
    """One host's execution engine, independent of the transport.

    Executes messenger continuations against the local state of every
    logical node the host carries. A task is the list
    ``[id, children, seq, at, interp, hops]``; the hop payload is the
    same thing as a tuple (with the interpreter reduced to its
    snapshot) — positional records pickle without re-shipping invariant
    key strings on every migration.

    With ``dedup=True`` arrivals are deduplicated by
    ``(messenger id, hop count)`` so at-least-once transports (journal
    replay, duplicated frames) yield exactly-once execution, and the
    core answers ``ckpt`` / ``restore`` commands — both handled between
    tasks, so a state snapshot never splits a continuation.
    """

    __slots__ = ("host", "host_of", "node_vars", "event_counts",
                 "event_waiters", "ready", "seen", "dedup",
                 "emit_hop", "emit_report")

    def __init__(self, host, coords, host_of, emit_hop, emit_report,
                 dedup: bool = False):
        self.host = host
        self.host_of = host_of
        self.node_vars: dict = {coord: {} for coord in coords}
        self.event_counts: dict = defaultdict(int)  # (coord, name, args)
        self.event_waiters: dict = defaultdict(deque)
        self.ready: deque = deque()
        self.seen: set = set()          # delivered (mid, hops) keys
        self.dedup = dedup
        self.emit_hop = emit_hop        # (dst_host, payload) -> None
        self.emit_report = emit_report  # (msg tuple) -> None

    # -- execution -----------------------------------------------------
    def step(self) -> None:
        self.execute(self.ready.popleft())

    def execute(self, task: list) -> None:
        node_vars = self.node_vars
        interp: Interp = task[_INTERP]
        while True:
            action = interp.next_action(node_vars[task[_AT]])
            if action is None:
                self.emit_report(("done", task[_ID], task[_CHILDREN]))
                return
            kind = action[0]
            if kind == "hop":
                dst = tuple(action[1])
                if dst not in self.host_of:
                    raise MigrationError(
                        f"hop target {dst!r} is not a PE of this fabric"
                    )
                if self.host_of[dst] == self.host:
                    task[_AT] = dst    # co-hosted: a local hand-over
                    continue
                payload = (
                    task[_ID], task[_CHILDREN], task[_SEQ], dst,
                    interp.agent_snapshot(), task[_HOPS] + 1,
                )
                self.emit_hop(self.host_of[dst], payload)
                return
            if kind == "compute":
                _, kname, argvals, out, _cost_kind = action
                interp.env[out] = get_kernel(kname).fn(*argvals)
                continue
            if kind == "wait":
                key = (task[_AT], action[1], action[2])
                if self.event_counts[key] > 0:
                    self.event_counts[key] -= 1
                    continue
                self.event_waiters[key].append(task)
                return
            if kind == "signal":
                key = (task[_AT], action[1], action[2])
                remaining = action[3]
                waiters = self.event_waiters[key]
                while remaining > 0 and waiters:
                    self.ready.append(waiters.popleft())
                    remaining -= 1
                self.event_counts[key] += remaining
                continue
            if kind == "inject":
                child_id = f"{task[_ID]}/{task[_SEQ]}"
                task[_SEQ] += 1
                task[_CHILDREN].append(child_id)
                self.ready.append([child_id, [], 0, task[_AT],
                                   Interp(action[1], action[2]), 0])
                continue
            raise FabricError(f"unsupported action {action!r} on "
                              f"a distributed fabric")

    # -- command protocol ----------------------------------------------
    def seed(self, setup) -> None:
        """Apply a host's setup commands — ``register``, ``load`` and
        ``signal0`` — before its first frame. A forked fabric worker
        finds them in its image, put by :meth:`ControllerFabric.run` in
        the form a frame would deliver (liveness tables solved, strided
        loads made contiguous), so it aliases the parent's blocks copy
        on write and redoes none of that work. A serve pool worker
        seeds each job's core from the job header
        (:func:`~repro.serve.worker.seed_job`)."""
        for cmd in setup:
            self.handle(cmd)

    def _held(self, names) -> dict:
        """This host's node variables named in ``names`` (the ones each
        PE holds)."""
        return {coord: {n: here[n] for n in names if n in here}
                for coord, here in self.node_vars.items()}

    def handle(self, cmd) -> str | None:
        """Apply one controller command; returns ``"stop"`` to exit."""
        op = cmd[0]
        if op == "run":
            payload = cmd[1]
            if self.dedup:
                key = (payload[0], payload[5])
                if key in self.seen:
                    return None  # replayed delivery, already processed
                self.seen.add(key)
            self.ready.append(thaw_task(payload))
        elif op == "register":
            for program in cmd[1]:
                ir.register_program(program, replace=True)
        elif op == "load":
            self.node_vars[cmd[1]].update(cmd[2])
        elif op == "signal0":
            coord, name, args, count = cmd[1]
            self.event_counts[(coord, name, args)] += count
        elif op == "ckpt":
            # quiescent here: `ready` drained before the command was
            # read, so the cut never splits a continuation
            state = (
                self._held(cmd[2]),
                dict(self.event_counts),
                [(key, [freeze_task(t) for t in waiters])
                 for key, waiters in self.event_waiters.items() if waiters],
                [freeze_task(t) for t in self.ready],
                list(self.seen),
            )
            self.emit_report(("ckpt", self.host, cmd[1], state))
        elif op == "restore":
            vars_in, counts_in, waiters_in, ready_in, seen_in = cmd[1]
            # an overlay: a cut may carry only the variables the run
            # can write, and the rest are still this host's setup
            for coord, values in vars_in.items():
                self.node_vars[coord].update(values)
            self.event_counts.clear()
            self.event_counts.update(counts_in)
            self.event_waiters.clear()
            for key, frozen in waiters_in:
                self.event_waiters[key].extend(
                    thaw_task(s) for s in frozen)
            self.ready.extend(thaw_task(s) for s in ready_in)
            self.seen.update(seen_in)
        elif op == "collect":
            self.emit_report(("vars", self.host, self._held(cmd[1])))
        elif op == "stop":
            return "stop"
        else:  # pragma: no cover - protocol is closed
            raise FabricError(f"unknown worker command {op!r}")
        return None


class CreditGate:
    """Per-destination credit window with hop coalescing.

    At most ``window`` un-credited ``run`` deliveries may be in flight
    toward each destination; excess queues here. Whenever the window
    has room, queued hops drain up to ``coalesce`` at a time through
    one ``emit(dst, batch)`` call — the transport ships the batch as a
    *single* frame, so fine-grained algorithmic-block traffic stops
    paying per-frame header + syscall costs. One credit is still owed
    per hop (the receiver unpacks a batch into individual mailbox
    entries and pays each back separately), so the receiver-side
    mailbox bound is unchanged: never more than ``window`` queued hops.

    Coalescing is a send-time decision over queue contents, never a
    payload rewrite; the resilient controller journals hops
    individually *before* pushing them here, so a respawned worker's
    replay re-drains the same queue and re-coalesces the same frames
    deterministically.
    """

    __slots__ = ("window", "coalesce", "emit", "outstanding", "pending")

    def __init__(self, window: int, coalesce: int, emit):
        self.window = window
        self.coalesce = max(1, coalesce)
        self.emit = emit                       # (dst, [payload, ...])
        self.outstanding: dict = defaultdict(int)
        self.pending: dict = defaultdict(deque)

    def push(self, dst, payload, flush: bool = True) -> None:
        """Queue one hop payload toward ``dst`` (drains immediately
        unless ``flush=False`` — used to batch a whole replay)."""
        self.pending[dst].append(payload)
        if flush:
            self.pump(dst)

    def credit(self, dst) -> None:
        """The receiver retired one hop from its mailbox."""
        if self.outstanding[dst] > 0:
            self.outstanding[dst] -= 1
        self.pump(dst)

    def reset(self, dst) -> None:
        """Forget in-flight state for a respawned destination (every
        queued payload is already in the journal)."""
        self.outstanding[dst] = 0
        self.pending[dst].clear()

    def pump(self, dst) -> None:
        """Drain the queue in coalesced batches while credits last."""
        pend = self.pending[dst]
        out = self.outstanding
        while pend and out[dst] < self.window:
            batch = []
            while (pend and out[dst] < self.window
                   and len(batch) < self.coalesce):
                batch.append(pend.popleft())
                out[dst] += 1
            self.emit(dst, batch)


class Supervisor:
    """Resilient-controller bookkeeping, independent of the transport.

    Owns the replay journal, the last committed checkpoint state per
    host, the checkpoint marks (how much journal a committed checkpoint
    retires), and the respawn budget: every decision about *what* to
    replay and *whether* a respawn is allowed lives here, and
    :class:`Controller` — the one loop, whatever the transport — acts
    on it.
    """

    __slots__ = ("ledger", "recovery", "max_restarts", "restarts",
                 "ckpt_state", "_ckpt_marks", "_ckpt_seq", "_retired",
                 "forwards_since_ckpt")

    def __init__(self, recovery: RecoveryPolicy, max_restarts: int):
        self.ledger = ReplayLedger()
        self.recovery = recovery
        self.max_restarts = max_restarts
        self.restarts: dict = defaultdict(int)   # host -> respawn count
        self.ckpt_state: dict = {}               # host -> committed state
        self._ckpt_marks: dict = {}              # ckpt id -> {host: position}
        self._ckpt_seq = 0
        self._retired: dict = defaultdict(int)   # host -> entries truncated
        self.forwards_since_ckpt = 0

    def journal(self, host, cmd) -> None:
        self.ledger.append(host, cmd)

    def note_forward(self) -> None:
        self.forwards_since_ckpt += 1

    def begin_checkpoint(self, unsent: dict) -> int:
        """Open a coordinated checkpoint over the hosts of ``unsent``
        (``{host: journal entries not yet sent}``); returns its id. The
        caller sends the ``("ckpt", id, names)`` marker to every host."""
        self._ckpt_seq += 1
        # marks are positions in the host's whole journal, not lengths
        # of what is left of it: a cut may open before an earlier one
        # has committed (and truncated). The mark stops before the
        # journal's unsent tail — hops the credit gate still holds
        # reach the host behind the marker, so its state reply cannot
        # cover them and the commit must not retire them
        self._ckpt_marks[self._ckpt_seq] = {
            h: self._retired[h] + len(self.ledger.entries(h)) - held
            for h, held in unsent.items()}
        self.forwards_since_ckpt = 0
        return self._ckpt_seq

    def commit_checkpoint(self, host, ckpt_id, state) -> None:
        """A host answered a marker: keep its state, retire the journal
        entries the checkpoint now covers."""
        marks = self._ckpt_marks.get(ckpt_id)
        if marks is not None and host in marks:
            covered = marks.pop(host) - self._retired[host]
            if covered < 0:
                return  # older than a cut this host already committed
            self.ledger.truncate(host, covered)
            self._retired[host] += covered
        self.ckpt_state[host] = state

    def authorize_respawn(self, host, how) -> int:
        """Check policy and budget; returns the restart ordinal."""
        if not self.recovery.enabled:
            raise ResilienceError(
                f"worker {host} lost ({how}) and recovery is disabled")
        if self.restarts[host] >= self.max_restarts:
            raise ResilienceError(
                f"worker {host} lost ({how}) with its respawn budget "
                f"({self.max_restarts}) exhausted")
        self.restarts[host] += 1
        return self.restarts[host]

    def recovery_script(self, host) -> tuple:
        """``(checkpoint_state_or_None, journal_commands)`` to feed a
        freshly respawned worker, in order."""
        return self.ckpt_state.get(host), self.ledger.entries(host)


class Link:
    """The controller loop's only view of the transport: four verbs.

    Hosts are the job-local indices ``0 .. n_hosts-1``. Liveness and
    the poll interval belong to the link — ``Process.is_alive()`` on
    pre-fork socketpairs, phi-accrual heartbeats + EOF + generation
    fencing on fabric-owned sockets, the service monitor's
    ``respawned`` post on leased pool connections. A report the loop
    does not own (transport stats, hop logs) never leaves the link: it
    is consumed inside :meth:`receive`.
    """

    def send(self, host, cmd: tuple) -> None:
        """Deliver one command to ``host`` — FIFO per host, silently
        dropped toward a dead worker (the journal owns redelivery)."""
        raise NotImplementedError

    def receive(self, timeout: float):
        """Block for the next event, at most one poll interval and
        never past ``timeout``: a worker report tuple, ``("lost",
        host, how)`` once the host's worker is gone (``how`` as
        :func:`exit_cause` words it), or None for a tick."""
        raise NotImplementedError

    def replace(self, host) -> None:
        """Put a fresh worker behind ``host`` in the state that precedes
        every journaled command: its whole setup, seeded before the
        first frame — a fabric's forks from the same setup image as the
        first, a pool worker seeds from the job header again. Whatever
        the old one still sends is fenced off."""
        raise NotImplementedError

    def crash(self, host) -> bool:
        """SIGKILL ``host``'s worker for a ``Crash`` spec (fabrics
        only); False when it is already dead."""
        raise NotImplementedError


class Controller:
    """The controller loop: inject, route a hop, account for children,
    recover, collect — over any :class:`Link`.

    Termination uses parental accounting: every completion report
    names the children the messenger injected, so the run is over when
    ``known <= done`` — correct under arbitrary report reordering,
    since a parent's report both introduces and is required for its
    children.

    With a :class:`Supervisor` every command is journaled per host,
    forwarded hops pass the fault plan and the credit gate, a cut is
    taken every ``checkpoint_every`` forwards, and a lost host is
    recovered — in the run *and* the collect phase — by authorize →
    replace → restore → gate reset → journal replay → pump; the
    workers' ``(mid, hops)`` dedup makes the at-least-once replay
    exactly-once. Without one (plain mode) it is the same loop:
    nothing is journaled, workers ship hops peer to peer so none
    arrives here, and a lost host is a :class:`FabricError`.

    The loop sends no setup. Every worker — the first and each
    replacement — holds its programs, loads and initial signals before
    it reads a frame (:meth:`WorkerCore.seed`), so ``run`` only injects
    the entry messengers, or resumes from a cut bundle, and a peer's
    hop has no setup frame to overtake.

    ``collect`` names the node variables the run's caller will read,
    and ``cut`` the ones a checkpoint carries: each host answers with
    those (the ones a PE holds) and nothing else. A cut may leave out
    what no ``NodeSet`` writes (:func:`written_names`), because a
    replaced host starts from its setup again and ``restore`` lays the
    cut over it.

    ``note(place, actor, kind, text, src_place, nbytes)`` records a
    trace event; ``hint()`` is appended to a timeout message;
    ``on_cut(cid, bundle)`` receives, once every host has committed
    checkpoint ``cid``, the bundle a fresh controller can ``resume``
    from: per-host states, each host's journal suffix (the
    controller→worker channel state the cut does not cover) and
    ``known``/``done`` — consistent because reports are FIFO per
    worker, so every ``done`` a host sent before answering the marker
    is already folded in.
    """

    def __init__(self, link: Link, name: str, n_hosts: int, host_of,
                 timeout: float, *, sup: Supervisor | None = None,
                 runtime: PlanRuntime | None = None,
                 window=math.inf, coalesce: int = 1,
                 checkpoint_every: int | None = None,
                 note=None, hint=None, on_cut=None, collect, cut):
        self.link = link
        self.name = name
        self.n_hosts = n_hosts
        self.host_of = host_of
        self.timeout = timeout
        self.sup = sup
        self.runtime = runtime

        def emit(h, batch):
            link.send(h, ("run", batch[0]) if len(batch) == 1
                      else ("runs", batch))

        # `emit` closes over the link only: a bound method here would
        # tie controller and gate into a reference cycle, and the
        # journal and collected blocks they hold would outlive the run
        # until the cyclic collector got round to them
        self.gate = CreditGate(window, coalesce, emit)
        self.checkpoint_every = checkpoint_every
        self.note = note
        self.hint = hint
        self.on_cut = on_cut
        self.collect = collect          # node variables run() returns
        self.cut = cut                  # node variables a cut carries
        self.known: set = set()
        self.done: set = set()
        self.places: dict = {}
        self.lost: list = []            # casualties (drops, no recovery)
        self._collected: set = set()    # hosts whose vars are in
        self._collect_due: set = set()  # collect held behind a replay
        self._collecting = False
        self._commits: dict = {}        # ckpt id -> hosts committed

    # -- outbound ------------------------------------------------------
    def _forward(self, h, task) -> None:
        """Journal one continuation, then queue it at the gate."""
        if self.sup is not None:
            self.sup.journal(h, ("run", task))
        self.gate.push(h, task)

    def _replay(self, h, cmds, journal: bool) -> None:
        """Re-deliver journaled commands; hops re-coalesce at the gate
        exactly as they first did."""
        for cmd in cmds:
            if journal:
                self.sup.journal(h, cmd)
            if cmd[0] == "run":
                self.gate.push(h, cmd[1], flush=False)
            else:
                self.link.send(h, cmd)
        self.gate.pump(h)

    def _ask_collect(self, h) -> None:
        # a replay longer than the credit window is still draining
        # through the gate: `collect` must not overtake it
        if self.gate.pending[h]:
            self._collect_due.add(h)    # asked again as credits return
        else:
            self._collect_due.discard(h)
            self.link.send(h, ("collect", self.collect))

    # -- the run -------------------------------------------------------
    def run(self, entries, resume=None) -> dict:
        """Inject ``entries`` ``(mid, coord, program, env)``, or resume
        from a cut bundle instead, and drive to completion; returns
        ``{coord: node vars}``, the variables ``collect`` named."""
        host_of = self.host_of
        self._t0 = time.perf_counter()
        self._deadline = time.monotonic() + self.timeout
        if resume is not None:
            # restore every host to the bundled cut and re-journal +
            # replay each suffix; the cores' dedup absorbs whatever
            # the replay re-delivers
            self.known.update(resume["known"])
            self.done.update(resume["done"])
            for h, state in resume["states"].items():
                if state is not None:
                    self.sup.ckpt_state[h] = state
                    self.link.send(h, ("restore", state))
            for h, cmds in resume["journal"].items():
                self._replay(h, cmds, journal=True)
        else:
            for mid, coord, program, env in entries:
                self.known.add(mid)
                self._forward(host_of[coord], (
                    mid, [], 0, coord,
                    Interp(program, env).agent_snapshot(), 0))
        known, done = self.known, self.done
        while not known <= done:
            self._step()
        self._collecting = True
        for h in range(self.n_hosts):
            self._ask_collect(h)
        while len(self._collected) < self.n_hosts:
            self._step()
        return self.places

    def _step(self) -> None:
        """Wait for one event and act on it."""
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise self._timed_out()
        runtime = self.runtime
        if runtime is not None and runtime.pending_crashes():
            # fire due crash specs: a crash is a real SIGKILL
            for _spec, h in runtime.due_crashes(
                    time.perf_counter() - self._t0):
                if self.link.crash(h):
                    for kind, text in runtime.count("sigkill", h=h):
                        self._note(h, "fault-injector", kind, text)
        msg = self.link.receive(remaining)
        if msg is None:
            return
        op = msg[0]
        if op == "credit":
            self.gate.credit(msg[1])
            if msg[1] in self._collect_due:
                self._ask_collect(msg[1])
        elif op == "hop":
            self._route(msg[1], msg[2], msg[3])
        elif op == "done":
            # sets: a replayed messenger's repeated report is absorbed
            self.done.add(msg[1])
            self.known.update(msg[2])
        elif op == "ckpt":
            # a cut that only commits after the last `done` guards no
            # work: not worth a truncation, let alone a saved bundle
            if not self._collecting:
                self._commit(msg[1], msg[2], msg[3])
        elif op == "vars":
            self._collected.add(msg[1])
            self.places.update(msg[2])
        elif op == "lost":
            self._recover(msg[1], msg[2])
        elif op == "error":
            raise FabricError(f"worker {msg[1]} failed: {msg[2]}")
        else:  # pragma: no cover - protocol is closed
            raise FabricError(f"unknown worker report {op!r}")

    def _timed_out(self) -> DeadlockError:
        if self._collecting:
            missing = sorted(set(range(self.n_hosts)) - self._collected)
            what = f"collecting results, host(s) {missing} missing"
        else:
            what = f"{len(self.known - self.done)} messenger(s) unaccounted"
        respawns = sum(self.sup.restarts.values()) if self.sup else 0
        casualties = (
            "; fault injection destroyed messenger(s) with recovery "
            "disabled: " + ", ".join(self.lost) if self.lost else "")
        return DeadlockError(
            f"{self.name} timed out; {what} ({respawns} respawn(s))"
            f"{casualties}{self.hint() if self.hint else ''}")

    def _note(self, place, actor, kind, text, src=None, nbytes=0) -> None:
        if self.note is not None:
            self.note(place, actor, kind, text, src, nbytes)

    # -- hops, faults, checkpoints -------------------------------------
    def _route(self, src, dst, task) -> None:
        """Forward one cross-host hop a worker handed up."""
        sup = self.sup
        runtime = self.runtime
        if runtime is not None:
            runtime.note_hop()
            verdict = runtime.verdict("hop", src, dst, None,
                                      sup.recovery.enabled)
            if verdict is not DELIVER and not self._act_out(
                    verdict, src, dst, task):
                return
        self._forward(dst, task)
        if self.note is not None:
            self.note(dst, task[0], "hop", "hop", src,
                      payload_mod.encoded_nbytes(task))
        sup.note_forward()
        if (self.checkpoint_every is not None
                and sup.forwards_since_ckpt >= self.checkpoint_every):
            cid = sup.begin_checkpoint(
                {h: len(self.gate.pending[h]) for h in range(self.n_hosts)})
            for h in range(self.n_hosts):
                self.link.send(h, ("ckpt", cid, self.cut))

    def _act_out(self, verdict, src, dst, task) -> bool:
        """Act out a fired verdict on a forwarded hop; False: it is
        gone. A lost hop joins the casualty list (the continuation in it
        was the only copy); a duplicate forwards an extra copy for the
        workers' ``(mid, hops)`` dedup to discard; a delay sleeps, capped
        at 0.1 s; a retransmit is delivered as is."""
        mid = task[0]
        lost = verdict.outcome == "lost"
        if lost:
            self.lost.append(mid)
        if self.note is not None:
            nbytes = payload_mod.encoded_nbytes(task) if lost else 0
            for kind, note in verdict.events:
                self.note(dst, mid, kind, note, src, nbytes)
        if verdict.outcome == "dedup":
            self._forward(dst, task)  # the extra copy
        elif verdict.outcome == "delay":
            time.sleep(min(verdict.spec.seconds, 0.1))
        return not lost

    def _commit(self, h, cid, state) -> None:
        self.sup.commit_checkpoint(h, cid, state)
        self._note(h, "supervisor", "checkpoint", f"ckpt {cid}")
        if self.on_cut is None:
            return
        committed = self._commits.setdefault(cid, set())
        committed.add(h)
        if len(committed) == self.n_hosts:
            del self._commits[cid]
            hosts = range(self.n_hosts)
            self.on_cut(cid, {
                "cid": cid,
                "states": {x: self.sup.ckpt_state.get(x) for x in hosts},
                "journal": {x: self.sup.ledger.entries(x) for x in hosts},
                "known": set(self.known),
                "done": set(self.done),
            })

    # -- recovery ------------------------------------------------------
    def _recover(self, h, how) -> None:
        """Bring ``h`` back: a fresh worker, its last committed state,
        then everything journaled since. The respawn counts as masked
        only once all of that is sent: a replacement that fails to come
        up fails the run uncounted."""
        sup = self.sup
        if sup is None:
            raise FabricError(
                f"{self.name}: worker {h} lost ({how}) and this run has "
                f"no supervision; pass supervise=True or a fault plan "
                f"for recovery")
        ordinal = sup.authorize_respawn(h, how)
        self.link.replace(h)
        state, replay = sup.recovery_script(h)
        if state is not None:
            self.link.send(h, ("restore", state))
        self.gate.reset(h)  # every queued payload is in the journal
        self._replay(h, replay, journal=False)
        if self._collecting:
            self._ask_collect(h)
        if self.runtime is not None:
            for kind, text in self.runtime.count(
                    "respawn", h=h, how=how, restart=ordinal,
                    replay=len(replay)):
                self._note(h, "supervisor", kind, text)


class ControllerFabric(Link):
    """Setup-side base class of the process and socket fabrics.

    Collects loads, initial signals, and injected IR programs until
    :meth:`run`; gives a fault plan worker hosts as its index domain
    (a spec's ``place``/``src``/``dst`` name a host); and owns
    the one capability check both fabrics need: only IR messengers may
    be injected, because these fabrics ship continuations between
    address spaces on every hop and a live generator frame cannot be
    pickled. A subclass is the :class:`Link` of its own runs: it adds
    the four verbs plus ``_open`` / ``_close`` (fork and reap the
    workers), and :meth:`run` drives the shared :class:`Controller`
    over it.

    The setup never crosses the wire. :meth:`_setup` is a host's
    ``register`` / ``load`` / ``signal0`` commands, each fork (the
    first and every ``replace``) passes it to the worker, and the
    worker applies it with :meth:`WorkerCore.seed` before it reads a
    frame — so only entry continuations, hops, cuts and results move.
    Whatever a worker would otherwise redo, :meth:`run` does once
    before the first fork: it solves every program's liveness table
    (:func:`~repro.navp.interp.live_table`), compiles every program
    (:func:`~repro.navp.interp.code_table`) and puts every load in the
    form a frame would deliver — a C-contiguous array stays the object
    given, anything else becomes its contiguous codec round trip.

    Collect and every cut ask for the closure's
    :func:`written_names`; every other variable still is the load: in
    ``places`` and in the image a replacement worker forks with, under
    the cut its ``restore`` lays over it.
    """

    #: flow control toward a worker (the socket fabric overrides both)
    window: int | None = None
    coalesce = 1

    def __init__(
        self,
        topology,
        machine=None,
        timeout: float = 120.0,
        hosts=None,
        faults: FaultPlan | None = None,
        recovery=True,
        checkpoint_every: int | None = None,
        max_restarts: int = 2,
        supervise: bool | None = None,
        trace: bool = False,
    ):
        self.topology = topology
        self.machine = machine if machine is not None else SUN_BLADE_100
        self.timeout = timeout
        self.trace = TraceLog(enabled=trace)
        self._host_of = resolve_hosts(topology, hosts)
        self.n_hosts = host_count(self._host_of)
        self._loads: dict = defaultdict(dict)
        self._signals: list = []
        self._initial: list = []  # (coord, program_name, env)
        self._programs: dict = {}
        self._counter = 0
        faults, recovery = ambient_faults(faults, recovery)
        self._plan = faults or FaultPlan()
        self._recovery = RecoveryPolicy.coerce(recovery)
        self._checkpoint_every = checkpoint_every
        self._max_restarts = max_restarts
        self.resilient = bool(self._plan) or bool(supervise) or (
            checkpoint_every is not None)
        self._sup: Supervisor | None = None     # the last run's
        self._runtime: PlanRuntime | None = None  # the last run's
        self.lost: list = []   # messengers destroyed by drops, no recovery
        self._t0 = 0.0

    # -- execution -----------------------------------------------------
    def run(self) -> FabricResult:
        if not self._initial:
            raise FabricError("no messengers injected")
        self._t0 = time.perf_counter()
        written = written_names(self._programs.values())
        # done once, here, for every worker: the fork image carries it
        # to the first one and to each replacement
        for program in self._programs.values():
            live_table(program)
            code_table(program)
        for node_vars in self._loads.values():
            for name, value in node_vars.items():
                node_vars[name] = _wire_form(value)
        # a run's journal, cuts, restart and fault counts are its own
        self._sup = Supervisor(self._recovery, self._max_restarts)
        self._runtime = (PlanRuntime(self._plan, self.topology,
                                     self._host_of)
                         if self.resilient else None)
        ctl = Controller(
            self, f"{self.kind} fabric", self.n_hosts, self._host_of,
            self.timeout,
            sup=self._sup if self.resilient else None,
            runtime=self._runtime,
            window=self.window or math.inf, coalesce=self.coalesce,
            checkpoint_every=self._checkpoint_every,
            note=self._note if self.trace.enabled else None,
            hint=lambda: mc_hint(
                [(name, coord, env) for coord, name, env in self._initial],
                self._signals, self._programs.values(), self.window),
            collect=written, cut=written)
        self.lost = ctl.lost
        entries = []
        for coord, name, env in self._initial:
            entries.append((f"m{self._counter}", coord, name, env))
            self._counter += 1
        try:
            # opening inside the try: a spawn failure midway must not
            # leave the already-started workers orphaned
            self._open()
            collected = ctl.run(entries)
        finally:
            self._close()
        # every node variable, as on sim: the loads under what was written
        places = {c: {**self._loads.get(c, {}), **collected.get(c, {})}
                  for c in self.topology.coords}
        return FabricResult(time=time.perf_counter() - self._t0,
                            trace=self.trace, places=places)

    def _coords_of(self, host) -> list:
        return [c for c in self.topology.coords if self._host_of[c] == host]

    def _setup(self, host) -> list:
        """What ``host``'s worker holds before its first frame: the
        programs, its PEs' loads and its initial signals, as the
        commands the wire would have carried."""
        return ([("register", list(self._programs.values()))]
                + [("load", c, self._loads[c]) for c in self._coords_of(host)
                   if self._loads.get(c)]
                + [("signal0", s) for s in self._signals
                   if self._host_of[s[0]] == host])

    def _note(self, place, actor, kind, text, src=None, nbytes=0) -> None:
        now = time.perf_counter() - self._t0
        self.trace.record(t0=now, t1=now, place=place, actor=actor,
                          kind=kind, note=text, src_place=src,
                          nbytes=nbytes)

    def _note_hops(self, hop_log) -> None:
        """A plain-mode worker's ``(src, dst, nbytes, mid)`` hop log,
        shipped with its collect reply."""
        for src, dst, nbytes, mid in hop_log:
            self._note(dst, mid, "hop", "hop", src, nbytes)

    @property
    def fault_counts(self) -> dict:
        """The last run's fault counts (``fired``/``masked``/``lost``);
        all zero for a run that was not resilient."""
        return counts_of(self._runtime)

    @property
    def restarts(self) -> dict:
        """Respawn count per worker host in the last run (populated by
        resilient runs)."""
        return self._sup.restarts if self._sup is not None else {}

    # -- setup (collected, applied at run()) ---------------------------
    def load(self, coord, **node_vars) -> None:
        self._loads[self.topology.normalize(coord)].update(node_vars)

    def signal_initial(self, coord, name: str, *args, count: int = 1) -> None:
        self._signals.append(
            (self.topology.normalize(coord), name, tuple(args), count))

    def inject(self, coord, program: str | ir.Program,
               env: dict | None = None) -> None:
        """Schedule an IR program for injection at start-up.

        Accepts a program name, an :class:`~repro.navp.ir.Program`, or
        an :class:`~repro.navp.interp.IRMessenger` (whose continuation
        must be at the start). Plain generator messengers are rejected:
        their state lives in an unpicklable generator frame, and this
        fabric ships state between address spaces on every hop.
        """
        if isinstance(program, Messenger):
            interp = getattr(program, "interp", None)
            if interp is None:
                raise ConfigurationError(
                    f"the {self.kind} fabric runs IR messengers only — "
                    f"{type(program).__name__} is a generator messenger "
                    f"whose state cannot be pickled across processes; "
                    f"use SimFabric/ThreadFabric, or express the program "
                    f"in the navigational IR")
            if env is not None:
                raise ConfigurationError(
                    "env is implied by the IRMessenger; do not pass both")
            env = dict(interp.env)
            program = interp.program
        if isinstance(program, ir.Program):
            self._programs[program.name] = program
            name = program.name
        else:
            name = program
            self._programs[name] = ir.get_program(name)
        self._collect_referenced(self._programs[name])
        self._initial.append(
            (self.topology.normalize(coord), name, dict(env or {})))

    def _collect_referenced(self, program: ir.Program) -> None:
        """Pull in programs reachable through Inject statements. A
        worklist, not a recursive closure: a closure that refers to
        itself is a reference cycle, and one that also captures
        ``self`` keeps the whole fabric alive until the cyclic
        collector runs."""
        todo = [program]
        while todo:
            for _path, stmt in walk_stmts(todo.pop().body):
                if (isinstance(stmt, ir.InjectStmt)
                        and stmt.program not in self._programs):
                    child = ir.get_program(stmt.program)
                    self._programs[stmt.program] = child
                    todo.append(child)

    # -- identity ------------------------------------------------------
    kind = "distributed"  # overridden: "process" / "socket"
