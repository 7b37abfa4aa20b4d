"""ThreadFabric: real concurrent execution of messenger programs.

One daemon thread per *host*, exactly like the MESSENGERS daemon: a
host may carry several logical nodes (see :mod:`repro.fabric.hosts`),
its thread steps one ready messenger at a time, and a messenger runs
until it hops to another host, blocks on an event, or finishes.
Cross-host migration hands the messenger's driver to the destination
host's ready queue — and round-trips the agent variables through
:mod:`pickle`, both to enforce the NavP rule that hopping state must be
serializable (what actually crosses the network in MESSENGERS) and to
record real payload sizes; a cross-host send's payload takes the same
round trip. Hops between co-hosted logical nodes are local pointer
hand-overs.

Node variables and the event table of a logical node are touched only
by its host's thread (every ``waitEvent``/``signalEvent`` is executed
by a messenger *residing there*), so they need no locks; the ready
queues and mailboxes are the only cross-thread structures.

Under a fault plan every cross-host hop and send asks the plan's one
:meth:`~repro.resilience.faults.PlanRuntime.verdict` and acts it out in
wall-clock time: a delay or a retransmit is a real (capped) sleep, a
``twice`` send is deposited twice, a lost hop retires its messenger.
The verdict counts the fault in the run's own counts
(:attr:`ThreadFabric.fault_counts`).

Time here is wall-clock time. On a multi-core host the numerics of
concurrently-resident messengers genuinely overlap (NumPy releases the
GIL inside its kernels); on a single-core container this fabric still
demonstrates correct concurrent semantics, while the virtual-time
:class:`~repro.fabric.sim.SimFabric` carries the performance
reproduction.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from collections import defaultdict, deque
from typing import Any

from ..errors import DeadlockError, FabricError
from ..machine.presets import SUN_BLADE_100
from ..machine.spec import MachineSpec
from ..resilience.faults import DELIVER, FaultPlan, PlanRuntime
from ..resilience.faults import ambient as ambient_faults
from ..resilience.faults import counts_of
from ..resilience.recovery import RecoveryPolicy
from . import effects as fx
from .hosts import resolve_hosts
from .sim import FabricResult, Message
from .topology import Topology
from .trace import TraceLog

__all__ = ["ThreadFabric", "ThreadPlace"]

_STOP = object()


class _ThreadRequest:
    """Non-blocking receive handle for the thread fabric."""

    __slots__ = ("message", "done", "parked")

    def __init__(self):
        self.message: Message | None = None
        self.done = False
        self.parked = None  # (driver, place) waiting on this request


class _ThreadMailbox:
    """Thread-safe mailbox with (src, tag) matching."""

    def __init__(self, owner: "ThreadPlace"):
        self._owner = owner
        self._lock = threading.Lock()
        self._pending: deque[Message] = deque()
        self._waiting: deque[tuple] = deque()  # (src, tag, request)

    @staticmethod
    def _matches(want_src, want_tag, msg: Message) -> bool:
        if want_src is not fx.ANY_SOURCE and tuple(want_src) != msg.src:
            return False
        return want_tag is None or want_tag == msg.tag

    def deposit(self, msg: Message) -> None:
        wake = None
        with self._lock:
            for i, (src, tag, request) in enumerate(self._waiting):
                if self._matches(src, tag, msg):
                    del self._waiting[i]
                    request.message = msg
                    request.done = True
                    wake = request.parked
                    break
            else:
                self._pending.append(msg)
        if wake is not None:
            driver, _place = wake
            self._owner.ready.put((driver, msg))  # the host's queue

    def post(self, src, tag) -> _ThreadRequest:
        request = _ThreadRequest()
        with self._lock:
            for i, msg in enumerate(self._pending):
                if self._matches(src, tag, msg):
                    del self._pending[i]
                    request.message = msg
                    request.done = True
                    return request
            self._waiting.append((src, tag, request))
        return request

    def park(self, request: _ThreadRequest, driver, place) -> bool:
        """Attach a blocked driver; False if the request completed first."""
        with self._lock:
            if request.done:
                return False
            request.parked = (driver, place)
            return True


class ThreadPlace:
    """One logical node: its variables, events, and mailbox.

    ``ready`` is the *host's* shared run queue — several logical nodes
    co-hosted on one daemon thread share it, and only that thread ever
    touches the node's event table (MESSENGERS semantics).
    """

    def __init__(self, coord: tuple, index: int, host: int,
                 ready: queue.Queue):
        self.coord = coord
        self.index = index
        self.host = host
        self.vars: dict = {}
        self.ready = ready
        self.event_counts: dict = defaultdict(int)
        self.event_waiters: dict = defaultdict(deque)
        self.mailbox = _ThreadMailbox(self)

    def __repr__(self) -> str:
        return f"ThreadPlace{self.coord}"


class _Ctx:
    __slots__ = ("fabric", "place")

    def __init__(self, fabric, place):
        self.fabric = fabric
        self.place = place


class ThreadFabric:
    """Wall-clock executor: one daemon thread per PE."""

    def __init__(
        self,
        topology: Topology,
        machine: MachineSpec | None = None,
        trace: bool = False,
        hosts=None,
        faults: FaultPlan | None = None,
        recovery=True,
    ):
        self.topology = topology
        self.machine = machine if machine is not None else SUN_BLADE_100
        self.trace = TraceLog(enabled=trace)
        self._trace_lock = threading.Lock()
        host_map = resolve_hosts(topology, hosts)
        self.n_hosts = max(host_map.values()) + 1
        self._host_queues = [queue.Queue() for _ in range(self.n_hosts)]
        self.places = [
            ThreadPlace(coord, i, host_map[coord],
                        self._host_queues[host_map[coord]])
            for i, coord in enumerate(topology.coords)
        ]
        self._by_coord = {p.coord: p for p in self.places}
        self._live = 0
        self._live_lock = threading.Lock()
        self._all_done = threading.Event()
        self._failure: BaseException | None = None
        self._started = False
        self._names: dict = {}
        self._t0 = 0.0
        self.hop_bytes_total = 0
        self.hop_count = 0
        # Fault injection: message faults act on cross-host deliveries
        # (see _act_out). Crash and slow-node specs are inert here —
        # crashes belong to the process fabric (a thread cannot be
        # SIGKILLed meaningfully) and there is no modeled compute cost
        # to degrade. All hooks sit behind `self._runtime is None`.
        faults, recovery = ambient_faults(faults, recovery)
        if faults:
            self._runtime: PlanRuntime | None = PlanRuntime(
                faults, topology,
                {p.coord: p.index for p in self.places})
            self._recovery = RecoveryPolicy.coerce(recovery)
            self._fault_lock = threading.Lock()
        else:
            self._runtime = None
            self._recovery = RecoveryPolicy()
        self.lost: list[str] = []  # messengers destroyed by faults
        self._ir_roots: list = []  # (program, entry coord, env snapshot)
        self._primed: list = []    # (coord, event, args, count)

    # -- setup ---------------------------------------------------------
    def place(self, coord) -> ThreadPlace:
        return self._by_coord[self.topology.normalize(coord)]

    def load(self, coord, **node_vars) -> None:
        self.place(coord).vars.update(node_vars)

    def signal_initial(self, coord, name: str, *args, count: int = 1) -> None:
        place = self.place(coord)
        place.event_counts[(name, tuple(args))] += count
        self._primed.append((place.coord, name, tuple(args), count))

    def inject(self, coord, messenger, delay: float = 0.0) -> None:
        if self._started:
            raise FabricError("cannot inject externally after run() started")
        interp = getattr(messenger, "interp", None)
        if interp is not None:
            self._ir_roots.append((interp.program,
                                   self.place(coord).coord,
                                   dict(interp.env)))
        self._spawn(messenger, self.place(coord))

    # -- execution --------------------------------------------------------
    def run(self, timeout: float = 120.0) -> FabricResult:
        self._started = True
        self._t0 = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._worker, args=(q,), daemon=True,
                name=f"host{h}",
            )
            for h, q in enumerate(self._host_queues)
        ]
        for t in threads:
            t.start()
        with self._live_lock:
            if self._live == 0:
                self._all_done.set()
        finished = self._all_done.wait(timeout=timeout)
        for q in self._host_queues:
            q.put(_STOP)
        for t in threads:
            t.join(timeout=5.0)
        if self._failure is not None:
            raise FabricError(
                f"messenger raised {type(self._failure).__name__}: "
                f"{self._failure}"
            ) from self._failure
        if not finished:
            casualties = (
                "; fault injection destroyed messenger(s) with recovery "
                "disabled: " + ", ".join(self.lost) if self.lost else ""
            )
            verdict = ""
            try:
                from ..analysis.protocol_mc import runtime_deadlock_hint
                hint = runtime_deadlock_hint(self._ir_roots, self._primed,
                                             window=None)
                if hint:
                    verdict = "\n" + hint
            except Exception:  # the hint must never mask the deadlock
                pass
            raise DeadlockError(
                f"thread fabric made no progress within {timeout}s "
                f"({self._live} messenger(s) still live){casualties}"
                f"{verdict}"
            )
        return FabricResult(
            time=time.perf_counter() - self._t0,
            trace=self.trace,
            places={p.coord: p.vars for p in self.places},
        )

    @property
    def fault_counts(self) -> dict:
        """This fabric's fault counts (``fired``/``masked``/``lost``);
        all zero without a plan."""
        return counts_of(self._runtime)

    # -- internals -----------------------------------------------------------
    def _record(self, **kw) -> None:
        if self.trace.enabled:
            with self._trace_lock:
                self.trace.record(**kw)

    def _unique_name(self, messenger) -> str:
        base = getattr(messenger, "name", None) or type(messenger).__name__
        with self._live_lock:
            count = self._names.get(base, 0)
            self._names[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def _spawn(self, messenger, place: ThreadPlace) -> None:
        messenger._ctx = _Ctx(self, place)
        messenger._name = self._unique_name(messenger)
        with self._live_lock:
            self._live += 1
        place.ready.put((_Driver(self, messenger), None))

    def _finish_one(self) -> None:
        with self._live_lock:
            self._live -= 1
            if self._live == 0:
                self._all_done.set()

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc
        self._all_done.set()

    def _act_out(self, kind: str, actor: str, place, dst, tag,
                 nbytes: int):
        """The plan's verdict on one cross-host transfer, acted out.

        Records the verdict's events, then sleeps for a delay (capped at
        0.1 s) or for one real retransmit attempt (the policy's first
        backoff, capped at 0.05 s); the caller drops a ``lost`` transfer
        and deposits a ``twice`` send twice. Matching is serialized
        under a lock — the plan's counted matchers see one global
        transfer order even though deliveries come from many PE threads
        (which order that is stays scheduler-dependent: this fabric
        demonstrates the mechanisms; determinism lives on the
        virtual-time fabric).
        """
        with self._fault_lock:
            if kind == "hop":
                self._runtime.note_hop()
            verdict = self._runtime.verdict(
                kind, place.index, dst.index, tag, self._recovery.enabled)
        if verdict is DELIVER:
            return verdict
        now = time.perf_counter() - self._t0
        lost = verdict.outcome == "lost"
        for trace_kind, note in verdict.events:
            self._record(
                t0=now, t1=now, place=dst.index, actor=actor,
                kind=trace_kind, note=note, src_place=place.index,
                nbytes=nbytes if lost else 0)
        if verdict.outcome == "delay":
            time.sleep(min(verdict.spec.seconds, 0.1))
        elif verdict.outcome == "retransmit":
            delays = self._recovery.delays()
            time.sleep(min(delays[0] if delays else 0.0, 0.05))
        return verdict

    def _worker(self, ready: queue.Queue) -> None:
        while True:
            item = ready.get()
            if item is _STOP:
                return
            driver, value = item
            try:
                driver.step(value)
            except BaseException as exc:  # noqa: BLE001 - reported to run()
                self._fail(exc)
                return


class _Driver:
    """Steps one messenger's generator on whichever PE thread owns it."""

    __slots__ = ("fabric", "messenger", "gen")

    def __init__(self, fabric: ThreadFabric, messenger):
        self.fabric = fabric
        self.messenger = messenger
        self.gen = messenger.main()

    def step(self, value) -> None:
        """Advance until the messenger blocks, migrates hosts, or ends.

        The messenger's *logical* place is tracked in its context; a hop
        between logical nodes of the same host continues inline (a local
        pointer hand-over), while a cross-host hop re-queues the driver
        on the destination host's daemon.
        """
        fabric = self.fabric
        msgr = self.messenger
        while True:
            place = msgr._ctx.place
            try:
                eff = self.gen.send(value)
            except StopIteration:
                fabric._finish_one()
                return
            value = None

            if isinstance(eff, fx.Hop):
                dst = fabric.place(eff.coord)
                crosses_host = dst.host != place.host
                nbytes = 0
                if crosses_host:
                    agent = {
                        k: v for k, v in vars(msgr).items()
                        if not k.startswith("_")
                    }
                    blob = pickle.dumps(agent, protocol=pickle.HIGHEST_PROTOCOL)
                    nbytes = len(blob)
                    with fabric._live_lock:
                        fabric.hop_bytes_total += len(blob)
                        fabric.hop_count += 1
                    # restore through pickle: what a real network delivers
                    for k, v in pickle.loads(blob).items():
                        setattr(msgr, k, v)
                    if fabric._runtime is not None and fabric._act_out(
                            "hop", msgr._name, place, dst, None,
                            nbytes).outcome == "lost":
                        # the carried continuation was the only copy
                        fabric.lost.append(msgr._name)
                        fabric._finish_one()
                        return
                msgr._ctx.place = dst
                fabric._record(
                    t0=time.perf_counter() - fabric._t0,
                    t1=time.perf_counter() - fabric._t0,
                    place=dst.index, actor=msgr._name, kind="hop",
                    src_place=place.index, nbytes=nbytes,
                )
                if crosses_host:
                    dst.ready.put((self, None))
                    return
                continue

            if isinstance(eff, fx.Compute):
                t0 = time.perf_counter() - fabric._t0
                value = eff.fn() if eff.fn is not None else None
                fabric._record(
                    t0=t0, t1=time.perf_counter() - fabric._t0,
                    place=place.index, actor=msgr._name, kind="compute",
                    note=eff.note,
                )
                continue

            if isinstance(eff, fx.WaitEvent):
                key = (eff.name, tuple(eff.args))
                if place.event_counts[key] > 0:
                    place.event_counts[key] -= 1
                    continue
                place.event_waiters[key].append(self)
                return

            if isinstance(eff, fx.SignalEvent):
                key = (eff.name, tuple(eff.args))
                remaining = eff.count
                waiters = place.event_waiters[key]
                while remaining > 0 and waiters:
                    place.ready.put((waiters.popleft(), None))
                    remaining -= 1
                place.event_counts[key] += remaining
                continue

            if isinstance(eff, fx.Inject):
                fabric._spawn(eff.messenger, place)
                continue

            if isinstance(eff, fx.Send):
                dst = fabric.place(eff.dst)
                payload = eff.payload
                if dst.host != place.host:
                    blob = pickle.dumps(payload,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    payload = pickle.loads(blob)
                    if fabric._runtime is not None:
                        outcome = fabric._act_out(
                            "send", msgr._name, place, dst, eff.tag,
                            len(blob)).outcome
                        if outcome == "lost":
                            continue
                        if outcome == "twice":
                            dst.mailbox.deposit(
                                Message(place.coord, eff.tag, payload))
                dst.mailbox.deposit(Message(place.coord, eff.tag, payload))
                continue

            if isinstance(eff, fx.Recv):
                request = place.mailbox.post(eff.src, eff.tag)
                if request.done:
                    value = request.message
                    continue
                if place.mailbox.park(request, self, place):
                    return
                value = request.message
                continue

            if isinstance(eff, fx.IRecv):
                value = place.mailbox.post(eff.src, eff.tag)
                continue

            if isinstance(eff, fx.WaitRequest):
                request = eff.request
                if request.done:
                    value = request.message
                    continue
                if place.mailbox.park(request, self, place):
                    return
                value = request.message
                continue

            if isinstance(eff, fx.Delay):
                if eff.seconds > 0:
                    time.sleep(min(eff.seconds, 0.1))
                continue

            raise FabricError(
                f"unknown effect {eff!r} from messenger {msgr._name}"
            )
