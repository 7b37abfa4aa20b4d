"""SimFabric: virtual-time execution of messengers on a modeled cluster.

Each PE gets a CPU resource (the MESSENGERS daemon executes one ready
messenger at a time, like a single-core workstation), an outbound NIC
and an inbound NIC (full-duplex switched Ethernet — concurrent send and
receive, but each direction serializes, which is what makes owner-side
contention visible in the ``doall`` experiment). Costs come from a
:class:`~repro.machine.spec.MachineSpec`.

An uncontended hop or message takes ``latency + nbytes/bandwidth``:
the sender's NIC is held for the bandwidth term while the in-flight
portion overlaps it (cut-through pipelining), and the receiver's NIC is
held for the bandwidth term on arrival.

Numerics always execute (see :class:`repro.fabric.effects.Compute`);
load :class:`~repro.util.shadow.ShadowArray` node variables to simulate
paper-scale problems in milliseconds.

Under a fault plan every cross-host hop and send asks the plan's one
:meth:`~repro.resilience.faults.PlanRuntime.verdict` and acts it out in
virtual time: a delay is a ``Timeout``, a retransmit costs
``retry_cost_s`` (zero by default, so masked faults keep golden times
bit-exact), a ``twice`` send spawns a second delivery, a lost hop
retires its messenger. Crashes and slow nodes stay this fabric's own:
a transfer into a crashed PE is lost as a crash consequence. Every
fault outcome, crash or message, is counted and named by the run's
:meth:`~repro.resilience.faults.PlanRuntime.count`; this fabric only
records the events it returns.

Hot-path notes: effects dispatch through a class-keyed handler table
(exact type hit; subclasses resolve once and are cached), the dominant
effect — an uncontended :class:`~repro.fabric.effects.Compute` — takes
the CPU slot synchronously and yields a single Timeout instead of an
acquire/timeout/release round-trip, and every ``trace.record`` call is
guarded by ``self._tracing`` so ``trace=False`` runs never even build
the event kwargs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..errors import FabricError, TopologyError
from ..machine import cache_factors as compute_cache_factors
from ..machine.presets import SUN_BLADE_100
from ..machine.spec import MachineSpec
from ..resilience.faults import DELIVER, FaultPlan, PlanRuntime
from ..resilience.faults import ambient as ambient_faults
from ..resilience.faults import counts_of
from ..resilience.recovery import RecoveryPolicy
from . import effects as fx
from .desim import Resource, Semaphore, Simulator, Timeout, Trigger
from .hosts import resolve_hosts
from .sizes import agent_nbytes, model_nbytes
from .topology import Topology
from .trace import TraceLog

__all__ = ["SimFabric", "SimPlace", "Message", "FabricResult"]


class _MessengerLost(Exception):
    """Internal: a fault destroyed this messenger (recovery disabled).

    Raised inside an effect handler and caught by the driver, which
    retires the messenger without failing the simulation — the paper's
    programs then deadlock on the events the dead messenger would have
    signaled, and :meth:`SimFabric._deadlock_hint` names the casualty.
    The one argument is the crash that caused it, or None for a hop the
    plan's verdict lost (the verdict counted it).
    """


class _Resilience:
    """Per-fabric fault state (absent => zero overhead).

    ``SimFabric`` keeps ``self._resil is None`` unless a non-empty
    fault plan is configured, and every hook in the hot paths is
    guarded by that single identity test — an empty plan runs
    byte-identically to a fabric built without resilience. It keeps no
    saved state: a run is a deterministic function of its inputs, so
    replaying it from the start is its checkpoint.
    """

    __slots__ = ("runtime", "recovery", "dead", "lost")

    def __init__(self, fabric: "SimFabric", plan: FaultPlan, recovery):
        self.runtime = PlanRuntime(
            plan, fabric.topology, {p.coord: p.index for p in fabric.places})
        self.recovery = RecoveryPolicy.coerce(recovery)
        self.dead: set = set()        # place indices killed, unmasked
        self.lost: list = []          # messenger names destroyed by faults


class Message(NamedTuple):
    """A delivered point-to-point message."""

    src: tuple
    tag: Any
    payload: Any


class _Request:
    """Handle for a posted non-blocking receive."""

    __slots__ = ("trigger", "message", "done")

    def __init__(self, trigger: Trigger):
        self.trigger = trigger
        self.message: Message | None = None
        self.done = False

    def complete(self, message: Message) -> None:
        self.message = message
        self.done = True
        self.trigger.fire(message)


class _SimMailbox:
    """Per-place mailbox with (src, tag) matching, FIFO on both sides."""

    __slots__ = ("_sim", "_pending", "_waiters")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._pending: deque[Message] = deque()
        self._waiters: deque[tuple] = deque()  # (src, tag, _Request)

    @staticmethod
    def _matches(want_src, want_tag, msg: Message) -> bool:
        if want_src is not fx.ANY_SOURCE and tuple(want_src) != msg.src:
            return False
        return want_tag is None or want_tag == msg.tag

    def deposit(self, msg: Message) -> None:
        for i, (src, tag, request) in enumerate(self._waiters):
            if self._matches(src, tag, msg):
                del self._waiters[i]
                request.complete(msg)
                return
        self._pending.append(msg)

    def post(self, src, tag) -> _Request:
        """Register a receive; completes immediately if a message waits."""
        request = _Request(self._sim.trigger())
        for i, msg in enumerate(self._pending):
            if self._matches(src, tag, msg):
                del self._pending[i]
                request.complete(msg)
                return request
        self._waiters.append((src, tag, request))
        return request

    def idle(self) -> bool:
        return not self._pending and not self._waiters


class SimPlace:
    """One logical node of the simulated cluster.

    Several logical nodes may share a physical ``host``: they then
    share its CPU and NIC resources, while node variables, events, and
    the mailbox stay per logical node (MESSENGERS semantics).
    """

    __slots__ = ("coord", "index", "host", "vars", "cpu", "nic_in",
                 "nic_out", "events", "mailbox", "_sim")

    def __init__(self, sim: Simulator, coord: tuple, index: int,
                 host: int, cpu, nic_in, nic_out):
        self.coord = coord
        self.index = index
        self.host = host
        self.vars: dict = {}
        self.cpu = cpu
        self.nic_in = nic_in
        self.nic_out = nic_out
        self.events: dict = {}
        self.mailbox = _SimMailbox(sim)
        self._sim = sim

    def event(self, name: str, args: tuple) -> Semaphore:
        key = (name, args)
        sem = self.events.get(key)
        if sem is None:
            sem = self._sim.semaphore(0, name=f"{name}{args}@{self.coord}")
            self.events[key] = sem
        return sem

    def __repr__(self) -> str:
        return f"SimPlace{self.coord}"


@dataclass
class _Ctx:
    """Runtime context bound to a messenger while it executes."""

    fabric: "SimFabric"
    place: SimPlace


@dataclass
class FabricResult:
    """Outcome of a fabric run.

    ``places`` maps every PE coordinate to all of its node variables
    after the run. On every fabric a variable the run never wrote is
    what was loaded: the very object, except that the process and
    socket fabrics hand any load but a C-contiguous array back as the
    codec copy their workers were forked with (a strided view comes
    back contiguous). Those two ship back only what some ``NodeSet`` of
    the programs can write.
    """

    time: float
    trace: TraceLog
    places: dict = field(default_factory=dict)

    def get(self, coord, name: str):
        """Fetch node variable ``name`` from the place at ``coord``."""
        if isinstance(coord, int):
            coord = (coord,)
        return self.places[tuple(coord)][name]


class SimFabric:
    """Discrete-event executor for messenger programs."""

    # Local (same-PE) hops are pointer swaps plus scheduler work.
    LOCAL_HOP_SECONDS = 2.0e-5

    def __init__(
        self,
        topology: Topology,
        machine: MachineSpec | None = None,
        use_cache_model: bool = True,
        trace: bool = True,
        hosts=None,
        cpu_policy: str = "fifo",
        race_check: bool = False,
        perturb_seed: int | None = None,
        faults: FaultPlan | None = None,
        recovery=True,
    ):
        self.topology = topology
        self.machine = machine if machine is not None else SUN_BLADE_100
        self.sim = Simulator(perturb_seed=perturb_seed)
        self.sim.deadlock_hint = self._deadlock_hint
        self.trace = TraceLog(enabled=trace)
        self._tracing = bool(trace)
        self._ir_roots: list = []   # (program, entry coord, env snapshot)
        self._primed: list = []     # (coord, event, args, count)
        if race_check:
            from .hb import HBTracker
            self.hb: HBTracker | None = HBTracker(
                now_fn=lambda: self.sim.now, trace=self.trace)
        else:
            self.hb = None
        host_map = resolve_hosts(topology, hosts)
        self.n_hosts = max(host_map.values()) + 1
        host_res = [
            (Resource(self.sim, 1, name=f"cpu@host{h}", policy=cpu_policy),
             self.sim.resource(1, name=f"nic_in@host{h}"),
             self.sim.resource(1, name=f"nic_out@host{h}"))
            for h in range(self.n_hosts)
        ]
        self.places = []
        for i, coord in enumerate(topology.coords):
            host = host_map[coord]
            cpu, nic_in, nic_out = host_res[host]
            self.places.append(
                SimPlace(self.sim, coord, i, host, cpu, nic_in, nic_out))
        self._by_coord = {p.coord: p for p in self.places}
        self._names: dict = {}
        self._started = False
        if use_cache_model:
            factors = compute_cache_factors(elem_size=self.machine.elem_size)
            self._cache_factors = {
                k: factors[k] for k in ("sequential", "navp", "mpi")
            }
        else:
            self._cache_factors = {}
        # Resilience: explicit plan wins; otherwise the ambient
        # resilience.injected() context (which is how fault plans reach
        # the fabrics that table builders construct internally).
        faults, recovery = ambient_faults(faults, recovery)
        self._resil: _Resilience | None = None
        if faults:
            self._resil = _Resilience(self, faults, recovery)

    # -- setup -------------------------------------------------------------
    def place(self, coord) -> SimPlace:
        coord = self.topology.normalize(coord)
        return self._by_coord[coord]

    def load(self, coord, **node_vars) -> None:
        """Install node variables at a place before the run (time 0)."""
        self.place(coord).vars.update(node_vars)

    def signal_initial(self, coord, name: str, *args, count: int = 1) -> None:
        """Pre-signal an event, like Figure 13's "EC(i,j) is signaled
        on node(i,j) for all values of i,j initially"."""
        place = self.place(coord)
        place.event(name, tuple(args)).release(count)
        self._primed.append((place.coord, name, tuple(args), count))
        if self.hb is not None:
            self.hb.prime((place.index, name, tuple(args)), count)

    def inject(self, coord, messenger, delay: float = 0.0) -> None:
        """Inject a messenger at a place at virtual time ``delay``."""
        if self._started:
            raise FabricError("cannot inject externally after run() started")
        interp = getattr(messenger, "interp", None)
        if interp is not None:
            self._ir_roots.append((interp.program,
                                   self.place(coord).coord,
                                   dict(interp.env)))
        self._start(messenger, self.place(coord), delay=delay)

    # -- execution ----------------------------------------------------------
    def run(self, until: float | None = None) -> FabricResult:
        self._started = True
        t = self.sim.run(until=until)
        return FabricResult(
            time=t,
            trace=self.trace,
            places={p.coord: p.vars for p in self.places},
        )

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def fault_counts(self) -> dict:
        """This fabric's fault counts (``fired``/``masked``/``lost``);
        all zero without a plan."""
        return counts_of(self._resil and self._resil.runtime)

    # -- internals ------------------------------------------------------------
    def _unique_name(self, messenger) -> str:
        base = getattr(messenger, "name", None) or type(messenger).__name__
        count = self._names.get(base, 0)
        self._names[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def _start(self, messenger, place: SimPlace, delay: float = 0.0,
               parent_tid: int | None = None) -> None:
        messenger._ctx = _Ctx(fabric=self, place=place)
        name = self._unique_name(messenger)
        messenger._name = name
        hb = self.hb
        if hb is not None:
            messenger._tid = hb.new_thread(parent_tid)
            interp = getattr(messenger, "interp", None)
            if interp is not None:
                from .hb import InterpTap
                interp.tracer = InterpTap(hb, messenger, interp.program)
        self.sim.spawn(self._driver(messenger), name=name, delay=delay)

    def _deadlock_hint(self) -> str | None:
        """Extra DeadlockError text: fault casualties first (a deadlock
        under injected faults is usually *caused* by the lost
        messengers), then the protocol model checker's verdict on the
        injected IR programs — a reachable schedule when the program
        itself deadlocks, while a VERIFIED program that deadlocked
        anyway points the finger at the fabric or fault layer (lazy
        import — the fabric stays usable without the analysis
        package)."""
        resil = self._resil
        fault_note = None
        if resil is not None and resil.lost:
            fault_note = (
                "fault injection destroyed messenger(s) with recovery "
                "disabled: " + ", ".join(resil.lost))
        if not self._ir_roots:
            return fault_note
        try:
            from ..analysis.protocol_mc import runtime_deadlock_hint
            verdict = runtime_deadlock_hint(self._ir_roots, self._primed,
                                            window=None)
        except Exception:  # pragma: no cover — hint must never raise
            verdict = None
        if not verdict:
            return fault_note
        return "\n".join(([fault_note] if fault_note else []) + [verdict])

    def _driver(self, messenger):
        gen = messenger.main()
        effects = self._EFFECTS
        resil = self._resil
        value = None
        try:
            # Resilient path: a messenger never runs on a crashed PE —
            # it is retired before its generator is first resumed, at
            # every effect boundary (where crashes fire), and after
            # every handler returns.
            if resil is not None:
                self._check_alive(messenger)
            while True:
                try:
                    eff = gen.send(value)
                except StopIteration:
                    return
                handler = effects.get(eff.__class__)
                if handler is None:
                    handler = self._resolve_effect(eff.__class__)
                    if handler is None:
                        raise FabricError(
                            f"unknown effect {eff!r} from messenger "
                            f"{messenger._name}")
                if resil is None:
                    value = yield from handler(self, messenger, eff)
                    continue
                self._resil_boundary(messenger)
                value = yield from handler(self, messenger, eff)
                self._check_alive(messenger)
        except _MessengerLost as lost:
            self._on_lost(messenger, lost.args[0])

    def _resil_boundary(self, messenger) -> None:
        """Run the per-effect resilience hooks (``_resil`` is not None).

        Crashes are *polled* here rather than heap-scheduled so an
        injected crash never extends the simulation past its natural
        end (it fires at the first activity at/after its trigger) — the
        property that keeps golden virtual times bit-exact under
        masked faults.
        """
        runtime = self._resil.runtime
        if runtime.pending_crashes():
            for spec, index in runtime.due_crashes(self.sim.now):
                self._fire_crash(spec, index)
        self._check_alive(messenger)

    def _check_alive(self, messenger) -> None:
        """Raise :class:`_MessengerLost` if the messenger's PE crashed
        with recovery disabled (``_resil`` is not None)."""
        dead = self._resil.dead
        if dead and messenger._ctx.place.index in dead:
            raise _MessengerLost(
                f"PE {messenger._ctx.place.coord} crashed")

    def _on_lost(self, messenger, reason: str | None) -> None:
        """Retire a destroyed messenger. A crash casualty (``reason``)
        is counted here; a lost hop already was, by its verdict
        (``reason`` None)."""
        name = messenger._name
        self._resil.lost.append(name)
        if reason is not None:
            self._record_faults(
                self._resil.runtime.count("casualty", reason=reason),
                messenger._ctx.place.index, name)

    def _record_faults(self, events, place: int, actor: str,
                       src_place=None, nbytes: int = 0) -> None:
        """Trace a counted fault outcome's events at the current
        virtual instant."""
        if self._tracing:
            now = self.sim.now
            for kind, note in events:
                self.trace.record(
                    t0=now, t1=now, place=place, actor=actor, kind=kind,
                    note=note, src_place=src_place, nbytes=nbytes)

    def _fire_crash(self, spec, index: int) -> None:
        """One PE fails, fail-stop, at the current virtual instant.

        With recovery enabled the crash is *masked*: an instantaneous
        repair that saves nothing and changes nothing, so recovered runs
        keep the exact virtual times of fault-free runs (the acceptance
        bar for the golden tables); the trace still records the repair
        as checkpoint, fault, restore. With recovery disabled the
        place's node variables are wiped, and resident and arriving
        messengers are destroyed before they run another statement.
        """
        resil = self._resil
        place = self.places[index]
        if resil.recovery.enabled:
            events = resil.runtime.count("crash masked", coord=place.coord)
        else:
            resil.dead.add(index)
            place.vars.clear()
            events = resil.runtime.count("crash down")
        self._record_faults(events, index, "fault-injector")

    def _resolve_effect(self, cls):
        """Map an effect subclass to its base handler, once, then cache."""
        for base, handler in self._EFFECT_BASES:
            if issubclass(cls, base):
                self._EFFECTS[cls] = handler
                return handler
        return None

    def _release_later(self, resource, hold: float):
        yield Timeout(hold)
        resource.release()

    # -- effect handlers ------------------------------------------------------
    def _eff_hop(self, messenger, eff):
        place = messenger._ctx.place
        sim = self.sim
        dst = self.place(eff.coord)
        t0 = sim.now
        moved = 0
        if dst.host == place.host:
            yield Timeout(self.LOCAL_HOP_SECONDS)
        else:
            net = self.machine.network
            moved = (
                eff.nbytes
                if eff.nbytes is not None
                else agent_nbytes(messenger, self.machine)
            )
            resil = self._resil
            if resil is not None:
                yield from self._hop_faults(
                    resil, messenger, place, dst, moved)
            if net.is_small(moved):
                yield Timeout(net.latency_s)
            else:
                wire = net.wire_time(moved)
                yield place.nic_out.acquire()
                sim.spawn(
                    self._release_later(place.nic_out, wire),
                    name=f"{messenger._name}.nic_out",
                )
                yield Timeout(net.latency_s)
                yield dst.nic_in.acquire()
                yield Timeout(wire)
                dst.nic_in.release()
        if self._tracing:
            self.trace.record(
                t0=t0, t1=sim.now, place=dst.index, actor=messenger._name,
                kind="hop", note=eff.coord and str(eff.coord) or "",
                src_place=place.index, nbytes=moved,
            )
        messenger._ctx.place = dst
        if self.hb is not None:
            self.hb.on_hop(messenger._tid)
        return None

    def _hop_faults(self, resil, messenger, place: SimPlace, dst: SimPlace,
                    moved: int):
        """Fault hooks for one cross-host migration (resil is not None).

        A hop into a crashed PE is a crash consequence and is lost
        here; anything else is the plan's verdict, acted out by
        :meth:`_act_out`. A lost hop retires the messenger: the carried
        continuation was the only copy.
        """
        runtime = resil.runtime
        runtime.note_hop()
        if resil.dead and dst.index in resil.dead:
            self._record_faults(runtime.count("hop into crashed"),
                                dst.index, messenger._name, place.index,
                                moved)
            raise _MessengerLost(f"hopped into crashed PE {dst.coord}")
        verdict = runtime.verdict("hop", place.index, dst.index, None,
                                  resil.recovery.enabled)
        if verdict is not DELIVER and not (yield from self._act_out(
                verdict, messenger, place, dst, moved)):
            raise _MessengerLost(None)

    def _act_out(self, verdict, messenger, place: SimPlace, dst: SimPlace,
                 nbytes: int):
        """Record a fired verdict's events and charge its virtual time:
        a delay its seconds, a retransmit ``retry_cost_s`` (zero by
        default, which is what keeps golden times bit-exact). Returns
        False when the transfer is lost."""
        lost = verdict.outcome == "lost"
        self._record_faults(verdict.events, dst.index, messenger._name,
                            place.index, nbytes if lost else 0)
        if verdict.outcome == "delay":
            yield Timeout(verdict.spec.seconds)
        elif verdict.outcome == "retransmit":
            cost = self._resil.recovery.retry_cost_s
            if cost > 0:
                yield Timeout(cost)
        return not lost

    def _eff_compute(self, messenger, eff):
        place = messenger._ctx.place
        sim = self.sim
        factor = self._cache_factors.get(eff.kind, 1.0)
        cost = self.machine.flops_time(eff.flops, factor)
        if self._resil is not None:
            slow = self._resil.runtime.slow_factor(place.index, sim.now)
            if slow != 1.0:
                cost *= slow
        cpu = place.cpu
        hb = self.hb
        if cpu.in_use < cpu.capacity and not cpu._waiters:
            # uncontended: take the slot synchronously — one Timeout
            # instead of the acquire round-trip (grant event + resume).
            # No handoff edge: nothing was handed off.
            cpu.in_use += 1
            t0 = sim.now
            yield Timeout(cost)
        else:
            yield cpu.acquire()
            if hb is not None:
                hb.on_acquire(messenger._tid, cpu.name)
            t0 = sim.now
            yield Timeout(cost)
        if hb is not None:
            hb.on_release(messenger._tid, cpu.name)
        cpu.release()
        value = eff.fn() if eff.fn is not None else None
        if self._tracing:
            self.trace.record(
                t0=t0, t1=sim.now, place=place.index, actor=messenger._name,
                kind="compute", note=eff.note,
            )
        return value

    def _eff_wait_event(self, messenger, eff):
        place = messenger._ctx.place
        sim = self.sim
        sem = place.event(eff.name, tuple(eff.args))
        t0 = sim.now
        yield sem.acquire()
        if self.hb is not None:
            self.hb.on_wait(
                messenger._tid, (place.index, eff.name, tuple(eff.args)))
        if self._tracing and sim.now > t0:
            self.trace.record(
                t0=t0, t1=sim.now, place=place.index, actor=messenger._name,
                kind="wait", note=f"{eff.name}{tuple(eff.args)}",
            )
        return None

    def _eff_signal_event(self, messenger, eff):
        if self.machine.event_overhead_s > 0:
            yield Timeout(self.machine.event_overhead_s)
        place = messenger._ctx.place
        args = tuple(eff.args)
        if self.hb is not None:
            self.hb.on_signal(
                messenger._tid, (place.index, eff.name, args), eff.count)
        place.event(eff.name, args).release(eff.count)
        return None

    def _eff_inject(self, messenger, eff):
        place = messenger._ctx.place
        if self.machine.inject_overhead_s > 0:
            yield Timeout(self.machine.inject_overhead_s)
        self._start(eff.messenger, place,
                    parent_tid=(messenger._tid if self.hb is not None
                                else None))
        if self._tracing:
            self.trace.record(
                t0=self.sim.now, t1=self.sim.now, place=place.index,
                actor=messenger._name, kind="inject",
                note=type(eff.messenger).__name__,
            )
        return None

    def _eff_send(self, messenger, eff):
        place = messenger._ctx.place
        name = messenger._name
        sim = self.sim
        dst = self.place(eff.dst)
        if dst.host == place.host:
            # local delivery: pointer swap, no network involvement
            yield Timeout(self.LOCAL_HOP_SECONDS)
            dst.mailbox.deposit(Message(place.coord, eff.tag, eff.payload))
            return None
        net = self.machine.network
        nbytes = (
            eff.nbytes
            if eff.nbytes is not None
            else model_nbytes(eff.payload, self.machine) + 64
        )
        t0 = sim.now
        resil = self._resil
        if resil is not None:
            deliver = yield from self._send_faults(
                resil, messenger, place, dst, eff, nbytes)
            if not deliver:
                return None  # dropped with recovery disabled: lost
        if net.is_small(nbytes):
            sim.spawn(self._deliver_small(place, dst, eff.tag, eff.payload),
                      name=f"{name}.deliver")
        elif not eff.blocking:
            # MPI_Isend: the whole transfer (including queueing for
            # this PE's outbound NIC) runs in the background
            sim.spawn(self._transfer(place, dst, eff.tag, eff.payload,
                                     net.wire_time(nbytes), name),
                      name=f"{name}.isend")
        else:
            wire = net.wire_time(nbytes)
            yield place.nic_out.acquire()
            sim.spawn(self._deliver(place, dst, eff.tag, eff.payload,
                                    wire, name),
                      name=f"{name}.deliver")
            yield Timeout(wire)
            place.nic_out.release()
        if self._tracing:
            self.trace.record(
                t0=t0, t1=sim.now, place=dst.index, actor=name,
                kind="send", note=str(eff.tag),
                src_place=place.index, nbytes=nbytes,
            )
        return None

    def _eff_recv(self, messenger, eff):
        request = messenger._ctx.place.mailbox.post(eff.src, eff.tag)
        return (yield from self._await_request(messenger, request))

    def _eff_irecv(self, messenger, eff):
        return messenger._ctx.place.mailbox.post(eff.src, eff.tag)
        yield  # pragma: no cover — makes this a generator like its peers

    def _eff_wait_request(self, messenger, eff):
        return (yield from self._await_request(messenger, eff.request))

    def _eff_delay(self, messenger, eff):
        if eff.seconds > 0:
            yield Timeout(eff.seconds)
        return None

    # Exact effect type -> unbound handler. Populated with the concrete
    # classes; subclasses fall through to _resolve_effect once.
    _EFFECTS = {
        fx.Hop: _eff_hop,
        fx.Compute: _eff_compute,
        fx.WaitEvent: _eff_wait_event,
        fx.SignalEvent: _eff_signal_event,
        fx.Inject: _eff_inject,
        fx.Send: _eff_send,
        fx.Recv: _eff_recv,
        fx.IRecv: _eff_irecv,
        fx.WaitRequest: _eff_wait_request,
        fx.Delay: _eff_delay,
    }

    _EFFECT_BASES = tuple(_EFFECTS.items())

    def _send_faults(self, resil, messenger, place: SimPlace, dst: SimPlace,
                     eff, nbytes: int):
        """Fault hooks for one cross-host send. Returns False when the
        message is genuinely lost (into a crashed PE, or by a verdict);
        a ``twice`` verdict spawns the second delivery here."""
        if resil.dead and dst.index in resil.dead:
            self._record_faults(resil.runtime.count("send into crashed"),
                                dst.index, messenger._name, place.index,
                                nbytes)
            return False
        verdict = resil.runtime.verdict("send", place.index, dst.index,
                                        eff.tag, resil.recovery.enabled)
        if verdict is DELIVER:
            return True
        if not (yield from self._act_out(verdict, messenger, place, dst,
                                         nbytes)):
            return False
        if verdict.outcome == "twice":
            self.sim.spawn(
                self._deliver_small(place, dst, eff.tag, eff.payload),
                name=f"{messenger._name}.dup")
        return True

    def _deliver(self, src: SimPlace, dst: SimPlace, tag, payload,
                 wire: float, sender: str):
        yield Timeout(self.machine.network.latency_s)
        yield dst.nic_in.acquire()
        yield Timeout(wire)
        dst.nic_in.release()
        dst.mailbox.deposit(Message(src.coord, tag, payload))

    def _deliver_small(self, src: SimPlace, dst: SimPlace, tag, payload):
        yield Timeout(self.machine.network.latency_s)
        dst.mailbox.deposit(Message(src.coord, tag, payload))

    def _transfer(self, src: SimPlace, dst: SimPlace, tag, payload,
                  wire: float, sender: str):
        """A full background transfer, pipelined like the blocking path:
        the sender NIC drains while the flight+receiver leg overlaps."""
        yield src.nic_out.acquire()
        self.sim.spawn(
            self._deliver(src, dst, tag, payload, wire, sender),
            name=f"{sender}.deliver",
        )
        yield Timeout(wire)
        src.nic_out.release()

    def _await_request(self, messenger, request: _Request):
        place = messenger._ctx.place
        if request.done:
            return request.message
        t0 = self.sim.now
        value = yield request.trigger
        if self._tracing:
            self.trace.record(
                t0=t0, t1=self.sim.now, place=place.index,
                actor=messenger._name, kind="recv",
            )
        return value
