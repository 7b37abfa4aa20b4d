"""Deterministic fault injection: declarative plans over fabric events.

A :class:`FaultPlan` is pure data — a tuple of fault specifications
plus an optional seed — with a JSON round trip, so the same plan file
drives a virtual-time :class:`~repro.fabric.sim.SimFabric` run (faults
become deterministic virtual-time events), a wall-clock
:class:`~repro.fabric.threads.ThreadFabric` run (hop/send deliveries
fail and are retried), and a :class:`~repro.fabric.process.ProcessFabric`
run (a worker process really is SIGKILLed).

Determinism contract: a plan contains no hidden randomness. Faults
trigger on *counted* events — the n-th matching cross-host transfer, a
virtual time, a hop total — so the same plan over the same program
yields the same faults in the same places, every run. The only RNG in
this module is :meth:`FaultPlan.random`, which *generates* a plan from
a seed; once generated, the plan itself is again fully deterministic.

Fault vocabulary
----------------
:class:`Crash`         fail-stop of a PE (sim: place; process: worker
                       host), at a virtual time or a global hop count
:class:`MessageFault`  drop / duplicate / delay one class of cross-host
                       transfers ("hop" = migrating messengers,
                       "send" = point-to-point messages)
:class:`SlowNode`      degrade one PE's compute rate by a factor

One meaning on every fabric: :meth:`PlanRuntime.verdict` is the only
place a message fault is decided (deliver, delay, dedup, twice,
retransmit or lost). Every fault outcome — the last five, and the
crash outcomes a fabric meets (a masked crash, a PE down, a transfer
into a crashed PE, a crash casualty, a worker SIGKILL, a respawn) — is
one row of one table, counted by :meth:`PlanRuntime.count` in the
run's own ``counts`` and named there for the trace. The fabrics act the outcome
out in their own clock and decide nothing. A spec's
``place``/``src``/``dst`` index the fabric's own domain
(:func:`resolve_place`): PEs on sim and thread, worker hosts on process
and socket.

The counts belong to the run that saw the faults, as a MESSENGERS
daemon fails and recovers per host: a fabric built with a plan exposes
its own (``fault_counts``), and no tally is shared between runs.

The ambient :func:`injected` context mirrors
:func:`repro.fabric.desim.perturbed`: every fabric constructed inside
the context interprets the plan, which is how fault injection reaches
fabrics built deep inside the table builders; the context yields the
summed counts of those fabrics' runs (a :class:`Tally`).
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, NamedTuple

from ..errors import FaultPlanError, TopologyError

__all__ = [
    "Crash",
    "MessageFault",
    "SlowNode",
    "FaultPlan",
    "PlanRuntime",
    "Tally",
    "Verdict",
    "DELIVER",
    "COUNTERS",
    "injected",
    "ambient",
    "counts_of",
    "resolve_place",
]

#: what a fault outcome can count: it fired, recovery masked it, or it
#: lost a messenger, a message or a PE's node variables
COUNTERS = ("fired", "masked", "lost")

_ACTIONS = ("drop", "duplicate", "delay")
_KINDS = ("any", "hop", "send")


def _check_place(place) -> None:
    if isinstance(place, int):
        return
    if isinstance(place, (tuple, list)) and all(
            isinstance(x, int) for x in place):
        return
    raise FaultPlanError(
        f"fault place must be a place index or coordinate, got {place!r}")


@dataclass(frozen=True)
class Crash:
    """Fail-stop of one PE.

    ``place`` is a place index (any topology) or a coordinate; on the
    process fabric it names the worker *host* index. Exactly one of
    ``at_time`` (virtual seconds on the sim fabric, wall seconds on the
    process fabric) or ``at_hop`` (fires when the global cross-host hop
    count reaches the value) must be given.
    """

    place: Any
    at_time: float | None = None
    at_hop: int | None = None

    def __post_init__(self):
        _check_place(self.place)
        if (self.at_time is None) == (self.at_hop is None):
            raise FaultPlanError(
                "Crash needs exactly one of at_time / at_hop")
        if self.at_time is not None and self.at_time < 0:
            raise FaultPlanError(f"negative crash time {self.at_time}")
        if self.at_hop is not None and self.at_hop < 1:
            raise FaultPlanError(f"crash hop count must be >= 1")


@dataclass(frozen=True)
class MessageFault:
    """Drop, duplicate, or delay matching cross-host transfers.

    ``kind`` selects the transfer class (``"hop"`` for migrating
    messengers, ``"send"`` for point-to-point messages, ``"any"``);
    ``src``/``dst`` (place index or coordinate, None = wildcard) and
    ``tag`` (sends only) narrow the match. The fault fires on the
    ``nth`` matching transfer, or on every ``every``-th when given.
    Matching is by per-spec counters — fully deterministic.
    """

    action: str = "drop"
    kind: str = "any"
    src: Any = None
    dst: Any = None
    tag: Any = None
    nth: int = 1
    every: int | None = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise FaultPlanError(
                f"unknown message fault action {self.action!r}; "
                f"expected one of {_ACTIONS}")
        if self.kind not in _KINDS:
            raise FaultPlanError(
                f"unknown transfer kind {self.kind!r}; "
                f"expected one of {_KINDS}")
        if self.src is not None:
            _check_place(self.src)
        if self.dst is not None:
            _check_place(self.dst)
        if self.nth < 1:
            raise FaultPlanError("nth must be >= 1")
        if self.every is not None and self.every < 1:
            raise FaultPlanError("every must be >= 1")
        if self.seconds < 0:
            raise FaultPlanError("seconds must be >= 0")
        if self.action == "delay" and self.seconds == 0:
            raise FaultPlanError("a delay fault needs seconds > 0")


@dataclass(frozen=True)
class SlowNode:
    """Multiply one PE's compute cost by ``factor`` from ``from_time``."""

    place: Any
    factor: float = 2.0
    from_time: float = 0.0

    def __post_init__(self):
        _check_place(self.place)
        if self.factor <= 0:
            raise FaultPlanError(f"slow factor must be > 0, got {self.factor}")
        if self.from_time < 0:
            raise FaultPlanError("from_time must be >= 0")


_SPEC_TYPES = {"crash": Crash, "message": MessageFault, "slow": SlowNode}
_TYPE_NAMES = {Crash: "crash", MessageFault: "message", SlowNode: "slow"}


def _untuple(value):
    """JSON-safe place/src/dst encoding (tuples become lists)."""
    return list(value) if isinstance(value, tuple) else value


def _retuple(value):
    return tuple(value) if isinstance(value, list) else value


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, serializable set of faults.

    An empty plan is falsy and, by the resilience contract, a fabric
    given an empty (or no) plan behaves byte-identically to one built
    without fault support at all.
    """

    faults: tuple = ()
    seed: int | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, (Crash, MessageFault, SlowNode)):
                raise FaultPlanError(
                    f"unknown fault spec {spec!r}; expected Crash, "
                    f"MessageFault, or SlowNode")

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- views -----------------------------------------------------------
    @property
    def crashes(self) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, Crash))

    @property
    def message_faults(self) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, MessageFault))

    @property
    def slow_nodes(self) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, SlowNode))

    # -- JSON round trip -------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        faults = []
        for spec in self.faults:
            record = {"type": _TYPE_NAMES[type(spec)]}
            for key, value in asdict(spec).items():
                if value is None:
                    continue
                record[key] = _untuple(value)
            faults.append(record)
        return json.dumps(
            {"name": self.name, "seed": self.seed, "faults": faults},
            indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(data, dict) or "faults" not in data:
            raise FaultPlanError(
                'fault plan JSON must be an object with a "faults" list')
        specs = []
        for record in data["faults"]:
            kind = record.get("type")
            spec_cls = _SPEC_TYPES.get(kind)
            if spec_cls is None:
                raise FaultPlanError(
                    f"unknown fault type {kind!r}; expected one of "
                    f"{sorted(_SPEC_TYPES)}")
            kwargs = {k: _retuple(v) for k, v in record.items()
                      if k != "type"}
            try:
                specs.append(spec_cls(**kwargs))
            except TypeError as exc:
                raise FaultPlanError(f"bad {kind} fault record: {exc}")
        return cls(faults=tuple(specs), seed=data.get("seed"),
                   name=data.get("name", ""))

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- seeded generation -----------------------------------------------
    @classmethod
    def random(cls, seed: int, places: int, *, crashes: int = 1,
               drops: int = 2, duplicates: int = 0, slow: int = 0,
               horizon: float = 1.0, dup_kind: str = "send",
               name: str = "") -> "FaultPlan":
        """Generate a plan deterministically from ``seed``.

        ``places`` bounds the place indices drawn; ``horizon`` bounds
        crash times and slow-node onsets. ``dup_kind`` selects the
        transfer class of duplicate faults (hop-only fabrics want
        ``"hop"``; the default keeps historic plans stable). The same
        (seed, arguments) always produce an identical plan.
        """
        rng = random.Random(seed)
        specs: list = []
        for _ in range(crashes):
            specs.append(Crash(
                place=rng.randrange(places),
                at_time=round(rng.uniform(0.0, horizon), 9)))
        for _ in range(drops):
            specs.append(MessageFault(
                action="drop", kind=rng.choice(("hop", "send", "any")),
                nth=rng.randrange(1, 25)))
        for _ in range(duplicates):
            specs.append(MessageFault(
                action="duplicate", kind=dup_kind,
                nth=rng.randrange(1, 25)))
        for _ in range(slow):
            specs.append(SlowNode(
                place=rng.randrange(places),
                factor=round(rng.uniform(1.5, 4.0), 6),
                from_time=round(rng.uniform(0.0, horizon), 9)))
        return cls(faults=tuple(specs), seed=seed,
                   name=name or f"random-{seed}")


# -- ambient plan (reaches fabrics built inside table builders) ----------

_AMBIENT: dict = {"plan": None, "recovery": True, "tally": None}


class Tally:
    """The summed counts of every run that interprets one
    :func:`injected` plan, read live (``tally["fired"]``): a
    :class:`PlanRuntime` built for the plan a scope installed joins that
    scope's tally, so the sum is complete once the fabrics built in the
    scope have run."""

    def __init__(self):
        self.runtimes: list = []

    def __getitem__(self, key) -> int:
        return sum(runtime.counts[key] for runtime in self.runtimes)


@contextmanager
def injected(plan: FaultPlan, recovery: bool = True):
    """Make every fabric built in this context interpret ``plan``, and
    yield the :class:`Tally` of their fault counts.

    Mirrors :func:`repro.fabric.desim.perturbed`: the table builders
    construct their fabrics internally, so this is how a fault plan
    reaches a whole golden sweep, and how its counts come back.
    ``recovery=False`` lets the injected faults actually lose
    messengers and messages.
    """
    prior = dict(_AMBIENT)
    tally = Tally()
    _AMBIENT.update(plan=plan, recovery=recovery, tally=tally)
    try:
        yield tally
    finally:
        _AMBIENT.update(prior)


def ambient(faults: FaultPlan | None = None, recovery=True) -> tuple:
    """The ``(plan, recovery)`` pair a fabric built with ``faults`` and
    ``recovery`` interprets: an explicit plan wins, otherwise the pair
    :func:`injected` installed, if any."""
    if faults is None and _AMBIENT["plan"] is not None:
        return _AMBIENT["plan"], _AMBIENT["recovery"]
    return faults, recovery


def counts_of(runtime: "PlanRuntime | None") -> dict:
    """A copy of a run's fault counts; all zero for a run without a
    plan (``runtime`` None)."""
    if runtime is None:
        return dict.fromkeys(COUNTERS, 0)
    return dict(runtime.counts)


def resolve_place(spec_place, topology, index_of: dict):
    """Map a spec's place to the fabric's index domain, or None.

    ``index_of`` maps each PE coordinate to the fabric's index: the PE
    index on sim and thread, the worker host on process and socket. An
    int names an index of that domain, a coordinate the index of its
    PE. A spec naming a place the fabric does not have is inert, so one
    plan file drives topologies of different sizes.
    """
    if isinstance(spec_place, int):
        size = max(index_of.values()) + 1
        return spec_place if 0 <= spec_place < size else None
    try:
        coord = topology.normalize(tuple(spec_place))
    except TopologyError:
        return None
    return index_of.get(coord)


# -- message-fault verdicts ----------------------------------------------

class Verdict(NamedTuple):
    """What happens to one cross-host transfer.

    ``outcome`` is one of ``deliver``, ``delay`` (delivered after
    ``spec.seconds``), ``dedup`` (a second copy the receiver's dedup
    discards), ``twice`` (a send delivered twice, recovery off),
    ``retransmit`` (dropped, then delivered again) and ``lost`` (dropped,
    recovery off: the payload was the only copy). ``events`` are the
    ``(trace kind, note)`` pairs the fabric records; the fault event of
    a lost transfer carries its payload bytes.
    """

    outcome: str
    spec: MessageFault | None = None
    events: tuple = ()


DELIVER = Verdict("deliver")

# Every fault outcome: (counters it increments, "trace kind: note" per
# event). A note is formatted with the outcome's fields: {k} the
# transfer kind, {s} a delay's seconds, {coord} the crashed PE, {reason}
# why a messenger was lost, {h} a worker host, {how}, {restart} and
# {replay} a respawn's cause, ordinal and replayed command count.
_OUTCOMES = {
    # message faults, decided by PlanRuntime.verdict
    "delay": (("fired",), "fault: {k} delayed {s}s"),
    "dedup": (("fired", "masked"), "fault: {k} duplicated",
              "dedup: duplicate {k} discarded"),
    "twice": (("fired",), "fault: {k} duplicated (delivered twice)"),
    "retransmit": (("fired", "masked"), "fault: {k} dropped (retransmitted)",
                   "retry: {k} retransmit"),
    "lost": (("fired", "lost"), "fault: {k} dropped (lost)"),
    # a crash on sim: repaired at once with recovery on, else the PE is
    # down and what reaches it is lost (a messenger then as a casualty);
    # only the crash fires, what reaches the down PE is its consequence
    "crash masked": (("fired", "masked"), "checkpoint: crash@{coord}",
                     "fault: crash (masked)", "restore: crash@{coord}"),
    "crash down": (("fired", "lost"),
                   "fault: crash (PE down, node vars lost)"),
    "hop into crashed": ((), "fault: hop into crashed PE"),
    "send into crashed": (("lost",), "fault: send to crashed PE"),
    "casualty": (("lost",), "fault: messenger lost: {reason}"),
    # a crash on the controller fabrics: a real SIGKILL, then a respawn
    "sigkill": (("fired",), "fault: worker {h} SIGKILLed"),
    "respawn": (("masked",), "respawn: worker {h} lost ({how}), respawned "
                "(restart {restart}, replay {replay} cmd(s))"),
}


def _outcome(action: str, kind: str, recovery_enabled: bool) -> str:
    if action == "delay":
        return "delay"
    if action == "duplicate":
        # a messenger has exactly one continuation: a second copy of a
        # hop is always discarded; a second message only with recovery
        return "dedup" if kind == "hop" or recovery_enabled else "twice"
    return "retransmit" if recovery_enabled else "lost"


# -- runtime interpretation ----------------------------------------------

class PlanRuntime:
    """One run's plan: matches it into counted, deterministic hits and
    counts the run's fault outcomes.

    ``index_of`` is the fabric's index domain (see :func:`resolve_place`);
    specs naming a place outside it are inert — a plan written for a
    3x3 grid may safely be applied to a 1-PE sequential run. ``counts``
    is this run's alone; a runtime built for the plan an
    :func:`injected` scope installed also joins that scope's
    :class:`Tally`.
    """

    __slots__ = ("_mfs", "_mf_counts", "_crashes_time", "_crashes_hop",
                 "_slow", "hops", "counts")

    def __init__(self, plan: FaultPlan, topology, index_of: dict):
        def resolve(spec_place):
            return resolve_place(spec_place, topology, index_of)

        self.hops = 0  # cross-host messenger migrations seen
        self.counts = dict.fromkeys(COUNTERS, 0)
        if plan is _AMBIENT["plan"]:
            _AMBIENT["tally"].runtimes.append(self)
        mfs = []
        for spec in plan.message_faults:
            src = None if spec.src is None else resolve(spec.src)
            dst = None if spec.dst is None else resolve(spec.dst)
            if spec.src is not None and src is None:
                continue  # names a place this fabric does not have
            if spec.dst is not None and dst is None:
                continue
            mfs.append((spec, src, dst))
        self._mfs = mfs
        self._mf_counts = [0] * len(mfs)
        by_time, by_hop = [], []
        for spec in plan.crashes:
            index = resolve(spec.place)
            if index is None:
                continue
            (by_time if spec.at_time is not None else by_hop).append(
                (spec, index))
        by_time.sort(key=lambda pair: pair[0].at_time)
        by_hop.sort(key=lambda pair: pair[0].at_hop)
        self._crashes_time = by_time
        self._crashes_hop = by_hop
        self._slow = [
            (index, spec.factor, spec.from_time)
            for spec in plan.slow_nodes
            if (index := resolve(spec.place)) is not None
        ]

    def note_hop(self) -> None:
        self.hops += 1

    def message_action(self, kind: str, src_index: int, dst_index: int,
                       tag=None) -> MessageFault | None:
        """The fault (if any) that fires on this transfer.

        Counters advance on every *match*, whether or not the fault
        fires, so plans compose without order sensitivity. The first
        firing spec wins when several fire at once.
        """
        hit = None
        for i, (spec, src, dst) in enumerate(self._mfs):
            if spec.kind != "any" and spec.kind != kind:
                continue
            if src is not None and src != src_index:
                continue
            if dst is not None and dst != dst_index:
                continue
            if spec.tag is not None and kind == "send" and spec.tag != tag:
                continue
            count = self._mf_counts[i] = self._mf_counts[i] + 1
            if spec.every is not None:
                fired = count % spec.every == 0
            else:
                fired = count == spec.nth
            if fired and hit is None:
                hit = spec
        return hit

    def verdict(self, kind: str, src_index: int, dst_index: int, tag,
                recovery_enabled: bool) -> Verdict:
        """Judge one cross-host transfer; the one place a message fault
        is decided, and counted by :meth:`count`.

        A plan without message faults returns :data:`DELIVER` before
        any matching. Every fabric acts the outcome out in its own
        clock; none re-decides it.
        """
        if not self._mfs:
            return DELIVER
        spec = self.message_action(kind, src_index, dst_index, tag)
        if spec is None:
            return DELIVER
        outcome = _outcome(spec.action, kind, recovery_enabled)
        return Verdict(outcome, spec,
                       self.count(outcome, k=kind, s=spec.seconds))

    def count(self, outcome: str, **fields) -> tuple:
        """Count one fault outcome in this run's ``counts``; return its
        ``(trace kind, note)`` events, the notes filled from
        ``fields``. The one place a fault is counted and named."""
        counters, *events = _OUTCOMES[outcome]
        for key in counters:
            self.counts[key] += 1
        return tuple(tuple(event.format(**fields).split(": ", 1))
                     for event in events)

    def due_crashes(self, now: float) -> list:
        """Pop every crash whose time/hop trigger has been reached."""
        due = []
        while self._crashes_time and self._crashes_time[0][0].at_time <= now:
            due.append(self._crashes_time.pop(0))
        while self._crashes_hop and self._crashes_hop[0][0].at_hop <= self.hops:
            due.append(self._crashes_hop.pop(0))
        return due

    def pending_crashes(self) -> int:
        return len(self._crashes_time) + len(self._crashes_hop)

    def slow_factor(self, place_index: int, now: float) -> float:
        factor = 1.0
        for index, f, from_time in self._slow:
            if index == place_index and now >= from_time:
                factor *= f
        return factor
