"""A small deterministic discrete-event simulation kernel.

This is the substrate under :class:`repro.fabric.sim.SimFabric`. It is
a deliberately minimal coroutine-based DES (in the style of SimPy):

* :class:`Simulator` — virtual clock plus a binary-heap event queue;
  ties are broken by a monotonically increasing sequence number, so
  simulations are fully deterministic.
* :class:`SimProcess` — drives a Python generator; the generator
  *yields* waitables and is resumed when they complete.
* Waitables: :class:`Timeout`, ``Resource.acquire()`` (FIFO resource
  with integral capacity — models CPUs and NICs), ``Semaphore.acquire()``
  (counting semaphore — models NavP events), :class:`Trigger` (one-shot
  broadcast event carrying a value), and another :class:`SimProcess`
  (join).

Exceptions raised inside a process abort the simulation and re-raise
from :meth:`Simulator.run` with the process name attached. If the event
queue drains while processes are still blocked, :meth:`Simulator.run`
raises :class:`repro.errors.DeadlockError` naming every blocked process
and what it is waiting on — invaluable when debugging event protocols
like the EP/EC handshake of Figures 13/15.

Fast-path design (the engine carries millions of events per table):

* Every hot class uses ``__slots__``.
* Zero-delay wakeups — resource grants, semaphore releases, trigger
  broadcasts — bypass the heap entirely. They go onto a FIFO side
  deque and are merged back by sequence number, so the executed order
  is *bit-identical* to the all-heap schedule while the dominant event
  class costs O(1) instead of O(log n).
* Yield dispatch is a type-keyed table with the :class:`Timeout` case
  inlined (subclasses of the waitables still resolve, once, through an
  ``isinstance`` fallback that caches its answer).

The module-level :data:`PERF_STATS` counter accumulates executed events
across simulators; ``bench/`` reads it to count the DES events of a
whole table sweep, and ``tests/test_table_goldens.py`` pins that count.

Schedule perturbation (the race-detection fuzzer's hook): the merge of
the immediate deque and the heap is the *one* place the executed order
of same-timestamp events is decided, so a seeded shuffle of exactly
that decision explores every schedule the DES could legally produce
without touching virtual time. ``Simulator(perturb_seed=n)`` — or the
:func:`perturbed` context manager, which reaches simulators constructed
deep inside table builders — pools every ready event at the current
timestamp and picks the next one with a private ``random.Random``.
Timestamps, and therefore every model *time*, are unaffected; only the
tie-break order moves. With no seed the original bit-exact merge loop
runs unchanged.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Generator
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import islice

from ..errors import DeadlockError, SimulationError

__all__ = [
    "Simulator",
    "SimProcess",
    "Timeout",
    "Resource",
    "Semaphore",
    "Trigger",
    "PERF_STATS",
    "perturbed",
]

# Executed-event tally across all Simulator instances (benchmarking aid;
# reset it yourself around a measured region).
PERF_STATS = {"events": 0}

# Ambient perturbation state consulted by Simulator.__init__ when no
# explicit perturb_seed is given. "count" makes each simulator built
# under one perturbed() context draw a distinct-but-reproducible stream.
_PERTURB: dict = {"seed": None, "count": 0}


@contextmanager
def perturbed(seed: int):
    """Make every Simulator built in this context shuffle same-time ties.

    The n-th simulator constructed inside the context seeds its private
    RNG from ``(seed, n)``, so a whole table sweep (which builds many
    simulators internally) is reproducible from the single seed.
    """
    prior = (_PERTURB["seed"], _PERTURB["count"])
    _PERTURB["seed"] = seed
    _PERTURB["count"] = 0
    try:
        yield
    finally:
        _PERTURB["seed"], _PERTURB["count"] = prior


class Timeout:
    """Wait for a fixed amount of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class _Acquire:
    """Internal waitable returned by Resource/Semaphore ``acquire()``."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def __repr__(self) -> str:
        return f"Acquire({self.target!r})"


class Resource:
    """A resource with integral capacity (CPU, NIC, ...).

    ``policy`` selects which waiter is served when a slot frees:
    ``"fifo"`` (the default — the MESSENGERS daemon's ready queue) or
    ``"lifo"``. Usage inside a process generator::

        yield cpu.acquire()
        yield Timeout(work_seconds)
        cpu.release()
    """

    POLICIES = ("fifo", "lifo")

    __slots__ = ("sim", "capacity", "name", "policy", "in_use", "_waiters",
                 "_token")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "",
                 policy: str = "fifo"):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        if policy not in self.POLICIES:
            raise SimulationError(f"unknown resource policy {policy!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or f"resource@{id(self):x}"
        self.policy = policy
        self.in_use = 0
        self._waiters: deque = deque()
        self._token = _Acquire(self)  # immutable, shared by every acquire

    def acquire(self) -> _Acquire:
        return self._token

    def _request(self, process: "SimProcess") -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._immediate.append((seq, process._wake, None))
        else:
            self._waiters.append(process)

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name}")
        if self._waiters:
            process = (self._waiters.popleft() if self.policy == "fifo"
                       else self._waiters.pop())
            # capacity slot transfers directly to the next waiter
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._immediate.append((seq, process._wake, None))
        else:
            self.in_use -= 1

    def waiting(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return (f"Resource({self.name}, {self.in_use}/{self.capacity} used, "
                f"{len(self._waiters)} waiting)")


class Semaphore:
    """A counting semaphore — the model for NavP events.

    ``signalEvent`` is :meth:`release`; ``waitEvent`` is
    ``yield sem.acquire()``. Counting (rather than sticky) semantics
    are required by the paper's producer/consumer handshake: each
    ``EP``/``EC`` signal enables exactly one waiter.
    """

    __slots__ = ("sim", "count", "name", "_waiters", "_token")

    def __init__(self, sim: "Simulator", initial: int = 0, name: str = ""):
        if initial < 0:
            raise SimulationError("semaphore count must be >= 0")
        self.sim = sim
        self.count = initial
        self.name = name or f"semaphore@{id(self):x}"
        self._waiters: deque = deque()
        self._token = _Acquire(self)

    def acquire(self) -> _Acquire:
        return self._token

    def _request(self, process: "SimProcess") -> None:
        if self.count > 0:
            self.count -= 1
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._immediate.append((seq, process._wake, None))
        else:
            self._waiters.append(process)

    def release(self, n: int = 1) -> None:
        if n < 1:
            raise SimulationError("semaphore release count must be >= 1")
        for _ in range(n):
            if self._waiters:
                process = self._waiters.popleft()
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                sim._immediate.append((seq, process._wake, None))
            else:
                self.count += 1

    def waiting(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return (f"Semaphore({self.name}, count={self.count}, "
                f"{len(self._waiters)} waiting)")


class Trigger:
    """A one-shot broadcast event carrying an optional value."""

    __slots__ = ("sim", "name", "fired", "value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name or f"trigger@{id(self):x}"
        self.fired = False
        self.value = None
        self._waiters: list = []

    def fire(self, value=None) -> None:
        if self.fired:
            raise SimulationError(f"trigger {self.name} fired twice")
        self.fired = True
        self.value = value
        sim = self.sim
        immediate = sim._immediate
        for process in self._waiters:
            sim._seq = seq = sim._seq + 1
            immediate.append((seq, process._wake, value))
        self._waiters.clear()

    def _request(self, process: "SimProcess") -> None:
        if self.fired:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._immediate.append((seq, process._wake, self.value))
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"Trigger({self.name}, {state})"


class SimProcess:
    """A generator-driven simulation process."""

    __slots__ = ("sim", "gen", "name", "result", "waiting_on", "alive",
                 "_done", "_wake", "_send")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or f"process@{id(self):x}"
        self.result = None
        self.waiting_on = None
        self.alive = True
        self._done: Trigger | None = None  # created on first join
        self._wake = self._resume  # pre-bound: every event stores this
        self._send = gen.send

    @property
    def done(self) -> Trigger:
        """Completion trigger (lazily created; fires with the result)."""
        trigger = self._done
        if trigger is None:
            trigger = Trigger(self.sim, name=f"{self.name}.done")
            if not self.alive:
                trigger.fired = True
                trigger.value = self.result
            self._done = trigger
        return trigger

    def _finish(self, result) -> None:
        self.alive = False
        self.sim._alive -= 1
        self.result = result
        if self._done is not None:
            self._done.fire(result)

    def _resume(self, value) -> None:
        self.waiting_on = None
        try:
            item = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as exc:
            self.alive = False
            self.sim._alive -= 1
            self.sim._fail(self, exc)
            return
        self.waiting_on = item
        cls = item.__class__
        if cls is Timeout:  # the single hottest yield, scheduled inline
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            delay = item.delay  # Timeout.__init__ guarantees delay >= 0
            if delay == 0.0:
                sim._immediate.append((seq, self._wake, None))
            else:
                heappush(sim._queue, (sim.now + delay, seq, self._wake, None))
        elif cls is _Acquire:
            item.target._request(self)
        else:
            self._dispatch(item)

    def _dispatch(self, item) -> None:
        handler = _DISPATCH.get(item.__class__)
        if handler is None:
            handler = _resolve_dispatch(item.__class__)
        if handler is None:
            self.alive = False
            self.sim._alive -= 1
            exc = SimulationError(
                f"process {self.name} yielded unsupported item {item!r}"
            )
            self.sim._fail(self, exc)
            return
        handler(self, item)

    def __repr__(self) -> str:
        state = f"waiting on {self.waiting_on!r}" if self.alive else "done"
        return f"SimProcess({self.name}, {state})"


def _wait_timeout(process: SimProcess, item: Timeout) -> None:
    process.sim._schedule(item.delay, process._resume, None)


def _wait_acquire(process: SimProcess, item: _Acquire) -> None:
    item.target._request(process)


def _wait_trigger(process: SimProcess, item: Trigger) -> None:
    item._request(process)


def _wait_process(process: SimProcess, item: SimProcess) -> None:
    item.done._request(process)


# Type-keyed yield dispatch. Exact types hit the dict; subclasses of a
# waitable resolve once through _resolve_dispatch and are then cached.
_DISPATCH: dict = {
    Timeout: _wait_timeout,
    _Acquire: _wait_acquire,
    Trigger: _wait_trigger,
    SimProcess: _wait_process,
}

_DISPATCH_BASES = (
    (Timeout, _wait_timeout),
    (_Acquire, _wait_acquire),
    (Trigger, _wait_trigger),
    (SimProcess, _wait_process),
)


def _resolve_dispatch(cls):
    for base, handler in _DISPATCH_BASES:
        if issubclass(cls, base):
            _DISPATCH[cls] = handler
            return handler
    return None


class Simulator:
    """Virtual clock plus deterministic event queue."""

    __slots__ = ("now", "_queue", "_immediate", "_seq", "_processes",
                 "_failure", "_alive", "events_executed", "_rng",
                 "deadlock_hint")

    def __init__(self, perturb_seed: int | None = None):
        self.now = 0.0
        self._queue: list = []
        self._immediate: deque = deque()  # zero-delay events, FIFO by seq
        self._seq = 0
        self._processes: list[SimProcess] = []
        self._failure: tuple | None = None
        self._alive = 0
        self.events_executed = 0
        # Callable returning extra text for DeadlockError (or None);
        # SimFabric points this at the static protocol analyzer so a
        # deadlock names the wait/signal cycle that predicted it.
        self.deadlock_hint: Callable | None = None
        if perturb_seed is None and _PERTURB["seed"] is not None:
            n = _PERTURB["count"]
            _PERTURB["count"] = n + 1
            perturb_seed = _PERTURB["seed"] * 1_000_003 + n
        self._rng = (None if perturb_seed is None
                     else random.Random(perturb_seed))

    # -- low-level scheduling -------------------------------------------
    def _schedule(self, delay: float, fn: Callable, arg) -> None:
        seq = self._seq + 1
        self._seq = seq
        if delay == 0.0:
            self._immediate.append((seq, fn, arg))
        elif delay > 0.0:
            heappush(self._queue, (self.now + delay, seq, fn, arg))
        else:
            raise SimulationError(f"cannot schedule in the past ({delay})")

    def _fail(self, process: SimProcess, exc: Exception) -> None:
        if self._failure is None:
            self._failure = (process, exc)

    # -- public API -------------------------------------------------------
    def resource(self, capacity: int = 1, name: str = "") -> Resource:
        return Resource(self, capacity, name)

    def semaphore(self, initial: int = 0, name: str = "") -> Semaphore:
        return Semaphore(self, initial, name)

    def trigger(self, name: str = "") -> Trigger:
        return Trigger(self, name)

    def spawn(self, gen: Generator, name: str = "",
              delay: float = 0.0) -> SimProcess:
        """Add a process; it takes its first step at ``now + delay``."""
        process = SimProcess(self, gen, name)
        self._processes.append(process)
        self._alive += 1
        self._schedule(delay, process._wake, None)
        return process

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains (or virtual time ``until``).

        Returns the final virtual time. Raises the first process
        exception, or :class:`DeadlockError` if blocked processes
        remain when the queue empties.

        The merge rule below replays the exact (time, seq) order a pure
        heap would produce: an immediate event carries the timestamp it
        was scheduled at (always the current clock), so the only
        candidate that may precede the immediate front is a heap event
        at the same timestamp with a smaller sequence number.
        """
        if self._rng is not None:
            return self._run_perturbed(until)
        queue = self._queue
        immediate = self._immediate
        pop = heappop
        executed = 0
        try:
            while self._failure is None:
                if immediate:
                    if (queue and queue[0][0] == self.now
                            and queue[0][1] < immediate[0][0]):
                        _time, _seq, fn, arg = pop(queue)
                    else:
                        _seq, fn, arg = immediate.popleft()
                elif queue:
                    time = queue[0][0]
                    if until is not None and time > until:
                        self.now = until
                        return self.now
                    if time < self.now:
                        raise SimulationError(
                            "event queue time went backwards")
                    _time, _seq, fn, arg = pop(queue)
                    self.now = time
                else:
                    break
                fn(arg)
                executed += 1
        finally:
            self.events_executed += executed
            PERF_STATS["events"] += executed
        return self._epilogue(until)

    def _run_perturbed(self, until: float | None) -> float:
        """The fuzzing twin of :meth:`run`.

        All events ready at the current timestamp — the whole immediate
        deque plus every heap entry whose time equals ``now`` — form a
        pool, and the seeded RNG picks which runs next. Each executed
        event may append new zero-delay work, which joins the pool on
        the next iteration, so the shuffle covers cascades too. The
        clock only advances when the pool is empty.
        """
        queue = self._queue
        immediate = self._immediate
        rng = self._rng
        pool: list = []
        executed = 0
        try:
            while self._failure is None:
                while immediate:
                    pool.append(immediate.popleft())
                while queue and queue[0][0] == self.now:
                    _time, seq, fn, arg = heappop(queue)
                    pool.append((seq, fn, arg))
                if not pool:
                    if not queue:
                        break
                    time = queue[0][0]
                    if until is not None and time > until:
                        self.now = until
                        return self.now
                    if time < self.now:
                        raise SimulationError(
                            "event queue time went backwards")
                    self.now = time
                    continue
                i = rng.randrange(len(pool))
                entry = pool[i]
                pool[i] = pool[-1]
                del pool[-1]
                _seq, fn, arg = entry
                fn(arg)
                executed += 1
        finally:
            self.events_executed += executed
            PERF_STATS["events"] += executed
        return self._epilogue(until)

    def _epilogue(self, until: float | None) -> float:
        if self._failure is not None:
            process, exc = self._failure
            raise SimulationError(
                f"process {process.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc
        if self._alive and until is None:
            blocked = list(islice(
                (p for p in self._processes if p.alive), 21))
            detail = "; ".join(
                f"{p.name} waiting on {p.waiting_on!r}" for p in blocked[:20]
            )
            more = ("" if self._alive <= 20
                    else f" (+{self._alive - 20} more)")
            message = (
                f"{self._alive} process(es) blocked with no pending events: "
                f"{detail}{more}"
            )
            hint = self.deadlock_hint
            if hint is not None:
                try:
                    extra = hint()
                except Exception:
                    extra = None
                if extra:
                    message = f"{message}\n{extra}"
            raise DeadlockError(message)
        return self.now

    def alive_count(self) -> int:
        """Processes still alive — O(1), maintained by spawn/finish."""
        return self._alive
