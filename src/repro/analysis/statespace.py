"""Explicit-state semantics for navigational wait/signal protocols.

This module is the engine room of the protocol model checker
(:mod:`repro.analysis.protocol_mc`). It does two things:

**Trace extraction** (:func:`extract_system`): run each injected
program through the interpreter itself — the compiled code the fabrics
run (:func:`repro.navp.interp.advance`) — over a node store whose every
read is :data:`OPAQUE` and whose writes are dropped. Loop bounds, hop
coordinates and event keys are evaluated exactly (every paper program
has ``Const`` bounds and affine tours over concrete bindings), while
kernel outputs and node data are the opaque token, which absorbs
arithmetic, comparisons and subscripts. Each messenger flattens into a
finite sequence of synchronization events: ``hop(src, dst)``,
``wait(key)``, ``signal(key, count)`` and ``spawn(child)``, where a key
is ``(host, event, args)``. An opaque value at a *control* position (a
loop bound, branch condition, subscript, hop coordinate or event
argument), or any error the interpreter raises, is an
:class:`AbstractionError` naming the statement — the checker reports
the program as unsupported instead of guessing.

**State-space exploration** (:class:`Explorer`): exhaustive memoized
DFS over the interleavings of those traces. A global state is the
vector of per-thread ``(pc, phase)`` codes; the pending-signal
multiset, per-``(src, dst)`` in-flight hop counts and per-host mailbox
depths are all functions of that vector and are maintained
incrementally with undo on backtrack. Hops are two micro-steps — a
*send* (the messenger leaves its host; the destination mailbox deepens)
and a *retire* (the destination worker dequeues it; the messenger
resumes there) — which is exactly the window in which credit-based
backpressure and hop coalescing reorder arrivals on the socket fabric.

Partial-order reduction uses singleton stubborn sets ("eager" moves):
a transition that can never be disabled by, and commutes to the left
of, every other thread's remaining operations is executed immediately
without branching. Under infinite-window semantics that covers sends,
retires, signals, spawns, and waits on keys with a single waiting
thread — the concrete analogue of the affine
:func:`~repro.analysis.distance.keys_never_equal` disjointness oracle:
two waits compete only when their *concrete* keys are equal, so a key
owned by one thread commutes with the world. The only branch points
left are waits on contended keys (and, in the credit-gated mode,
everything — see below). Deadlock reachability is preserved because
every eager move satisfies the stubborn-set conditions: it is enabled,
cannot be disabled by others, and commutes (signals/sends only add
tokens or counters; a single-waiter consume has no competitor). The
state space is a DAG (every transition strictly advances some thread),
so the ignoring problem of cycle-closing POR does not arise. The
closure is a worklist: a step can make only its own thread, a spawned
child or the sole waiter of the key it signals eager, so only those
are probed again — work proportional to steps, not steps × threads.

Symmetric replicated instances — threads whose extracted traces are
byte-identical, the concrete image of an
:class:`~repro.analysis.mhp.ThreadClass` whose replication parameter
never reaches a synchronization key — are interchangeable, so states
are canonicalized by sorting their codes within each symmetry group
before memoization. A memo key is the canonical code vector packed
into a byte string (one byte per thread when every code fits).

Sleep sets (Godefroid, *Partial-Order Methods for the Verification of
Concurrent Systems*, LNCS 1032, 1996) stop the DFS from walking every
order of two branches that commute. Two branches are dependent only
when both consume a token of the same contended key; a lazy retire
commutes with every branch. After a branch is taken, the branches taken
before it at the same state, and the ones that were already asleep,
sleep in its subtree unless they depend on it: their successors there
are states an earlier order of the same moves has reached. The memo
stores each state's sleep set, in canonical thread positions so it
survives the symmetry sort; a revisit takes only the branches that
slept last time and are awake now, and keeps what slept both times.
A pruned branch leads only to a state the DFS has already visited, so
states, terminals and counterexamples are what the unreduced DFS finds;
only the transition counts fall. The deadlock test reads the enabled
branches before sleep filtering. In the gated mode every pair is
dependent and the sleep sets stay empty.

Two credit regimes are modeled:

* ``window=None`` — the sim/thread/process-fabric semantics: sends are
  never gated. Peaks of the per-host mailbox depth are still tracked.
* a finite ``window`` — the socket-fabric semantics:
  a send toward ``dst`` requires ``in_flight(src, dst) < window``;
  a messenger that commits to a full-window hop *blocks its entire
  host* (the single-threaded worker sits in ``emit_hop``), freezing
  co-located messengers and mailbox retirement until credit returns —
  the mechanism behind real credit-starvation deadlocks. Gated
  exploration branches on every enabled transition (no eager moves):
  host blocking couples co-located operations, so the singleton
  stubborn argument no longer applies.

Per-destination mailbox peaks are computed *exactly* by dedicated
passes that make retirement into one host lazy (a branch point) while
everything else stays eager: delaying other hosts' retires or sends is
never enabling under infinite-window semantics, and contended-key
token allocation is still branched on, so the adversarial schedule
that maximizes one mailbox is always explored.

A mailbox pass is a branch-and-bound search. A thread adds at most 1 to
a depth, so no descendant of a state can hold more hops to host ``h``
than the threads, spawned or not, that have yet to retire their last
hop into ``h`` (``rem_h``), nor more on an in-edge ``e`` than those yet
to retire their last hop on ``e`` (``rem_e``). Both counts only fall
along a path. A closed state where ``rem_h`` and every ``rem_e`` are
within the peaks found so far is dropped before it is memoized. The
peaks only grow, so a state that could still beat the final peaks is
never dropped, and the sleep-set argument holds among those states:
the pass's ``peaks[h]`` and the in-flight peaks of ``h``'s in-edges
are exact. Every other peak a mailbox pass reports is a lower bound,
and it is no deadlock search (it runs after pass A has proved
deadlock-freedom).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

from ..errors import AnalysisError
from ..navp import ir
from ..navp.interp import advance

__all__ = [
    "AbstractionError", "ThreadTrace", "Schedule", "ExploreResult",
    "TraceSystem", "Explorer", "extract_system", "extract_traces", "OPAQUE",
]


class AbstractionError(AnalysisError):
    """The program escapes the checker's concrete abstraction."""


def _absorb(self, *_other):
    return OPAQUE


def _refuse(what: str):
    def refuse(self):
        raise AbstractionError(f"{what} depends on runtime data")
    return refuse


class _Opaque:
    """Unknown runtime value (kernel output, node data). It absorbs the
    IR's arithmetic, comparisons and subscripts, so a data position
    computes through it; a *control* use — truth (a branch or a loop
    bound) or an index — raises :class:`AbstractionError` rather than
    guess. Hashable so it can sit inside env snapshots."""

    __slots__ = ()
    __array_ufunc__ = None      # an ndarray operand defers to us
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _absorb
    __mod__ = __rmod__ = __floordiv__ = __rfloordiv__ = _absorb
    __eq__ = __ne__ = __lt__ = __gt__ = __getitem__ = _absorb
    __hash__ = object.__hash__
    __bool__ = _refuse("a branch or loop bound")
    __index__ = _refuse("a subscript")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<opaque>"


OPAQUE = _Opaque()

# thread phases
_NOT_SPAWNED, _READY, _TRANSIT, _BLOCKED, _DONE = range(5)
_PHASES = 5

# compiled ops are ``(kind, a, host, b)``, ``host`` being where the op
# executes: hop (edge, src, dst), wait (key, host, 0), signal (key,
# host, count), spawn (child, host, 0) -- all interned ids
_HOP, _WAIT, _SIGNAL, _SPAWN = range(4)

# transition kinds
_SEND, _RETIRE, _BLOCK, _UNBLOCK, _CONSUME, _STEP = range(6)

_HOP_ACTIONS = {_SEND: "send", _RETIRE: "retire", _BLOCK: "block",
                _UNBLOCK: "unblock"}


@dataclass(frozen=True)
class ThreadTrace:
    """One messenger's finite synchronization trace.

    ``ops`` entries (``path`` is the IR statement path, for messages):

    - ``("hop", src_host, dst_host, path)``
    - ``("wait", key, path)`` with ``key = (host, event, args)``
    - ``("signal", key, count, path)``
    - ``("spawn", child_index, host, path)``
    """

    label: str
    program: str
    ops: tuple
    spawner: int | None = None


@dataclass(frozen=True)
class Schedule:
    """A concrete interleaving — the counterexample currency.

    ``steps`` is a tuple of ``(thread_label, action, detail)`` strings
    describing the exact order of synchronization micro-steps from the
    initial state to the property violation.
    """

    steps: tuple
    blocked: tuple = ()   # (thread_label, why) at the final state

    def describe(self, limit: int | None = None) -> str:
        steps = self.steps if limit is None else self.steps[-limit:]
        skipped = len(self.steps) - len(steps)
        lines = []
        if skipped:
            lines.append(f"  ... {skipped} earlier step(s)")
        lines.extend(f"  {i + skipped + 1}. {label}: {action} {detail}"
                     for i, (label, action, detail) in enumerate(steps))
        if self.blocked:
            lines.append("  stuck: " + "; ".join(
                f"{label} {why}" for label, why in self.blocked))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "steps": [list(s) for s in self.steps],
            "blocked": [list(b) for b in self.blocked],
        }


# --------------------------------------------------------------------------
# trace extraction: the interpreter over an opaque node store
# --------------------------------------------------------------------------

#: actions one extraction may take before the protocol counts as too
#: large for explicit-state checking
_MAX_OPS = 200_000


class _Site:
    """The tracer extraction runs the interpreter with: it keeps the
    ``(path, pc)`` of the statement executing and ignores node access."""

    __slots__ = ("site",)

    def __init__(self):
        self.site = ((), 0)

    def on_read(self, name, key):
        pass

    on_write = on_read


class _OpaqueStore:
    """A node store whose every read is OPAQUE and every write dropped."""

    __slots__ = ()

    def get(self, name, default=None):
        return OPAQUE

    def setdefault(self, name, default=None):
        return self

    def __setitem__(self, key, value):
        pass


_NODES = _OpaqueStore()


def _key_repr(key) -> str:
    host, event, args = key
    inner = event if not args else f"{event}{list(args)!r}"
    return f"{inner}@{host!r}"


def _unsupported(prog: ir.Program, spath: tuple, what) -> AbstractionError:
    return AbstractionError(f"{prog.name} @ {list(spath)!r}: {what}")


def _concrete(values: tuple, prog, spath: tuple, what: str) -> tuple:
    if any(v is OPAQUE for v in values):
        raise _unsupported(prog, spath, f"{what} depends on runtime data")
    return values


def extract_system(roots, registry=None) -> tuple:
    """Extract traces for a system of concurrently injected roots.

    ``roots`` is a list of ``(program_name, entry_coord, env)`` tuples;
    every injected child becomes its own trace, in spawn pre-order.
    Each thread is the interpreter (:func:`repro.navp.interp.advance`)
    run over an opaque node store, its programs taken from ``registry``;
    any error it raises is an :class:`AbstractionError` naming the
    statement. Returns ``(traces, root_indices)``.
    """
    if registry is None:
        registry = ir.REGISTRY
    traces: list = []
    counts: dict = {}
    budget = _MAX_OPS

    def run(name: str, place: tuple, env: dict, spawner) -> int:
        nonlocal budget
        index = len(traces)
        traces.append(None)  # reserve the slot: children come after
        try:
            prog = registry[name]
        except KeyError:
            raise AbstractionError(
                f"injected program {name!r} is not in the registry"
            ) from None
        n = counts.get(name, 0)
        counts[name] = n + 1
        ops: list = []
        stack: list = [[(), 0, None]]
        tracer = _Site()
        while True:
            try:
                action = advance(prog, stack, env, _NODES, tracer)
            except Exception as exc:
                path, pc = tracer.site
                raise _unsupported(prog, path + (pc,), exc) from exc
            if action is None:
                break
            budget -= 1
            if budget < 0:
                raise AbstractionError(
                    f"{prog.name}: trace exceeds {_MAX_OPS} "
                    f"synchronization-relevant steps; the protocol is "
                    f"too large for explicit-state checking")
            path, pc = tracer.site
            spath = path + (pc,)
            kind = action[0]
            if kind == "compute":
                env[action[3]] = OPAQUE
            elif kind == "hop":
                coord = _concrete(action[1], prog, spath, "hop destination")
                ops.append(("hop", place, coord, spath))
                place = coord
            elif kind == "inject":
                child = run(action[1], place, action[2], index)
                ops.append(("spawn", child, place, spath))
            else:
                key = (place, action[1], _concrete(
                    action[2], prog, spath, f"event key {action[1]!r}"))
                if kind == "wait":
                    ops.append(("wait", key, spath))
                    continue
                count = action[3]
                if count is OPAQUE or not isinstance(count, int):
                    raise _unsupported(prog, spath, "signal count is not "
                                       "statically evaluable")
                if count > 0:
                    ops.append(("signal", key, count, spath))
        traces[index] = ThreadTrace(
            label=name if n == 0 else f"{name}#{n}", program=prog.name,
            ops=tuple(ops), spawner=spawner)
        return index

    indices = [run(name, tuple(entry), dict(env or {}), None)
               for name, entry, env in roots]
    return traces, indices


def extract_traces(root: str, registry=None, entry=(0,),
                   env: dict | None = None) -> list:
    """Single-root sugar over :func:`extract_system`."""
    traces, _ = extract_system([(root, entry, env or {})], registry)
    return traces


# --------------------------------------------------------------------------
# exploration
# --------------------------------------------------------------------------

@dataclass
class ExploreResult:
    """One exploration pass over a system of traces.

    ``complete`` is ``not reason``: the pass answered its question
    without hitting a cap (stopping at the first deadlock is an
    answer). In a mailbox pass (``lazy_host=h``) ``peaks[h]`` and
    the ``inflight_peaks`` of the edges into ``h`` are exact; every
    other peak is a lower bound, and ``states`` and ``terminals``
    count only what the bound left to explore.
    """

    states: int
    transitions: int
    eager_steps: int
    naive_transitions: int     # what full branching would have expanded
    deadlock: Schedule | None
    terminals: int
    peaks: dict                # host -> max mailbox depth reached
    inflight_peaks: dict       # (src, dst) -> max in-flight hops
    reason: str = ""           # why the pass stopped early, if it did
    closure_visits: int = 0    # thread probes made by the eager closure

    @property
    def complete(self) -> bool:
        return not self.reason

    @property
    def reduction_factor(self) -> float:
        """Naive-over-explored transition ratio (POR effectiveness)."""
        return self.naive_transitions / max(1, self.transitions)


class TraceSystem:
    """A system of traces compiled for exploration, once per verdict.

    Keys, hosts and ``(src, dst)`` edges are interned to list indices
    and every op becomes ``(kind, a, host, b)`` (see ``_HOP`` ..
    ``_SPAWN``), so every pass's explorer indexes lists instead of
    hashing tuple keys. ``waiter_of[key]`` is the one thread that ever
    waits on the key — the eager-wait rule — or -1 when the key is
    contended (or never waited on). ``pack`` turns a code vector into
    the byte-string memo key.
    """

    def __init__(self, traces, roots, initial_pending=None):
        self.traces = tuple(traces)
        self.roots = tuple(roots)
        keys, hosts, edges, waiters = {}, {}, {}, {}

        def intern(table, item):
            return table.setdefault(item, len(table))

        ops = []
        for i, t in enumerate(self.traces):
            row = []
            for op in t.ops:
                if op[0] == "hop":
                    row.append((_HOP, intern(edges, op[1:3]),
                                intern(hosts, op[1]), intern(hosts, op[2])))
                elif op[0] == "spawn":
                    row.append((_SPAWN, op[1], intern(hosts, op[2]), 0))
                elif op[0] == "wait":
                    key = intern(keys, op[1])
                    waiters.setdefault(key, set()).add(i)
                    row.append((_WAIT, key, intern(hosts, op[1][0]), 0))
                else:
                    row.append((_SIGNAL, intern(keys, op[1]),
                                intern(hosts, op[1][0]), op[2]))
            ops.append(tuple(row))
        self.ops = tuple(ops)
        self.hosts, self.edges = tuple(hosts), tuple(edges)
        pending = initial_pending or {}
        self.pending0 = [pending.get(key, 0) for key in keys]
        self.waiter_of = [-1] * len(keys)
        for key, threads in waiters.items():
            if len(threads) == 1:
                (self.waiter_of[key],) = threads
        # symmetry groups: byte-identical traces are interchangeable
        by_ops: dict = {}
        for i, t in enumerate(self.traces):
            by_ops.setdefault((t.program, t.ops), []).append(i)
        self.sym_groups = tuple(tuple(g) for g in by_ops.values()
                                if len(g) > 1)
        # state keys are byte strings: one byte per thread code when
        # every code fits, else two (four past 65 535)
        top = max((len(row) for row in ops), default=0) * _PHASES + _PHASES
        if top <= 0x100:
            self.pack = bytes
        else:
            packer = struct.Struct("<%d%s" % (
                len(ops), "H" if top <= 0x10000 else "I")).pack
            self.pack = lambda codes: packer(*codes)


class Explorer:
    """Memoized DFS over the interleavings of a :class:`TraceSystem`.

    ``window=None`` explores the ungated (infinite-credit) semantics
    with eager singleton-stubborn moves and sleep sets; a finite
    ``window`` explores the socket credit semantics with full
    branching. ``lazy_host`` makes retirement into that host a branch
    point and bounds the search by its peaks (a mailbox pass).
    ``deadline`` is an absolute ``time.monotonic()`` instant: one budget
    for all the passes of a verdict. The search stops at the first
    deadlock.
    """

    def __init__(self, system: TraceSystem, *,
                 window: int | None = None,
                 lazy_host: tuple | None = None,
                 max_states: int = 1_000_000,
                 deadline: float | None = None):
        self.system = system
        self.ops = system.ops
        self.window = window
        self.lazy_host = lazy_host
        # the interned lazy host, -1 for none
        self.lazy = -1 if lazy_host is None else \
            system.hosts.index(lazy_host)
        self.max_states = max_states
        self.deadline = deadline

        self.codes = [_NOT_SPAWNED] * len(self.ops)
        self.live = 0
        for i in system.roots:
            self.codes[i] = self._entry_code(i)
        self.pending = list(system.pending0)
        self.inflight = [0] * len(system.edges)
        self.depth = [0] * len(system.hosts)
        self.blocked = [0] * len(system.hosts)
        self.peaks = [0] * len(system.hosts)
        self.inflight_peaks = [0] * len(system.edges)
        # The mailbox bound (module docstring): rem[e] counts the threads
        # yet to retire their last hop on in-edge e of the lazy host,
        # rem[-1] those yet to retire their last hop into it, and
        # drops[i][pc] the counters the retire of thread i's op pc ends.
        self.in_edges = [e for e, (_src, dst) in enumerate(system.edges)
                         if dst == lazy_host]
        self.rem = [0] * (len(system.edges) + 1)
        self.drops = []
        for row in self.ops if self.lazy >= 0 else ():
            marks, ended = [()] * len(row), set()
            for pc in range(len(row) - 1, -1, -1):
                kind, edge, _src, dst = row[pc]
                if kind == _HOP and dst == self.lazy:
                    marks[pc] = tuple(slot for slot in (edge, -1)
                                      if slot not in ended)
                    ended.update(marks[pc])
            for slot in ended:
                self.rem[slot] += 1
            self.drops.append(marks)

    # -- state helpers -----------------------------------------------------

    def _entry_code(self, i: int) -> int:
        if self.ops[i]:
            self.live += 1
            return _READY  # pc 0
        return _DONE       # empty program: born finished

    def _canonical(self):
        """The memo key of a state with symmetry groups: codes sorted
        within each group (ties kept in thread order), and the two
        permutations that sort applied, thread -> canonical position
        and back, for carrying sleep masks across the canonicalization."""
        codes = self.codes
        arr = list(codes)
        to_canon = list(range(len(codes)))
        from_canon = list(to_canon)
        for group in self.system.sym_groups:
            for pos, j in zip(group, sorted(group, key=codes.__getitem__)):
                arr[pos] = codes[j]
                to_canon[j] = pos
                from_canon[pos] = j
        return self.system.pack(arr), to_canon, from_canon

    # -- transitions -------------------------------------------------------

    def _transition(self, i: int):
        """The (at most one) enabled transition of thread ``i``."""
        code = self.codes[i]
        phase = code % _PHASES
        if phase == _NOT_SPAWNED or phase == _DONE:
            return None
        op = self.ops[i][code // _PHASES]
        # only a finite window ever blocks a host
        if phase == _TRANSIT:
            if self.blocked[op[3]]:
                return None  # destination worker is stuck in emit_hop
            return _RETIRE
        if phase == _BLOCKED:
            return _UNBLOCK if self.inflight[op[1]] < self.window else None
        # READY
        if self.blocked[op[2]]:
            return None  # a co-located messenger blocked the worker
        kind = op[0]
        if kind == _HOP:
            if self.window is None or self.inflight[op[1]] < self.window:
                return _SEND
            return _BLOCK
        if kind == _WAIT:
            return _CONSUME if self.pending[op[1]] > 0 else None
        return _STEP  # signal / spawn

    def _apply(self, i: int, kind: int, old: int, op: tuple):
        """Execute a transition of thread ``i`` (at code ``old``, on
        compiled op ``op``); return its undo record."""
        undo = (i, old, kind, op, self.live)
        pc = old // _PHASES
        if kind == _BLOCK:
            self.blocked[op[2]] += 1
            self.codes[i] = pc * _PHASES + _BLOCKED
        elif kind == _SEND or kind == _UNBLOCK:
            edge, dst = op[1], op[3]
            self.inflight[edge] = n = self.inflight[edge] + 1
            if n > self.inflight_peaks[edge]:
                self.inflight_peaks[edge] = n
            self.depth[dst] = d = self.depth[dst] + 1
            if d > self.peaks[dst]:
                self.peaks[dst] = d
            if kind == _UNBLOCK:
                self.blocked[op[2]] -= 1
            self.codes[i] = pc * _PHASES + _TRANSIT
        else:  # the op completes: retire, consume, signal or spawn
            if kind == _RETIRE:
                self.inflight[op[1]] -= 1
                self.depth[op[3]] -= 1
                if op[3] == self.lazy:
                    for slot in self.drops[i][pc]:
                        self.rem[slot] -= 1
            elif kind == _CONSUME:
                self.pending[op[1]] -= 1
            elif op[0] == _SIGNAL:
                self.pending[op[1]] += op[3]
            else:
                self.codes[op[1]] = self._entry_code(op[1])
            pc += 1
            if pc < len(self.ops[i]):
                self.codes[i] = pc * _PHASES + _READY
            else:
                self.live -= 1
                self.codes[i] = pc * _PHASES + _DONE
        return undo

    def _revert(self, undo) -> None:
        i, old, kind, op, self.live = undo
        if kind == _BLOCK:
            self.blocked[op[2]] -= 1
        elif kind == _SEND or kind == _UNBLOCK:
            self.inflight[op[1]] -= 1
            self.depth[op[3]] -= 1
            if kind == _UNBLOCK:
                self.blocked[op[2]] += 1
        elif kind == _RETIRE:
            self.inflight[op[1]] += 1
            self.depth[op[3]] += 1
            if op[3] == self.lazy:
                for slot in self.drops[i][old // _PHASES]:
                    self.rem[slot] += 1
        elif kind == _CONSUME:
            self.pending[op[1]] += 1
        elif op[0] == _SIGNAL:
            self.pending[op[1]] -= op[3]
        else:
            self.codes[op[1]] = _NOT_SPAWNED
        self.codes[i] = old

    # -- the DFS -----------------------------------------------------------

    def _schedule(self, undo_log) -> Schedule:
        """Render the applied steps; only a deadlock ever reads them."""
        traces = self.system.traces
        steps = []
        for i, old, kind, _op, _live in undo_log:
            op = traces[i].ops[old // _PHASES]
            if op[0] == "hop":
                action, detail = _HOP_ACTIONS[kind], f"{op[1]!r} -> {op[2]!r}"
            elif op[0] == "spawn":
                action, detail = "inject", traces[op[1]].label
            else:
                action, detail = op[0], _key_repr(op[1])
            steps.append((traces[i].label, action, detail))
        return Schedule(tuple(steps), self._stuck_report())

    def _stuck_report(self) -> tuple:
        out = []
        for i, t in enumerate(self.system.traces):
            code = self.codes[i]
            phase = code % _PHASES
            if phase in (_NOT_SPAWNED, _DONE):
                continue
            pc = code // _PHASES
            op = t.ops[pc]
            if phase == _TRANSIT:
                why = (f"in transit {op[1]!r} -> {op[2]!r} "
                       f"(destination worker never dequeues it)")
            elif phase == _BLOCKED:
                why = (f"blocked in emit_hop {op[1]!r} -> {op[2]!r} "
                       f"(credit window exhausted)")
            elif op[0] == "wait":
                why = f"waiting on {_key_repr(op[1])} (never signaled)"
            elif op[0] == "hop":
                why = f"cannot send {op[1]!r} -> {op[2]!r}"
            else:
                why = f"frozen at blocked host before {op[0]}"
            out.append((t.label, why))
        return tuple(out)

    def explore(self) -> ExploreResult:
        ops, codes, pending = self.ops, self.codes, self.pending
        system, gated = self.system, self.window is not None
        waiter_of = system.waiter_of
        lazy, pack, sym = self.lazy, system.pack, system.sym_groups
        apply, transition = self._apply, self._transition
        rem, in_edges = self.rem, self.in_edges
        peaks, inflight_peaks = self.peaks, self.inflight_peaks
        bit = [1 << i for i in range(len(codes))]
        seen: dict = {}          # canonical key -> its stored sleep mask
        masks: dict = {}         # one object per distinct mask, shared
        states = branch_steps = eager_steps = naive = terminals = visits = 0
        deadlock = None
        undo_log: list = []      # undo records of the applied steps

        def unwind(to_len):
            while len(undo_log) > to_len:
                self._revert(undo_log.pop())

        def permute(mask, perm):
            # bit j of ``mask`` becomes bit ``perm[j]``
            out = 0
            while mask:
                low = mask & -mask
                mask ^= low
                out |= bit[perm[low.bit_length() - 1]]
            return out

        def enter(wake, parked, sleep):
            """Eager-close, memoize, enumerate.

            ``wake`` and ``parked`` are thread bitmasks: the threads
            whose eagerness can have changed, and the threads sitting
            at a branch point (a contended wait, a lazy retire). A step
            can make only its own thread, a spawned child or the sole
            waiter of the signalled key eager, so the closure probes
            just those, in sweeps by ascending index — a woken thread
            joins this sweep if it is still ahead, the next if not —
            which is the order rescanning every thread until none
            moves would take. ``sleep`` is the sleep set the state is
            entered with: branches whose successors an earlier order
            of the same moves already reached. Returns ``(parked,
            todo, sleep)`` — the branches to take and the sleep set to
            hand on — or None when there is nothing to take, which in
            a mailbox pass includes a closed state whose remaining
            threads cannot beat the host and in-edge peaks found so far.
            """
            nonlocal states, eager_steps, naive, terminals, visits, deadlock
            while wake:
                sweep, wake = wake, 0
                while sweep:
                    low = sweep & -sweep
                    sweep ^= low
                    i = low.bit_length() - 1
                    visits += 1
                    code = codes[i]
                    phase = code % _PHASES
                    if phase != _READY and phase != _TRANSIT:
                        continue
                    op = ops[i][code // _PHASES]
                    woken = -1
                    if phase == _TRANSIT:
                        if op[3] == lazy:
                            parked |= low
                            continue
                        kind = _RETIRE
                    elif op[0] == _HOP:
                        kind = _SEND
                    elif op[0] == _WAIT:
                        # eager only when this thread owns the key
                        if waiter_of[op[1]] < 0:
                            parked |= low
                            continue
                        if not pending[op[1]]:
                            continue
                        kind = _CONSUME
                    else:
                        kind = _STEP
                        woken = op[1] if op[0] == _SPAWN \
                            else waiter_of[op[1]]
                    naive += self.live
                    undo_log.append(apply(i, kind, code, op))
                    eager_steps += 1
                    wake |= low
                    if woken > i:
                        sweep |= bit[woken]
                    elif woken >= 0:
                        wake |= bit[woken]
            if lazy >= 0 and rem[-1] <= peaks[lazy] and all(
                    rem[e] <= inflight_peaks[e] for e in in_edges):
                return None
            if sym:
                key, to_canon, from_canon = self._canonical()
            else:
                key = pack(codes)
            stored = seen.get(key)
            if stored is not None:
                # a revisit takes only what slept last time and is awake
                # now; the stored mask keeps what slept both times
                if sym:
                    stored = permute(stored, from_canon)
                todo = stored & ~sleep
                if not todo:
                    return None
                sleep &= stored
            mask = permute(sleep, to_canon) if sym else sleep
            seen[key] = masks.setdefault(mask, mask)
            if stored is not None:
                return parked, todo, sleep
            states += 1
            enabled = 0
            rest = parked
            while rest:
                low = rest & -rest
                rest ^= low
                if transition(low.bit_length() - 1) is not None:
                    enabled |= low
            if not enabled:
                if self.live > 0:
                    if deadlock is None:
                        deadlock = self._schedule(undo_log)
                else:
                    terminals += 1
                return None
            naive += enabled.bit_count()
            todo = enabled & ~sleep
            return (parked, todo, sleep) if todo else None

        # A frame is ``[base, parked, todo, asleep]``: the undo-log length
        # and parked set at its state's entry (post eager closure), the
        # branches still to take, and the sleep set plus the branches
        # already taken. The mutable state equals the frame's state
        # whenever its next branch is taken, and subtrees unwind back to
        # ``base`` when they return. A branch's child sleeps on what
        # ``asleep`` holds that commutes with it: everything but a
        # consume of the same contended key. Gated exploration never
        # closes eagerly, treats every thread as parked and every pair
        # of branches as dependent, so its sleep sets stay empty.
        everyone = (1 << len(codes)) - 1
        first = enter(0, everyone, 0) if gated else enter(everyone, 0, 0)
        frames = [] if first is None else [[len(undo_log), *first]]
        reason = ""
        ticks = 0
        while frames:
            if deadlock is not None:
                break
            if states > self.max_states:
                reason = f"state cap {self.max_states} exceeded"
                break
            if self.deadline is not None and (ticks & 0x3FF) == 0 and \
                    time.monotonic() > self.deadline:
                reason = "verdict deadline exceeded"
                break
            ticks += 1
            frame = frames[-1]
            base, parked, todo, asleep = frame
            if not todo:
                frames.pop()
                unwind(frames[-1][0] if frames else 0)
                continue
            low = todo & -todo
            frame[2] = todo ^ low
            i = low.bit_length() - 1
            kind = transition(i)
            if kind is None:
                raise AnalysisError(
                    f"internal error: backtracking did not restore the "
                    f"enabled transition of thread {i}")
            code = codes[i]
            op = ops[i][code // _PHASES]
            if gated:
                sleep = 0
            else:
                frame[3] = asleep | low
                sleep = asleep
                if kind == _CONSUME:
                    # a sleeping thread is READY only at a contended wait
                    rivals = asleep
                    while rivals:
                        other = rivals & -rivals
                        rivals ^= other
                        j = other.bit_length() - 1
                        if codes[j] % _PHASES == _READY and \
                                ops[j][codes[j] // _PHASES][1] == op[1]:
                            sleep ^= other
            undo_log.append(apply(i, kind, code, op))
            branch_steps += 1
            wake = 0 if gated else low
            sub = enter(wake, parked & ~wake, sleep)
            if sub is None:
                unwind(base)
            else:
                frames.append([len(undo_log), *sub])
        # fully unwind so the explorer can be reused
        unwind(0)
        hosts, edges = system.hosts, system.edges
        return ExploreResult(
            states=states, transitions=eager_steps + branch_steps,
            eager_steps=eager_steps, naive_transitions=naive,
            deadlock=deadlock, terminals=terminals,
            peaks={h: v for h, v in zip(hosts, self.peaks) if v},
            inflight_peaks={e: v for e, v in
                            zip(edges, self.inflight_peaks) if v},
            reason=reason, closure_visits=visits)



def signal_totals(traces, initial_pending=None) -> dict:
    """Per-key token balance assuming every thread runs to completion:
    ``initial + signaled - waited``. Under proven deadlock-freedom the
    leftover count per key is schedule-invariant, so orphan detection
    is arithmetic, not search."""
    totals = dict(initial_pending or {})
    for t in traces:
        for op in t.ops:
            if op[0] == "signal":
                totals[op[1]] = totals.get(op[1], 0) + op[2]
            elif op[0] == "wait":
                totals[op[1]] = totals.get(op[1], 0) - 1
    return totals
