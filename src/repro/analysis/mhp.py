"""Static may-happen-in-parallel (MHP) analysis over the navigational IR.

The execution model this abstracts: an entry program is injected once;
every ``InjectStmt`` spawns a child messenger that runs concurrently
with its parent from the injection point on. A program whose inject
site sits inside a loop (or whose parent is itself replicated) becomes
a *class* of concurrently live instances — the paper's pipelined
carriers. Within one instance, statements execute in program order;
across instances and across programs, only three things order work:

* **injection order** — everything the parent did before the inject
  happens-before everything the child does;
* **signal → wait** — a ``waitEvent`` that consumes a ``signalEvent``
  orders the signaler's past before the waiter's future (per-place
  event pairing, the paper's producer/consumer handshake);
* **program order carried through hops** — a hop moves the one thread
  of control, it does not fork it.

The analysis builds, per thread class, a linear *segment* list: the
pre-order statement sequence cut at every wait (a segment *opener*),
signal, and inject (segment *closers*). Segments are the nodes of the
thread-segment graph; edges are sequencing (segment i → i+1), inject
(closing segment → child's first segment) and signal→wait (a segment
closed by ``signal E`` → every segment opened by ``wait E``).
:meth:`MHPAnalysis.ordered` answers "must position *a* of thread A
happen before position *b* of thread B?" by reachability over that
graph — with the crucial twist that a replicated class queried against
itself is modeled as two copies, so program order inside one instance
is never mistaken for an ordering between instances.

Two sound approximations callers must respect:

* A signal→wait edge assumes the event's value-carrying pairing (each
  signal enables the matching waiter at that place). For events that
  live in a *signal cycle* (Figures 13/15's EP/EC — bootstrapped by
  initial signals the analysis cannot see) the edge is unsound: a
  primed waiter proceeds without consuming the in-program signal. The
  ``usable_events`` parameter exists so :mod:`repro.analysis.races` can
  exclude exactly those; the cyclic protocols are then handled by its
  region rules instead.
* Pre-order position is a proxy for execution order; bodies of ``If``
  branches are treated as both executing (conservative for access
  pairs, optimistic for wait guards — a wait inside a branch is seen
  as covering statements after the branch).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..navp import ir
from . import visitor
from .summary import summarize

__all__ = ["ThreadClass", "Segment", "MHPAnalysis", "build_mhp"]


@dataclass(frozen=True)
class ThreadClass:
    """One program as (a class of) running messenger instance(s)."""

    program: str
    parent: str | None       # injecting thread class (None for the root)
    inject_path: tuple | None
    bindings: tuple          # ((param, Expr), ...) at the inject site
    replicated: bool         # can two instances be live at once?
    repl_params: frozenset   # params that differ between instances
    depth: int

    def __repr__(self) -> str:
        mult = "replicated" if self.replicated else "singleton"
        return f"ThreadClass({self.program}, {mult})"


@dataclass(frozen=True)
class Segment:
    """A maximal run of statements between synchronization points.

    ``start``/``end`` delimit pre-order positions (half-open). The
    ``opener`` is ``("wait", event)`` when the segment begins at a wait;
    the ``closer`` is ``("signal", event)`` or ``("inject", program)``
    when the segment ends by performing one.
    """

    thread: str
    index: int
    start: int
    end: int
    opener: tuple | None
    closer: tuple | None


def _build_segments(name: str, summaries) -> list:
    segments: list = []
    start = 0
    opener = None

    def close(end: int, closer) -> None:
        segments.append(Segment(
            thread=name, index=len(segments), start=start, end=end,
            opener=opener, closer=closer))

    for s in summaries:
        if s.wait is not None:
            close(s.pos, None)
            start, opener = s.pos, ("wait", s.wait[0])
        elif s.signal is not None:
            close(s.pos + 1, ("signal", s.signal[0]))
            start, opener = s.pos + 1, None
        elif s.inject is not None:
            close(s.pos + 1, ("inject", s.inject[0]))
            start, opener = s.pos + 1, None
    close(len(summaries), None)
    return segments


class MHPAnalysis:
    """Thread classes + segment graph for one injection closure."""

    def __init__(self, root: str):
        self.root = root
        self.threads: dict[str, ThreadClass] = {}
        self.summaries: dict[str, tuple] = {}
        self.segments: dict[str, list] = {}
        self.missing: set = set()
        self._seg_of: dict[str, list] = {}   # program -> pos -> seg index

    # -- queries ------------------------------------------------------------
    def ordered(self, a_thread: str, a_pos: int, b_thread: str, b_pos: int,
                usable_events=frozenset()) -> bool:
        """Must (thread A, position a) happen before (B, b) — for a pair
        drawn from *different* instances when A is B?

        Same-instance program order is the caller's business (it holds
        trivially and needs no graph). Here A and B are distinct
        running messengers, so when ``a_thread == b_thread`` the class
        is split into two copies and the connecting path must cross an
        inject or signal edge.
        """
        same_class = a_thread == b_thread
        target = (b_thread, 1 if same_class else 0,
                  self._seg_of[b_thread][b_pos])
        start = (a_thread, 0, self._seg_of[a_thread][a_pos])

        def copies(thread: str):
            return (0, 1) if same_class and thread == a_thread else (0,)

        seen = {start}
        frontier = deque([start])
        while frontier:
            thread, copy, index = frontier.popleft()
            if (thread, copy, index) == target:
                return True
            nxt = []
            segs = self.segments[thread]
            if index + 1 < len(segs):
                nxt.append((thread, copy, index + 1))
            closer = segs[index].closer
            if closer is not None:
                kind, operand = closer
                if kind == "signal" and operand in usable_events:
                    for other, other_segs in self.segments.items():
                        for seg in other_segs:
                            if seg.opener == ("wait", operand):
                                for c in copies(other):
                                    nxt.append((other, c, seg.index))
                elif kind == "inject" and operand in self.segments:
                    for c in copies(operand):
                        nxt.append((operand, c, 0))
            for node in nxt:
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
        return False


def build_mhp(root: ir.Program, registry=None) -> MHPAnalysis:
    """Thread classes, segments, and MHP ordering for ``root``'s closure."""
    analysis = MHPAnalysis(root.name)
    get = ir.get_program if registry is None else registry.__getitem__
    analysis.threads[root.name] = ThreadClass(
        program=root.name, parent=None, inject_path=None, bindings=(),
        replicated=False, repl_params=frozenset(), depth=0)
    frontier = deque([root])
    while frontier:
        prog = frontier.popleft()
        me = analysis.threads[prog.name]
        summaries = summarize(prog)
        analysis.summaries[prog.name] = summaries
        segments = _build_segments(prog.name, summaries)
        analysis.segments[prog.name] = segments
        seg_of = [0] * len(summaries)
        for seg in segments:
            for pos in range(seg.start, seg.end):
                seg_of[pos] = seg.index
        analysis._seg_of[prog.name] = seg_of

        for s in summaries:
            if s.inject is None:
                continue
            child_name, bindings = s.inject
            try:
                child = get(child_name)
            except Exception:
                child = None
            if child is None:
                analysis.missing.add(child_name)
                continue
            replicated = me.replicated or bool(s.loops)
            varying = set(s.loops) | set(me.repl_params)
            repl_params = frozenset(
                param for param, expr in bindings
                if any(visitor.uses_var(expr, v) for v in varying))
            known = analysis.threads.get(child_name)
            if known is None:
                analysis.threads[child_name] = ThreadClass(
                    program=child_name, parent=prog.name,
                    inject_path=s.path, bindings=tuple(bindings),
                    replicated=replicated, repl_params=repl_params,
                    depth=me.depth + 1)
                frontier.append(child)
            else:
                # injected from a second site: conservatively widen
                analysis.threads[child_name] = ThreadClass(
                    program=known.program, parent=known.parent,
                    inject_path=known.inject_path, bindings=known.bindings,
                    replicated=True,
                    repl_params=known.repl_params & repl_params,
                    depth=known.depth)
    return analysis
