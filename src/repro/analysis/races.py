"""Static data-race detection: MHP ∩ conflicting node-variable accesses.

A *candidate* is a pair of accesses to the same node variable, at least
one a write, whose instances can be live concurrently (different
programs in one injection closure, or two instances of a replicated
program). A candidate is *cleared* — proven ordered or proven disjoint
— by the first rule that applies:

* **different constant places / keys** — the accesses provably touch
  different memory;
* **program order** (R1) — both sides live in the one instance of a
  singleton program;
* **instance separation** (R1') — for a replicated class, the key and
  place components pin *every* replication parameter with a bare
  variable, so distinct instances touch distinct entries (the pipelined
  carrier writing ``C[mi, mj]`` with ``mi`` bound per instance);
* **graph order** (R2/R5) — the thread-segment graph of
  :mod:`repro.analysis.mhp` reaches one access from the other via
  injection edges (everything a parent did before ``inject`` precedes
  the child) and signal→wait edges of *usable* events (single signal
  site, not primed, not in an unsourced signal cycle — the conditions
  under which "wait consumed that signal" is the only possibility);
* **common guard** (R3) — both accesses execute after a wait on the
  same event family: the event acts as the region token serializing
  the place's accesses (Figure 13's C accumulation under ``EP``);
* **handshake alternation** (R4) — side A runs in a wait(E1)…signal(E2)
  region and side B in wait(E2)…signal(E1): the two-event token
  protocol of the B-slot producer/consumer handshake;
* **keyed handshake** (R6) — within one replicated class, the reader
  waits on exactly the entry it reads (``wait bottom-done(r-1)`` then
  read ``bottom[r-1]``) and every signal of that event follows a write of
  the entry named by its arguments, with the write key pinning the
  instance — the wavefront pipeline's chain dependence.

Everything left is reported as a ``data-race`` diagnostic carrying
both access sites. Guard/region rules are by event *name* (the
per-place, per-args refinement of the runtime is approximated away),
and pre-order position stands in for execution order — approximations
chosen so the golden matmul/wavefront pipelines verify clean while
every seeded corpus race is caught; the dynamic checker
(:mod:`repro.fabric.hb`) cross-validates exactly this contract.

``primed`` names events that receive initial setup-time signals
(Figure 13's "EC is signaled everywhere initially"): a primed event's
signal→wait and keyed-handshake edges are disabled, because a waiter
may have consumed a token carrying no ordering at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..navp import ir
from . import visitor
from .diagnostics import Diagnostic, DiagnosticReport, ERROR
from .distance import keys_never_equal
from .mhp import MHPAnalysis, build_mhp

__all__ = ["StaticAccess", "StaticRace", "RaceAnalysis",
           "analyze_races", "race_diagnostics"]


@dataclass(frozen=True)
class StaticAccess:
    """One node-variable access with its synchronization context."""

    thread: str
    pos: int
    path: tuple
    var: str
    key: tuple                 # normalized key exprs; () = whole variable
    place: tuple | None        # symbolic place exprs, None if unknown
    write: bool
    guards: frozenset          # events waited at an earlier pre-order pos
    guard_sites: tuple         # (event, normalized args, pos, path)
    post_signals: frozenset    # events signalled at a later pre-order pos

    def site(self) -> tuple:
        return (self.thread, self.path, self.var, self.write)

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        entry = f"[{_render_key(self.key)}]" if self.key else ""
        return f"{kind} of {self.var}{entry} in {self.thread} " \
               f"@ {list(self.path)!r}"


@dataclass(frozen=True)
class StaticRace:
    """A candidate no rule could clear."""

    a: StaticAccess
    b: StaticAccess

    @property
    def kind(self) -> str:
        return "write-write" if (self.a.write and self.b.write) \
            else "read-write"

    def describe(self) -> str:
        return (f"{self.kind} race on node variable {self.a.var!r}: "
                f"{self.a.describe()} vs {self.b.describe()}; no "
                f"injection-order, wait/signal, or key-separation rule "
                f"orders the pair")


@dataclass
class RaceAnalysis:
    root: str
    mhp: MHPAnalysis
    accesses: tuple
    races: tuple
    usable_events: frozenset

    @property
    def ok(self) -> bool:
        return not self.races


def _render_key(key: tuple) -> str:
    return ", ".join(repr(e) for e in key)


def _exclusive(path_a: tuple, path_b: tuple) -> bool:
    """True when the paths lie in opposite branches of one ``If``."""
    for pa, pb in zip(path_a, path_b):
        if pa == pb:
            continue
        return (isinstance(pa, tuple) and isinstance(pb, tuple)
                and pa[0] == pb[0] and pa[1] != pb[1])
    return False


def _collect_accesses(analysis: MHPAnalysis) -> list:
    out: list = []
    for name, summaries in analysis.summaries.items():
        waited: set = set()
        wait_sites: list = []
        signal_positions = [
            (s.signal[0], s.pos)
            for s in summaries if s.signal is not None
        ]
        for s in summaries:
            guards = frozenset(waited)
            sites = tuple(wait_sites)
            post = frozenset(
                event for event, pos in signal_positions if pos > s.pos)
            place = tuple(s.place) if s.place is not None else None
            for acc in s.node_reads + s.node_writes:
                out.append(StaticAccess(
                    thread=name, pos=s.pos, path=acc.path, var=acc.var,
                    key=tuple(acc.key), place=place, write=acc.write,
                    guards=guards, guard_sites=sites, post_signals=post,
                ))
            if s.wait is not None:
                event, args = s.wait
                waited.add(event)
                wait_sites.append(
                    (event, visitor.normalize_key(args), s.pos, s.path))
    return out


def _signal_sites(analysis: MHPAnalysis) -> dict:
    """event -> [(thread, normalized args, pos, path)] over the closure."""
    sites: dict = {}
    for name, summaries in analysis.summaries.items():
        for s in summaries:
            if s.signal is not None:
                event, args, _count = s.signal
                sites.setdefault(event, []).append(
                    (name, visitor.normalize_key(args), s.pos, s.path))
    return sites


def _sccs(nodes, edges) -> list:
    """Tarjan's strongly connected components."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list = []
    counter = [0]

    def strongconnect(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in edges.get(v, ()):
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(comp)

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return out


def _cyclic_events(analysis: MHPAnalysis) -> set:
    """Events in a signal cycle that no unguarded signal breaks.

    A signal of ``E`` is *guarded* by ``W`` when a wait on ``W`` comes
    before it in pre-order in the same program; the edge ``W -> E``
    says ``E`` is signalled only after ``W`` was. A strongly connected
    component of that graph with no unguarded signal of any member can
    only make progress from tokens the closure itself never produces
    (Figure 13's primed ``EC``), so "the wait consumed that signal" is
    not the only possibility for its events.
    """
    events: set = set()
    sourced: set = set()
    edges: dict = {}
    for summaries in analysis.summaries.values():
        waited: set = set()
        for s in summaries:
            if s.wait is not None:
                waited.add(s.wait[0])
                events.add(s.wait[0])
            if s.signal is not None:
                event = s.signal[0]
                events.add(event)
                if not waited:
                    sourced.add(event)
                for g in waited:
                    edges.setdefault(g, set()).add(event)
    cyclic: set = set()
    for comp in _sccs(sorted(events), edges):
        if len(comp) > 1 or comp[0] in edges.get(comp[0], ()):
            if not sourced.intersection(comp):
                cyclic.update(comp)
    return cyclic


class _Checker:
    def __init__(self, mhp: MHPAnalysis, accesses: list,
                 signal_sites: dict, usable: frozenset):
        self.mhp = mhp
        self.accesses = accesses
        self.signal_sites = signal_sites
        self.usable = usable
        self._writes_by_thread_var: dict = {}
        for acc in accesses:
            if acc.write:
                self._writes_by_thread_var.setdefault(
                    (acc.thread, acc.var), []).append(acc)

    # -- disjointness ------------------------------------------------------
    # Affine, not merely constant: keys_never_equal treats every
    # variable as an independent unknown on each side (sound across
    # threads and instances) and proves disjointness from differing
    # constants or a GCD obstruction; a non-affine dimension (``k % 2``)
    # falls back to "maybe equal", keeping the check conservative.
    def places_disjoint(self, a: StaticAccess, b: StaticAccess) -> bool:
        if a.place is None or b.place is None:
            return False
        return keys_never_equal(a.place, b.place)

    def keys_disjoint(self, a: StaticAccess, b: StaticAccess) -> bool:
        if not a.key or not b.key:
            return False
        return keys_never_equal(a.key, b.key)

    # -- R1': instance separation -----------------------------------------
    def param_separated(self, a: StaticAccess, b: StaticAccess) -> bool:
        thread = self.mhp.threads[a.thread]
        params = thread.repl_params
        if not params:
            return False  # indistinguishable clones
        pinned: set = set()

        def pin(ea, eb) -> None:
            for xa, xb in zip(ea, eb):
                if (isinstance(xa, ir.Var) and isinstance(xb, ir.Var)
                        and xa.name == xb.name and xa.name in params):
                    pinned.add(xa.name)

        if len(a.key) == len(b.key):
            pin(a.key, b.key)
        if (a.place is not None and b.place is not None
                and len(a.place) == len(b.place)):
            pin(a.place, b.place)
        return params <= pinned

    # -- R4: handshake alternation ----------------------------------------
    def alternation(self, a: StaticAccess, b: StaticAccess) -> bool:
        for e1 in a.guards & b.post_signals:
            for e2 in b.guards & a.post_signals:
                if e1 != e2:
                    return True
        return False

    # -- R6: keyed handshake (pipelined chain) ----------------------------
    def keyed_handshake(self, a: StaticAccess, b: StaticAccess) -> bool:
        if a.thread != b.thread:
            return False
        write, read = (a, b) if a.write else (b, a)
        if read.write or not write.write:
            return False
        thread = self.mhp.threads[write.thread]
        params = thread.repl_params
        if not params or not write.key:
            return False
        # the write key must pin the instance identity
        pinning = {e.name for e in write.key
                   if isinstance(e, ir.Var) and e.name in params}
        if not params <= pinning:
            return False
        for event, args, _pos, _path in read.guard_sites:
            if event in self.usable or args != read.key:
                continue  # usable events are the graph's business
            if self._signals_follow_writes(event, write.thread, write.var):
                return True
        return False

    def _signals_follow_writes(self, event: str, thread: str,
                               var: str) -> bool:
        """Every signal of ``event`` is emitted by ``thread`` after a
        same-execution-path write of ``var``'s entry named by its args."""
        sites = self.signal_sites.get(event)
        if not sites:
            return False
        writes = self._writes_by_thread_var.get((thread, var), ())
        for site_thread, args, pos, path in sites:
            if site_thread != thread:
                return False
            if not any(w.key == args and w.pos < pos
                       and not _exclusive(w.path, path)
                       for w in writes):
                return False
        return True

    # -- the rule cascade --------------------------------------------------
    def separated(self, a: StaticAccess, b: StaticAccess) -> bool:
        if self.places_disjoint(a, b) or self.keys_disjoint(a, b):
            return True
        same = a.thread == b.thread
        if same and not self.mhp.threads[a.thread].replicated:
            return True  # R1: one instance, program order
        if same and self.param_separated(a, b):
            return True  # R1'
        if (self.mhp.ordered(a.thread, a.pos, b.thread, b.pos, self.usable)
                or self.mhp.ordered(b.thread, b.pos, a.thread, a.pos,
                                    self.usable)):
            return True  # R2 / R5
        if a.guards & b.guards:
            return True  # R3
        if self.alternation(a, b):
            return True  # R4
        if self.keyed_handshake(a, b):
            return True  # R6
        return False


def analyze_races(root: ir.Program, registry=None,
                  primed=frozenset()) -> RaceAnalysis:
    """Static race verdict for ``root``'s injection closure.

    ``primed`` lists events that receive initial (setup-time) signals;
    their signal→wait edges carry no ordering and are disabled.
    """
    mhp = build_mhp(root, registry)
    accesses = _collect_accesses(mhp)
    sites = _signal_sites(mhp)
    cyclic = _cyclic_events(mhp)
    usable = frozenset(
        event for event, site_list in sites.items()
        if len(site_list) == 1
        and event not in primed
        and event not in cyclic
    )

    checker = _Checker(mhp, accesses, sites, usable)
    races: list = []
    seen: set = set()
    by_var: dict = {}
    for acc in accesses:
        by_var.setdefault(acc.var, []).append(acc)
    for group in by_var.values():
        if not any(acc.write for acc in group):
            continue
        for i, a in enumerate(group):
            for b in group[i:]:
                if not (a.write or b.write):
                    continue
                if a is b and not (
                        a.write and mhp.threads[a.thread].replicated):
                    continue
                # key=repr: paths mix int and (pc, branch) steps, which
                # plain tuple comparison cannot order
                key = tuple(sorted((a.site(), b.site()), key=repr))
                if key in seen:
                    continue
                if checker.separated(a, b):
                    continue
                seen.add(key)
                races.append(StaticRace(a, b))
    return RaceAnalysis(
        root=root.name,
        mhp=mhp,
        accesses=tuple(accesses),
        races=tuple(races),
        usable_events=usable,
    )


def race_diagnostics(root: ir.Program, registry=None,
                     primed=frozenset()) -> DiagnosticReport:
    """``data-race`` diagnostics (always errors) for ``root``'s closure."""
    analysis = analyze_races(root, registry, primed)
    report = DiagnosticReport()
    for race in analysis.races:
        report.append(Diagnostic(
            ERROR, "data-race", race.a.thread, race.a.path,
            f"{analysis.root}: {race.describe()}"))
    return report
