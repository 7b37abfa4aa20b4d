"""Protocol model checking: static liveness proofs for navigational IR.

This is the verdict layer on top of :mod:`repro.analysis.statespace`.
``model_check`` extracts per-thread event traces from an IR injection
closure and explores the abstract state space in up to three passes:

* **Pass A (interleave)** — ungated exploration with the full eager
  partial-order reduction.  Exact for deadlock-freedom and (via
  :func:`~repro.analysis.statespace.signal_totals`) for orphan tokens.
* **Pass B (mailbox)** — one ungated pass per destination host with
  retires into that host delayed (``lazy_host``).  Delaying a retire
  is never *enabling* under ungated semantics, so the host's mailbox
  depth and the in-flight peaks of its in-edges a pass observes are
  exact maxima over all schedules.  Each pass stops exploring where
  the threads left to retire into the host cannot beat the peaks it
  has found; its other hosts' and edges' peaks are lower bounds, so
  the max-merge over all passes takes every edge's exact value from
  its destination's pass.  Pass B runs only once Pass A has proved
  deadlock-freedom, and is no deadlock search.
* **Pass C (gated)** — full-branching exploration under the credit
  window (``emit_hop`` blocks the whole host when credits run out, the
  SocketFabric semantics).  Only run when some in-flight peak exceeds
  the window: if every peak stays within the window the gate can never
  engage, so the gated semantics coincide with Pass A (*gate
  transparency*) and credit-starvation deadlocks are ruled out for
  free.

Verdict statuses, strongest problem first::

    UNSUPPORTED      the abstraction cannot model the program
                     (data-dependent control flow at a sync point)
    DEADLOCK         reachable deadlock under plain semantics
                     (reproducible on any fabric, incl. SimFabric)
    CREDIT-DEADLOCK  deadlock only under the credit window
                     (socket-fabric backpressure starvation)
    ORPHANS          deadlock-free, but some signal tokens leak
                     (leftover beyond the primed rest state)
    INCONCLUSIVE     a pass hit the state cap, or the verdict its
                     deadline (one budget for all passes)
    VERIFIED         deadlock-free, orphan-free, mailboxes bounded

``mc_diagnostics`` renders a result as a :class:`DiagnosticReport` for
``repro lint --protocol-mc`` and the corpus; ``runtime_deadlock_hint``
is the tightly-capped variant the fabrics quote inside
``DeadlockError`` messages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..navp import ir
from .diagnostics import DiagnosticReport, error, info, warning
from .statespace import (
    AbstractionError,
    Explorer,
    Schedule,
    TraceSystem,
    extract_system,
    signal_totals,
)

__all__ = [
    "DEFAULT_WINDOW",
    "ModelCheckResult",
    "model_check",
    "mc_diagnostics",
    "runtime_deadlock_hint",
    "initial_pending",
]

# Mirrors the SocketFabric default credit window (fabric/socket.py).
DEFAULT_WINDOW = 32

_STATUS_ORDER = (
    "UNSUPPORTED", "DEADLOCK", "CREDIT-DEADLOCK", "ORPHANS",
    "INCONCLUSIVE", "VERIFIED",
)


def initial_pending(initial_signals, places=None) -> dict:
    """Normalize declared setup-time signals to a pending multiset.

    Accepts both corpus-style 3-tuples ``(event, args, count)`` —
    primed at every place ``(0,) .. (places-1,)``, mirroring
    ``run_corpus_case`` — and explicit 4-tuples
    ``(coord, event, args, count)`` as used by the 2-D suites.
    """
    pending: dict = {}
    for item in initial_signals:
        if len(item) == 3:
            event, args, count = item
            if places is None:
                raise ValueError(
                    "per-place initial signal %r needs places=" % (event,))
            coords = [(p,) for p in range(places)]
        else:
            coord, event, args, count = item
            coords = [tuple(coord)]
        for coord in coords:
            key = (coord, event, tuple(args))
            pending[key] = pending.get(key, 0) + int(count)
    return pending


@dataclass(frozen=True)
class ModelCheckResult:
    """Everything ``model_check`` proved (or failed to prove)."""

    label: str                      # root program name(s)
    status: str                     # one of _STATUS_ORDER
    deadlock_free: bool | None      # ungated semantics; None = unknown
    gated_deadlock_free: bool | None
    counterexample: Schedule | None
    counterexample_regime: str      # "", "ungated", or "gated"
    orphans: tuple                  # ((key, leftover, initial), ...) leaks
    rest_tokens: tuple              # keys whose leftover <= primed count
    terminal_tokens: tuple          # leftover keys no thread ever waits on
    max_mailbox_depth: int | None   # exact (Pass B) or None if capped
    mailbox_peaks: dict             # host -> exact peak depth
    window: int | None
    bounded: bool | None            # max depth <= window
    gate_transparent: bool | None   # no in-flight peak ever hits window
    threads: int
    stats: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "VERIFIED"

    def summary(self) -> str:
        if self.status == "VERIFIED":
            extra = ""
            if self.window is not None and self.max_mailbox_depth is not None:
                extra = " mailbox<=%d (window %d);" % (
                    self.max_mailbox_depth, self.window)
            return ("%s: statically proven deadlock-free;%s %d threads, "
                    "%d states explored (POR %.1fx)" % (
                        self.label, extra, self.threads,
                        self.stats.get("total_states", 0),
                        self.stats.get("reduction_factor", 1.0)))
        return "%s: %s — %s" % (self.label, self.status, self.detail)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "deadlock_free": self.deadlock_free,
            "gated_deadlock_free": self.gated_deadlock_free,
            "orphans": [
                {"key": _key_str(k), "leftover": lo, "initial": ini}
                for k, lo, ini in self.orphans],
            "max_mailbox_depth": self.max_mailbox_depth,
            "window": self.window,
            "bounded": self.bounded,
            "gate_transparent": self.gate_transparent,
            "threads": self.threads,
            "stats": dict(self.stats),
            "counterexample": (
                None if self.counterexample is None
                else {"regime": self.counterexample_regime,
                      **self.counterexample.to_json()}),
            "detail": self.detail,
        }


def _key_str(key) -> str:
    host, event, args = key
    inner = ",".join(repr(a) for a in args)
    return "%s[%s]@%s" % (event, inner, ",".join(str(c) for c in host))


def _merge_stats(stats: dict, res, pass_name: str) -> None:
    stats.setdefault("passes", {})[pass_name] = {
        "states": res.states,
        "transitions": res.transitions,
        "reduction_factor": round(res.reduction_factor, 2),
        "complete": res.complete,
    }
    stats["total_states"] = stats.get("total_states", 0) + res.states
    stats["total_transitions"] = (
        stats.get("total_transitions", 0) + res.transitions)


def model_check(roots, registry=None, *, entry=(0,), env=None,
                initial_signals=(), places=None,
                window: int | None = DEFAULT_WINDOW,
                max_states: int = 500_000,
                deadline_s: float | None = 10.0) -> ModelCheckResult:
    """Model-check one root program (or a list of concurrent roots).

    ``roots`` is a program name (with ``entry``/``env`` applying to it)
    or a list of ``(name, entry_coord, env)`` triples for a system with
    several externally injected roots.  ``initial_signals`` follows
    :func:`initial_pending`.  ``window=None`` models fabrics without
    credit gating (sim/thread/process): mailbox bounds are still
    reported, but no gated pass runs.  ``deadline_s`` budgets the whole
    verdict, not each pass.
    """
    deadline = None if deadline_s is None \
        else time.monotonic() + deadline_s
    if registry is None:
        registry = ir.REGISTRY
    if isinstance(roots, (str, ir.Program)):
        name = roots.name if isinstance(roots, ir.Program) else roots
        roots = [(name, tuple(entry), dict(env or {}))]
    else:
        roots = [(n, tuple(c), dict(e or {})) for n, c, e in roots]
    label = "+".join(n for n, _c, _e in roots)
    threads = 0
    stats: dict = {}

    try:
        pending0 = initial_pending(initial_signals, places)
        traces, root_indices = extract_system(roots, registry)
    except (AbstractionError, ValueError) as exc:
        return ModelCheckResult(
            label=label, status="UNSUPPORTED", deadlock_free=None,
            gated_deadlock_free=None, counterexample=None,
            counterexample_regime="", orphans=(), rest_tokens=(),
            terminal_tokens=(), max_mailbox_depth=None,
            mailbox_peaks={}, window=window, bounded=None,
            gate_transparent=None, threads=0, stats=stats,
            detail=str(exc))
    threads = len(traces)

    system = TraceSystem(traces, root_indices, pending0)

    def explore(**kw):
        return Explorer(system, max_states=max_states, deadline=deadline,
                        **kw).explore()

    def result(status, detail="", **kw):
        base = dict(
            label=label, status=status, deadlock_free=None,
            gated_deadlock_free=None, counterexample=None,
            counterexample_regime="", orphans=(), rest_tokens=(),
            terminal_tokens=(), max_mailbox_depth=None, mailbox_peaks={},
            window=window, bounded=None, gate_transparent=None,
            threads=threads, stats=stats, detail=detail)
        base.update(kw)
        return ModelCheckResult(**base)

    # -- Pass A: ungated interleavings (deadlock + orphan oracle) ----------
    res_a = explore()
    _merge_stats(stats, res_a, "interleave")
    stats["states"] = res_a.states
    stats["transitions"] = res_a.transitions
    stats["reduction_factor"] = round(res_a.reduction_factor, 2)
    if res_a.deadlock is not None:
        return result(
            "DEADLOCK", deadlock_free=False, gated_deadlock_free=False,
            counterexample=res_a.deadlock, counterexample_regime="ungated",
            detail="reachable deadlock under every fabric; "
                   "schedule:\n%s" % res_a.deadlock.describe(limit=24))
    if not res_a.complete:
        return result("INCONCLUSIVE",
                      detail="interleaving pass capped: %s" % res_a.reason)

    # -- orphan arithmetic (valid once deadlock-freedom is proven) ---------
    # A leftover token is a *leak* only when some thread knows how to
    # consume that exact key (more signals than waits: a count
    # mismatch).  Leftovers on keys no thread ever waits on are the
    # usual terminal completion markers (e.g. the last wavefront row's
    # bottom-done) — the structural checker already owns fully-unwaited
    # events, so those stay informational here.
    totals = signal_totals(traces, pending0)
    waited_keys = {op[1] for t in traces for op in t.ops
                   if op[0] == "wait"}
    leaks, rest, terminal = [], [], []
    for key in sorted(totals, key=_key_str):
        leftover = totals[key]
        primed = pending0.get(key, 0)
        if leftover > primed:
            if key in waited_keys:
                leaks.append((key, leftover, primed))
            else:
                terminal.append(key)
        elif leftover > 0:
            rest.append(key)

    # -- Pass B: exact per-host mailbox peaks ------------------------------
    dst_hosts = sorted({op[2] for t in traces for op in t.ops
                        if op[0] == "hop"})
    peaks: dict = dict(res_a.peaks)
    inflight: dict = dict(res_a.inflight_peaks)
    capped = ""      # the first pass that ran out, and of what
    for host in dst_hosts:
        res_b = explore(lazy_host=host)
        _merge_stats(stats, res_b, "mailbox@%s" % (host,))
        if not res_b.complete:
            capped = capped or "mailbox@%s pass capped: %s" % (
                host, res_b.reason)
            continue
        peaks[host] = max(peaks.get(host, 0), res_b.peaks.get(host, 0))
        for edge, v in res_b.inflight_peaks.items():
            inflight[edge] = max(inflight.get(edge, 0), v)
    mailbox_exact = not capped
    max_depth = max(peaks.values(), default=0) if mailbox_exact else None
    bounded = None
    if window is not None and max_depth is not None:
        bounded = max_depth <= window
    transparent = None
    if window is not None and mailbox_exact:
        transparent = all(v <= window for v in inflight.values())
    mail = dict(
        orphans=tuple(leaks), rest_tokens=tuple(rest),
        terminal_tokens=tuple(terminal),
        max_mailbox_depth=max_depth, mailbox_peaks=peaks,
        bounded=bounded, gate_transparent=transparent)

    # -- Pass C: gated semantics, only when the gate can engage ------------
    # no window, or a gate that never engages: Pass A transfers
    gated_free: bool | None = True
    if window is not None and not transparent:
        res_c = explore(window=window)
        _merge_stats(stats, res_c, "gated")
        if res_c.deadlock is not None:
            return result(
                "CREDIT-DEADLOCK", deadlock_free=True,
                gated_deadlock_free=False,
                counterexample=res_c.deadlock,
                counterexample_regime="gated",
                detail="deadlock only under the credit window "
                       "(window=%d): socket backpressure starvation; "
                       "schedule:\n%s"
                       % (window, res_c.deadlock.describe(limit=24)),
                **mail)
        if not res_c.complete:
            gated_free = None
            capped = capped or "gated pass capped: %s" % res_c.reason

    if leaks:
        msg = ", ".join("%s leaks %d token(s) beyond its primed %d"
                        % (_key_str(k), lo - ini, ini)
                        for k, lo, ini in leaks)
        return result("ORPHANS", deadlock_free=True,
                      gated_deadlock_free=gated_free,
                      detail="signals never consumed: %s" % msg, **mail)
    if not mailbox_exact or gated_free is None:
        return result("INCONCLUSIVE", deadlock_free=True,
                      gated_deadlock_free=gated_free,
                      detail=capped, **mail)
    return result("VERIFIED", deadlock_free=True,
                  gated_deadlock_free=gated_free, **mail)


# --------------------------------------------------------------------------
# diagnostics + lint integration
# --------------------------------------------------------------------------

def _disjoint_key_note(roots, registry) -> str:
    """Name statically instance-disjoint handshake keys (best effort).

    Consults the affine ``keys_never_equal`` oracle over the wait/signal
    argument expressions the MHP summaries collected: key families whose
    distinct static sites can never alias justify collapsing their
    symmetric instances during the search.
    """
    try:
        from .distance import keys_never_equal
        from .mhp import build_mhp
        sites: dict = {}
        for name, _coord, _env in roots:
            mhp = build_mhp(name, registry)
            for prog, summaries in mhp.summaries.items():
                for s in summaries:
                    for kind in ("wait", "signal"):
                        tup = getattr(s, kind)
                        if tup is not None:
                            sites.setdefault(tup[0], []).append(
                                tuple(tup[1]))
        disjoint = []
        for event, keys in sorted(sites.items()):
            keys = [k for k in keys if k]
            if len(keys) < 2:
                continue
            if all(keys_never_equal(a, b)
                   for i, a in enumerate(keys) for b in keys[i + 1:]):
                disjoint.append(event)
        if disjoint:
            return (" (affine oracle: %s keys are instance-disjoint)"
                    % ", ".join(disjoint))
    except Exception:
        pass
    return ""


def mc_diagnostics(root, registry=None, result=None,
                   **kwargs) -> DiagnosticReport:
    """Run ``model_check`` and render the verdict as lint diagnostics.

    Pass a precomputed ``result`` to render without re-exploring.
    """
    name = root.name if isinstance(root, ir.Program) else root
    res = result if result is not None \
        else model_check(name, registry, **kwargs)
    report = DiagnosticReport()
    if res.status == "UNSUPPORTED":
        report.append(info(
            "model-abstraction", name, (),
            "protocol model checker cannot abstract this program: %s"
            % res.detail))
        return report
    if res.status == "INCONCLUSIVE":
        advice = ("raise repro lint --mc-states to push through"
                  if "state cap" in res.detail
                  else "the verdict deadline ran out, not the state cap")
        report.append(warning(
            "state-space-cap", name, (),
            "protocol model checker gave up: %s (%s)"
            % (res.detail, advice)))
        return report
    if res.status == "DEADLOCK":
        report.append(error("protocol-deadlock", name, (), res.detail))
        return report
    if res.status == "CREDIT-DEADLOCK":
        report.append(error("credit-deadlock", name, (), res.detail))
        return report
    for key, leftover, primed in res.orphans:
        report.append(warning(
            "orphan-signal", name, (),
            "%s accumulates %d token(s) no wait ever consumes "
            "(primed %d, leftover %d)"
            % (_key_str(key), leftover - primed, primed, leftover)))
    if res.rest_tokens:
        report.append(info(
            "orphan-signal", name, (),
            "%d primed key(s) return to their rest state: %s"
            % (len(res.rest_tokens),
               ", ".join(_key_str(k) for k in res.rest_tokens))))
    if res.terminal_tokens:
        report.append(info(
            "orphan-signal", name, (),
            "terminal completion token(s) left for the fabric to drain: "
            "%s" % ", ".join(_key_str(k) for k in res.terminal_tokens)))
    if res.bounded is False:
        report.append(warning(
            "mailbox-bound", name, (),
            "mailbox depth can reach %d > window %d; socket backpressure "
            "will engage (gated semantics%s deadlock-free)"
            % (res.max_mailbox_depth, res.window,
               "" if res.gated_deadlock_free else " NOT")))
    if res.status == "VERIFIED":
        roots = [(name, kwargs.get("entry", (0,)),
                  kwargs.get("env") or {})]
        reg = registry if registry is not None else ir.REGISTRY
        report.append(info(
            "protocol-verified", name, (),
            res.summary() + _disjoint_key_note(roots, reg)))
    return report


# --------------------------------------------------------------------------
# fabric DeadlockError enrichment
# --------------------------------------------------------------------------

def runtime_deadlock_hint(roots, primed=(), *, registry=None,
                          window: int | None = None,
                          max_states: int = 40_000,
                          deadline_s: float = 2.0) -> str | None:
    """A one-paragraph model-checker verdict for a DeadlockError message.

    ``roots`` is a list of ``(program_name, entry_coord, env)`` as the
    fabric injected them; ``primed`` is the explicit
    ``(coord, event, args, count)`` setup-signal list.  Tightly capped:
    a hung fabric should never wait on its own post-mortem.  Returns
    ``None`` when there is nothing useful to say.
    """
    try:
        roots = [(n, tuple(c), dict(e or {})) for n, c, e in roots]
        if not roots:
            return None
        res = model_check(
            roots, registry, initial_signals=tuple(primed), window=window,
            max_states=max_states, deadline_s=deadline_s)
        if res.status == "VERIFIED":
            return ("protocol model checker: statically proven "
                    "deadlock-free (%d states) — suspect the fabric or "
                    "fault layer, not the program"
                    % res.stats.get("total_states", 0))
        if res.status == "DEADLOCK" and res.counterexample is not None:
            return ("protocol model checker: this deadlock is reachable "
                    "in the program itself; schedule:\n%s"
                    % res.counterexample.describe(limit=12))
        if res.status == "CREDIT-DEADLOCK" and res.counterexample is not None:
            return ("protocol model checker: credit-window starvation "
                    "(window=%s); schedule:\n%s"
                    % (window, res.counterexample.describe(limit=12)))
        if res.status == "ORPHANS":
            return ("protocol model checker: deadlock-free but leaks "
                    "signal tokens (%s) — suspect the fabric or fault "
                    "layer" % res.detail)
        return "protocol model checker: %s (%s)" % (
            res.status.lower(), res.detail)
    except Exception:
        return None
