"""The lint driver: run every applicable analysis over a registry.

``repro lint`` (see :mod:`repro.cli`) is a thin wrapper around
:func:`lint_registry`. Passes, in order:

structure
    Every statement and expression node must be of a registered type
    (see :mod:`repro.analysis.visitor`) — an unknown node would crash
    the interpreter mid-flight, far from its origin.
bindings
    Every agent variable used must be defined *somewhere* in the
    program (``Assign``/``ComputeStmt`` output, a ``For`` binding) or
    be a declared parameter; anything else is a guaranteed ``KeyError``
    at run time.
closure
    Two cheap wait/signal facts of the injection closure
    (:func:`~repro.analysis.mhp.build_mhp`), run once per *root* — a
    program no other registry program injects — so component carriers
    are judged in the context that launches them: a wait on an event
    no program of the closure ever signals (``unmatched-wait``), and an
    injected name the registry lacks (``unknown-program``). Whether
    the handshakes can deadlock or leak tokens is decided exactly by
    the protocol model checker (``repro lint --protocol-mc``).
locality
    Hop-locality proof (:mod:`repro.analysis.locality`), for programs
    with a known :class:`~repro.analysis.locality.LayoutSpec`.

Loop dependence checks (:mod:`repro.analysis.deps`) are *targeted*,
not blanket: a legal sequential program is full of loop-carried
dependences, and it is the transformations that must prove a specific
loop independent before distributing it. The CLI exposes them via
``repro lint --loop VAR`` and the corpus.
"""

from __future__ import annotations

from ..navp import ir
from . import visitor
from .diagnostics import (Diagnostic, DiagnosticReport, ERROR, INFO, WARNING,
                          error)
from .locality import LayoutSpec, check_locality, fixed_home, key_home
from .mhp import build_mhp
from .summary import summarize

__all__ = ["lint_program", "lint_registry", "seed_paper_programs",
           "paper_layouts", "root_entry_coord"]


def _structure_diagnostics(program: ir.Program) -> DiagnosticReport:
    report = DiagnosticReport()

    def check_expr(expr, path) -> None:
        rule = visitor.try_expr_rule(expr)
        if rule is None:
            report.append(error(
                "unknown-node", program.name, path,
                f"{program.name}: expression node of unregistered type "
                f"{type(expr).__name__!r}; the interpreter and the "
                f"analyses cannot handle it"))
            return
        for child in rule.children(expr):
            check_expr(child, path)

    def check_body(body, path=()) -> None:
        for i, stmt in enumerate(body):
            spath = path + (i,)
            rule = visitor.try_stmt_rule(stmt)
            if rule is None:
                report.append(error(
                    "unknown-node", program.name, spath,
                    f"{program.name}: statement node of unregistered "
                    f"type {type(stmt).__name__!r}; the interpreter "
                    f"and the analyses cannot handle it"))
                continue
            for e in rule.exprs(stmt):
                check_expr(e, spath)
            for label, sub in rule.bodies(stmt):
                step = i if label is None else (i, label)
                check_body(sub, path + (step,))

    check_body(program.body)
    return report


def _binding_diagnostics(program: ir.Program) -> DiagnosticReport:
    """Agent variables used but defined nowhere and not parameters."""
    report = DiagnosticReport()
    defined = set(program.params)
    summaries = summarize(program)
    for s in summaries:
        defined |= s.agent_defs
    seen: set = set()
    for s in summaries:
        for v in sorted(s.agent_uses - defined):
            if v in seen:
                continue
            seen.add(v)
            report.append(error(
                "unbound-agent-var", program.name, s.path,
                f"{program.name}: agent variable {v!r} is used but "
                f"never assigned and is not a program parameter"))
    return report


def _closure_diagnostics(root: ir.Program, registry) -> DiagnosticReport:
    """Unmatched waits and unregistered programs in ``root``'s closure."""
    mhp = build_mhp(root, registry)
    report = DiagnosticReport()
    for name in sorted(mhp.missing):
        report.append(Diagnostic(
            WARNING, "unknown-program", root.name, (),
            f"{root.name}: the injection closure references "
            f"program {name!r} which is not registered"))
    # A closure of one program that injects nothing is a component
    # viewed out of context: its peers live in some other entry
    # point's closure, so an unmatched wait is expected there. (A root
    # whose injects merely fail to resolve is still an entry point.)
    severity = INFO if len(mhp.summaries) == 1 and not mhp.missing \
        else ERROR
    signalled = {s.signal[0] for summaries in mhp.summaries.values()
                 for s in summaries if s.signal is not None}
    for name, summaries in mhp.summaries.items():
        for s in summaries:
            if s.wait is not None and s.wait[0] not in signalled:
                report.append(Diagnostic(
                    severity, "unmatched-wait", name, s.path,
                    f"{name}: waits on event {s.wait[0]!r} which no "
                    f"program in the injection closure of "
                    f"{root.name!r} ever signals; the messenger would "
                    f"block forever"))
    return report


def _injected_names(registry) -> set:
    """Every program name injected by some program in the registry."""
    out: set = set()
    for prog in registry.values():
        for _path, stmt in visitor.walk_stmts(prog.body):
            if isinstance(stmt, ir.InjectStmt):
                out.add(stmt.program)
    return out


def lint_program(program: ir.Program, registry=None,
                 layout: LayoutSpec | None = None,
                 protocol_root: bool = True) -> DiagnosticReport:
    """All lint passes for one program.

    ``protocol_root`` False suppresses the closure pass — used when
    the program is known to be injected by another registry program,
    whose closure already covers it.
    """
    if registry is None:
        registry = ir.REGISTRY
    report = DiagnosticReport()
    report.extend(_structure_diagnostics(program))
    if report.errors:
        return report  # unknown nodes make further analysis moot
    report.extend(_binding_diagnostics(program))
    if protocol_root:
        report.extend(_closure_diagnostics(program, registry))
    if layout is not None:
        report.extend(check_locality(program, layout, registry))
    return report


def lint_registry(names=None, registry=None,
                  layouts: dict | None = None,
                  injected: set | None = None) -> DiagnosticReport:
    """Lint a set of registered programs (default: all of them).

    ``injected`` is :func:`_injected_names` of ``registry`` when the
    caller already has it.
    """
    if registry is None:
        registry = ir.REGISTRY
    if names is None:
        names = sorted(registry)
    layouts = layouts or {}
    if injected is None:
        injected = _injected_names(registry)
    report = DiagnosticReport()
    seen: set = set()
    for name in names:
        prog = ir.get_program(name) if registry is ir.REGISTRY \
            else registry[name]
        sub = lint_program(
            prog, registry,
            layout=layouts.get(name),
            protocol_root=name not in injected,
        )
        for diag in sub:
            key = (diag.severity, diag.category, diag.program,
                   diag.path, diag.message)
            if key not in seen:
                seen.add(key)
                report.append(diag)
    return report


def paper_layouts(nb: int = 3) -> dict:
    """Symbolic layout specs for the 1-D chain stages.

    These mirror :func:`repro.transform.examples.layout_sequential` /
    ``layout_dsc`` / ``layout_phase``: everything on node(0) for the
    sequential stage; ``B``/``C`` column-resident with ``A`` still on
    node(0) after DSC and pipelining; ``A`` row-strips co-resident
    with their carriers after phase shifting.
    """
    entry = (ir.Const(0),)
    sequential = LayoutSpec(
        homes={"A": fixed_home(0), "B": fixed_home(0),
               "C": fixed_home(0)},
        entry=entry)
    dsc = LayoutSpec(
        homes={"A": fixed_home(0), "B": key_home(1), "C": key_home(1)},
        entry=entry)
    phase = LayoutSpec(
        homes={"A": key_home(0), "B": key_home(1), "C": key_home(1)},
        entry=entry)
    return {
        f"mm-seq-{nb}": sequential,
        f"mm-seq-{nb}-dsc": dsc,
        f"mm-seq-{nb}-dsc-pipe": dsc,
        f"mm-seq-{nb}-dsc-phase": phase,
    }


def seed_paper_programs(g: int = 3) -> tuple:
    """Register every paper program family: ``(layouts, contexts)``.

    Derives the full 1-D and 2-D transformation chains and builds the
    Figure 11/13/15 IR suites, all of which register themselves in
    :data:`repro.navp.ir.REGISTRY`. ``layouts`` are the 1-D chain's
    locality specs (:func:`paper_layouts`); ``contexts`` map each 2-D
    root to the model-checking context its runner launches it in,
    ``{"entry": (0, 0), "initial_signals": ...}`` — the suites'
    declared setup-time signals (Figure 13 pre-signals ``EC``
    everywhere, "EC(i,j) is signaled initially"). The 1-D chains and
    the wavefront inject at ``(0,)`` with nothing primed, which is
    :func:`root_entry_coord`'s default, so they have no entry here.
    Imported lazily so that :mod:`repro.analysis` itself never depends
    on :mod:`repro.transform` at import time.
    """
    from ..matmul.ir2d import build_fig11, build_fig13, build_fig15
    from ..transform.examples import derive_full_chain
    from ..wavefront.irprog import build_wavefront_ir

    chain = derive_full_chain(g)
    contexts: dict = {}
    for build in (build_fig11, build_fig13, build_fig15):
        suite = build(g)
        contexts[suite.entry.name] = {
            "entry": (0, 0),
            "initial_signals": tuple(suite.initial_signals),
        }
    for suite in (chain.pipelined_2d, chain.phased_2d):
        contexts[suite.main.name] = {
            "entry": (0, 0),
            "initial_signals": tuple(suite.initial_signals),
        }
    build_wavefront_ir(g, 4, 4)
    return paper_layouts(g), contexts


def root_entry_coord(program: ir.Program) -> tuple:
    """The injection coordinate a root program expects.

    The paper mains all start by hopping to a fully concrete
    coordinate; its dimensionality tells us whether the program lives
    on a 1-D chain or a 2-D grid. Programs with no concrete hop
    default to the 1-D origin.
    """
    for _path, stmt in visitor.walk_stmts(program.body):
        if isinstance(stmt, ir.HopStmt):
            coord = []
            for e in stmt.place:
                if not isinstance(e, ir.Const):
                    return (0,)
                coord.append(e.value)
            return (0,) * len(coord)
    return (0,)
