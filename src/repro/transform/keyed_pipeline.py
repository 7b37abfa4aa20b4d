"""Keyed pipelining: pipelining a loop with forward carried dependences.

Plain pipelining (:mod:`repro.transform.pipeline`) requires the outer
loop's iterations to be fully independent. The wavefront's row loop is
not: row ``r`` reads the bottom boundary row ``r-1`` published — a
carried flow dependence. The paper's Figure-7 program still pipelines
it, because the dependence is *forward* with exact distance ``+1``: a
keyed wait/signal handshake (the race checker's R6 shape) orders each
reader behind the iteration that feeds it while leaving everything
else concurrent.

This module makes that derivation mechanical. Given a sequential
program whose body is a single loop over the work items:

1. :func:`~repro.transform.deps.check_forward_carried` proves every
   carried dependence is a node flow dependence with an exact positive
   distance — and reports where each one's endpoints sit;
2. before each carried *read*, in its innermost enclosing block, a
   ``WaitStmt`` on the event ``{var}-done`` keyed by the read's own key
   expression is inserted (inside the read's guard, so an iteration
   that does not read does not wait — row 0 never waits on row -1);
3. after each carried *write*, a matching ``SignalStmt`` keyed by the
   write's key is inserted;
4. the loop body becomes a carrier parameterized by the loop variable,
   and the main program reduces to injecting one carrier per iteration
   in order, exactly as in plain pipelining.

The generated suite is then re-verified whole:
:func:`~repro.transform.deps.check_race_free` must prove the handshake
actually orders every conflicting access pair across carrier
instances. A transform bug — a missed wait, a signal on the wrong key
— surfaces as a refusal here, not as a wrong answer at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import visitor
from ..analysis.deps import analyze_loop
from ..errors import TransformError
from ..navp import ir
from .deps import check_forward_carried, check_race_free
from .pipeline import PipelinedSuite
from .rewrite import find_unique_loop

__all__ = ["KeyedPipelineSpec", "keyed_pipeline"]


@dataclass(frozen=True)
class KeyedPipelineSpec:
    outer: str                  # loop variable becoming the carrier index
    main_name: str              # name for the generated main program
    carrier_name: str           # name for the generated carrier program
    inject_at: tuple            # coordinate exprs of the injection PE


def _event_name(var: str) -> str:
    return f"{var}-done"


def _insert(body: tuple, prefix: tuple, before: dict, after: dict) -> tuple:
    """Rebuild ``body`` with the collected wait/signal insertions.

    ``before``/``after`` map statement paths (walker convention) to the
    statements to splice in around them.
    """
    out: list = []
    for i, stmt in enumerate(body):
        path = prefix + (i,)
        out.extend(before.get(path, ()))
        rule = visitor.try_stmt_rule(stmt)
        bodies = rule.bodies(stmt)
        if bodies:
            new_bodies = tuple(
                _insert(sub,
                        prefix + ((i,) if label is None else ((i, label),)),
                        before, after)
                for label, sub in bodies)
            stmt = rule.rebuild(stmt, rule.exprs(stmt), new_bodies)
        out.append(stmt)
        out.extend(after.get(path, ()))
    return tuple(out)


def keyed_pipeline(program: ir.Program,
                   spec: KeyedPipelineSpec) -> PipelinedSuite:
    """Apply keyed pipelining to a sequential single-loop program."""
    forward = check_forward_carried(program, spec.outer)
    path, outer_loop = find_unique_loop(program, spec.outer)
    if path != (0,) or len(program.body) != 1:
        raise TransformError(
            "keyed pipelining expects the program to be a single outer "
            "loop")

    analysis = analyze_loop(program, spec.outer)
    accesses = [(acc, kind)
                for s in analysis.summaries
                for kind, accs in (("read", s.node_reads),
                                   ("write", s.node_writes))
                for acc in accs]

    before: dict = {}
    after: dict = {}
    seen: set = set()
    for dep in forward:
        for acc, kind in accesses:
            if acc.var != dep.var:
                continue
            if kind == "read" and acc.path == dep.dst:
                key = ("wait", acc.path, acc.var,
                       visitor.normalize_key(acc.raw_key))
                if key not in seen:
                    seen.add(key)
                    before.setdefault(acc.path, []).append(
                        ir.WaitStmt(_event_name(acc.var),
                                    tuple(acc.raw_key)))
            elif kind == "write" and acc.path == dep.src:
                key = ("signal", acc.path, acc.var,
                       visitor.normalize_key(acc.raw_key))
                if key not in seen:
                    seen.add(key)
                    after.setdefault(acc.path, []).append(
                        ir.SignalStmt(_event_name(acc.var),
                                      tuple(acc.raw_key)))

    carrier_body = _insert(outer_loop.body, (0,), before, after)
    carrier = ir.Program(
        name=spec.carrier_name,
        body=carrier_body,
        params=(spec.outer,),
    )
    main = ir.Program(
        name=spec.main_name,
        body=(
            ir.HopStmt(spec.inject_at),
            ir.For(spec.outer, outer_loop.count, (
                ir.InjectStmt(spec.carrier_name,
                              ((spec.outer, ir.Var(spec.outer)),)),
            )),
        ),
    )
    main = ir.register_program(main, replace=True)
    carrier = ir.register_program(carrier, replace=True)
    # Post-condition on the generated suite: the handshake must prove
    # every cross-carrier conflict ordered (the R6 shape), or the
    # transformation refuses its own output.
    check_race_free(main)
    return PipelinedSuite(main=main, carrier=carrier)
