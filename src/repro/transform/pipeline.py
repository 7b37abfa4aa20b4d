"""The Pipelining transformation (Figures 1b-1c; matmul: Fig 5 -> 7).

"The basic idea is to overlap the execution of multiple DSC threads by
staggering their starting times." ... "Synchronization may be
necessary."

Mechanics on a program whose top level is a single loop over the work
items (``mi`` for matmul, the block row ``r`` for the wavefront):

1. :func:`~repro.transform.deps.check_forward_carried` proves every
   carried dependence of the loop is a node flow dependence with an
   exact positive distance, and reports where each one's endpoints
   sit. Independent iterations (matmul) have none, and get no
   synchronization at all;
2. before each carried *read*, in its innermost enclosing block, a
   ``WaitStmt`` on the event ``{var}-done`` keyed by the read's own key
   expression is inserted (inside the read's guard, so an iteration
   that does not read does not wait — row 0 never waits on row -1);
   after each carried *write*, a matching ``SignalStmt`` keyed by the
   write's key. This is the synchronization "may be necessary" means:
   the wavefront's ``bottom[r-1]`` read waits on ``bottom-done(r-1)``;
3. the loop body becomes a *carrier* program parameterized by the loop
   variable (``RowCarrier(mi)``). Where the body has the DSC shape
   ``For: [Hop, If(pickups), ...]``, the guarded pickups are hoisted to
   the carrier's start — a carrier is injected where its data lives,
   picks it up once, and carries it for its whole life (Figure 7 line
   2);
4. the main program reduces to hopping to the injection PE and
   injecting one carrier per iteration, in order — the ordered
   injection *is* the staggering.

The generated suite is then re-verified whole:
:func:`~repro.transform.deps.check_race_free` must prove that injection
order and the handshake order every conflicting access pair across
carrier instances. A transform bug — a missed wait, a signal on the
wrong key — surfaces as a refusal here, not as a wrong answer at run
time; nothing is registered until it passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import visitor
from ..errors import TransformError
from ..navp import ir
from .deps import check_forward_carried, check_race_free

__all__ = ["PipelineSpec", "PipelinedSuite", "pipelining"]


@dataclass(frozen=True)
class PipelineSpec:
    outer: str                  # loop variable becoming the carrier index
    main_name: str              # name for the generated main program
    carrier_name: str           # name for the generated carrier program
    inject_at: tuple            # coordinate exprs of the injection PE


@dataclass(frozen=True)
class PipelinedSuite:
    """A transformed program pair: the injector plus its carriers."""

    main: ir.Program
    carrier: ir.Program

    @property
    def programs(self) -> tuple:
        return (self.main, self.carrier)


def _event_name(var: str) -> str:
    return f"{var}-done"


def _handshake(analysis) -> tuple:
    """``(before, after)``: the waits and signals each carried flow
    dependence needs, keyed by the statement path they go around."""
    accesses = [(acc, kind)
                for s in analysis.summaries
                for kind, accs in (("read", s.node_reads),
                                   ("write", s.node_writes))
                for acc in accs]
    before: dict = {}
    after: dict = {}
    seen: set = set()
    for dep in analysis.carried:
        for acc, kind in accesses:
            if acc.var != dep.var or acc.path != (
                    dep.dst if kind == "read" else dep.src):
                continue
            key = (kind, acc.path, acc.var,
                   visitor.normalize_key(acc.raw_key))
            if key in seen:
                continue
            seen.add(key)
            if kind == "read":
                before.setdefault(acc.path, []).append(
                    ir.WaitStmt(_event_name(acc.var), tuple(acc.raw_key)))
            else:
                after.setdefault(acc.path, []).append(
                    ir.SignalStmt(_event_name(acc.var),
                                  tuple(acc.raw_key)))
    return before, after


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


def _hoist_pickups(body: tuple) -> tuple:
    """Hoist the DSC pickups to the carrier's start.

    On the inner pattern ``For(mj): [Hop, If(cond, pickups), ...rest]``
    produced by the DSC transformation, the pickups leave the
    conditional: the carrier executes them once at birth instead of
    once per tour lap. Any other body is returned as it is.
    """
    if len(body) != 1 or not isinstance(body[0], ir.For):
        return body
    inner = body[0]
    if (
        len(inner.body) >= 2
        and isinstance(inner.body[0], ir.HopStmt)
        and isinstance(inner.body[1], ir.If)
        and not inner.body[1].orelse
    ):
        stripped = ir.For(
            inner.var, inner.count,
            (inner.body[0],) + inner.body[2:],
        )
        return tuple(inner.body[1].then) + (stripped,)
    return body


def pipelining(program: ir.Program, spec: PipelineSpec) -> PipelinedSuite:
    """Apply the Pipelining transformation to a single-loop program."""
    analysis = check_forward_carried(program, spec.outer)
    if analysis.loop_path != (0,) or len(program.body) != 1:
        raise TransformError(
            "pipelining expects the program to be a single outer loop"
        )
    outer_loop = program.body[0]
    before, after = _handshake(analysis)
    carrier = ir.Program(
        name=spec.carrier_name,
        body=_hoist_pickups(_insert(outer_loop.body, (0,), before, after)),
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
    # Post-condition on the generated suite: the carriers the loop
    # became must be provably race-free as concurrent messengers, or
    # the transformation refuses its own output.
    check_race_free(main, registry={**ir.REGISTRY, main.name: main,
                                    carrier.name: carrier})
    main = ir.register_program(main, replace=True)
    carrier = ir.register_program(carrier, replace=True)
    return PipelinedSuite(main=main, carrier=carrier)
