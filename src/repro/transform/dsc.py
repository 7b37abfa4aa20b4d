"""The DSC transformation (Section 2, Figures 1a-1b; matmul: Fig 2 -> 5).

"Large data is distributed among the PEs, and hop() statements are
inserted into the sequential code in order for the computation to
'chase' large data while carrying small data."

Mechanics, exactly as the paper applies them to matrix multiplication:

1. the programmer chooses the loop whose index the data distribution
   follows (``mj``: B and C columns live on ``node(mj)``) — that choice
   is the :class:`DSCSpec`;
2. ``hop(node(mj))`` is inserted at the top of that loop's body;
3. data the computation must *carry* (the current row of A) moves into
   an agent variable, loaded at a pickup point (``if mj == 0``), and
   every remaining reference to it is rewritten from the node access to
   the agent variable;
4. every compute statement becomes a NavP compute: the thread now runs
   where its data lives.

A dependence check guards step 3 — carried node variables must be
read-only inside the loop, decided by the static analyzer
(:func:`repro.analysis.deps.carried_write_diagnostics`, the same
analysis behind ``repro lint``). The output is a new registered
program; the input is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import visitor
from ..errors import TransformError
from ..navp import ir
from .deps import check_carries_read_only
from .rewrite import find_unique_loop, replace_at, substitute_expr

__all__ = ["DSCSpec", "dsc"]


@dataclass(frozen=True)
class DSCSpec:
    """The programmer-supplied distribution decisions.

    loop:
        Loop variable the distribution follows; ``hop()`` goes at the
        top of this loop's body.
    place:
        Destination coordinate, a tuple of IR expressions
        (``(Var("mj"),)`` for the paper's 1-D chain).
    carries:
        Agent variables to introduce: ``{"mA": NodeGet("A", (Var("mi"),))}``
        — each node access is loaded into the agent variable at the
        pickup point and substituted everywhere else.
    pickup_cond:
        When the pickup happens (``mj == 0``: the thread passes the
        data's home PE).
    """

    loop: str
    place: tuple
    carries: dict = field(default_factory=dict)
    pickup_cond: ir.Expr = ir.Const(True)


def _as_navp(body: tuple) -> tuple:
    """Recast every compute kind in ``body`` to ``"navp"``."""
    out = []
    for stmt in body:
        if isinstance(stmt, ir.ComputeStmt):
            stmt = ir.ComputeStmt(stmt.kernel, stmt.args, stmt.out, "navp")
        else:
            rule = visitor.try_stmt_rule(stmt)
            bodies = rule.bodies(stmt)
            if bodies:
                stmt = rule.rebuild(stmt, rule.exprs(stmt), tuple(
                    _as_navp(sub) for _label, sub in bodies))
        out.append(stmt)
    return tuple(out)


def dsc(program: ir.Program, spec: DSCSpec,
        name: str | None = None) -> ir.Program:
    """Apply the DSC transformation; returns the new registered program.

    DSC keeps a single thread, so program order is preserved whatever
    the dependences; the only legality condition is that the node
    variables copied into agent variables at the pickup point are not
    written inside the loop (the carried copy would go stale).
    """
    check_carries_read_only(
        program, spec.loop,
        [src.name for src in spec.carries.values()])
    path, loop = find_unique_loop(program, spec.loop)

    body = loop.body
    for agent_var, source in spec.carries.items():
        if not isinstance(source, ir.NodeGet):
            raise TransformError(
                f"carry source for {agent_var!r} must be a node access"
            )
        body = substitute_expr(body, source, ir.Var(agent_var))

    pickups = tuple(
        ir.Assign(agent_var, source)
        for agent_var, source in spec.carries.items()
    )
    prologue: tuple = (ir.HopStmt(spec.place),)
    if pickups:
        prologue += (ir.If(spec.pickup_cond, pickups),)

    new_loop = ir.For(loop.var, loop.count, prologue + body)
    out = replace_at(program, path, new_loop)
    out = ir.Program(name or f"{program.name}-dsc", _as_navp(out.body),
                     out.params)
    return ir.register_program(out, replace=True)
