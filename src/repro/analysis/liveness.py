"""Agent-variable liveness: what a continuation still reads.

The DSC step of the paper is defined by small hops — the computation
migrates "carrying small data in *agent variables*" while the large
data stays put. Which agent variables a messenger must carry is a
property of *where in its program it is*: a variable is **live** at a
program point when some path from there reads it before writing it.
Everything else in ``env`` is dead weight — the kernel result already
stored to a node variable, the boundary row of the previous block — and
a hop, a frozen waiter or a checkpointed ready task that ships it pays
for bytes nobody will read.

This is the classic backward may-use dataflow, on the structured IR:

* a statement's *uses* are the agent variables of its own expressions
  (:func:`~repro.analysis.visitor.stmt_exprs` — ``Inject`` bindings,
  ``Wait``/``Signal`` arguments, ``NodeSet``/``Hop`` expressions, a
  ``For`` count, an ``If`` condition);
* its *kills* are ``Assign.var``, ``ComputeStmt.out`` and — on entry
  to a non-empty loop — ``For.var``;
* an ``If`` joins both arms; a ``For`` joins "skip" with "enter", and
  its back-edge reads the loop variable (the interpreter increments
  it) and re-enters the body, so the body is solved to a fixpoint.

Program points are the interpreter's own: ``(path, pc)`` with ``path``
a :func:`repro.navp.ir.body_at` path and ``0 <= pc <= len(body)`` —
``pc == len(body)`` is the point *after* the last statement, where a
continuation whose hop ended a loop body is parked. The enclosing
frames of a continuation are a function of the top frame's path (a
``For``/``If`` at index ``i`` leaves its parent at ``i + 1``), so the
live set at the top frame's ``(path, pc)`` is the live set of the
whole continuation.

:func:`live_in` solves every point of a program at once. Its one
runtime caller, :func:`repro.navp.interp.live_table`, memoizes the
table on the :class:`~repro.navp.ir.Program` object beside the
program's compiled code: a warm pool worker pays once per program for
its lifetime, a process that never snapshots a continuation of the
program pays nothing, and a controller fabric solves its programs'
tables before it forks, so no forked worker solves one.
"""

from __future__ import annotations

from ..navp import ir
from .visitor import stmt_bodies, stmt_exprs, var_names

__all__ = ["live_in"]


def live_in(program: ir.Program) -> dict:
    """``{(path, pc): frozenset of live agent variables}`` for every
    program point of ``program`` (see the module docstring)."""
    table: dict = {}
    _solve_body(program.body, (), frozenset(), table)
    return table


def _uses(stmt) -> frozenset:
    return frozenset().union(*map(var_names, stmt_exprs(stmt)))


def _solve_body(body: tuple, path: tuple, live_out: frozenset,
                table: dict) -> frozenset:
    """Fill ``table`` for every point of ``body`` (and the bodies
    nested in it) given what is live after it; returns what is live
    before its first statement."""
    live = table[(path, len(body))] = live_out
    for pc in range(len(body) - 1, -1, -1):
        stmt = body[pc]
        if isinstance(stmt, ir.For):
            inner = path + (pc,)
            # back-edge: the increment reads the loop variable, then
            # either re-enters the body or falls out of the loop
            after = live | {stmt.var}
            head = _solve_body(stmt.body, inner, after, table)
            while not head <= after:
                after = after | head
                head = _solve_body(stmt.body, inner, after, table)
            live = live | (head - {stmt.var}) | _uses(stmt)
        elif isinstance(stmt, ir.If):
            joined = _uses(stmt)
            for label, arm in stmt_bodies(stmt):
                joined = joined | _solve_body(
                    arm, path + ((pc, label),), live, table)
            live = joined
        else:
            if isinstance(stmt, ir.Assign):
                live = live - {stmt.var}
            elif isinstance(stmt, ir.ComputeStmt):
                live = live - {stmt.out}
            live = live | _uses(stmt)
        table[(path, pc)] = live
    return live
