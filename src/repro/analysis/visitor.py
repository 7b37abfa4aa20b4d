"""The shared, exhaustive IR walker every analysis builds on.

Before this module existed the repo had three hand-rolled expression
walkers (``deps.uses_var``, ``deps._reads_in`` and the dispatch inside
``rewrite.map_expr``), each silently or loudly incomplete over parts of
the IR. This module centralizes the *structure* of every IR node in two
dispatch tables — what sub-expressions a node has, what statement
bodies it has, and how to rebuild it — so that traversal, search,
mapping and rewriting are all derived from one source of truth.

Extending the IR with a new :class:`~repro.navp.ir.Expr` or
:class:`~repro.navp.ir.Stmt` subclass requires exactly one call to
:func:`register_expr_type` / :func:`register_stmt_type`; every walker,
analyzer and transformation then handles the new node. An unregistered
type raises :class:`~repro.errors.AnalysisError` (never a silent skip).

Statement paths follow the :func:`repro.navp.ir.body_at` convention: a
path is a tuple of steps, each step an ``int`` (descend into a ``For``
body) or an ``(int, "then"|"else")`` pair (descend into an ``If``
branch), with the final element being the statement's own index — so
``path[:-1]`` addresses the enclosing body and ``path[-1]`` the
statement within it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import AnalysisError
from ..navp import ir

__all__ = [
    "register_expr_type",
    "register_stmt_type",
    "walk_expr",
    "map_expr",
    "uses_var",
    "var_names",
    "normalize",
    "normalize_key",
    "stmt_exprs",
    "stmt_bodies",
    "map_stmt_exprs",
    "walk_stmts",
    "stmt_at",
    "find_loops",
    "find_unique_loop",
]


# --------------------------------------------------------------------------
# the extension point: per-type structural rules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExprRule:
    """How to take an expression apart and put it back together."""

    children: Callable  # expr -> tuple[Expr, ...]
    rebuild: Callable   # (expr, tuple[Expr, ...]) -> Expr


@dataclass(frozen=True)
class StmtRule:
    """The expression and body structure of one statement type."""

    exprs: Callable     # stmt -> tuple[Expr, ...]
    bodies: Callable    # stmt -> tuple[(label|None, tuple[Stmt, ...]), ...]
    rebuild: Callable   # (stmt, exprs, bodies) -> Stmt


_EXPR_RULES: dict = {}
_STMT_RULES: dict = {}


def register_expr_type(cls, *, children: Callable,
                       rebuild: Callable) -> None:
    """Teach every analysis and rewrite about a new expression type."""
    _EXPR_RULES[cls] = ExprRule(children, rebuild)


def register_stmt_type(cls, *, exprs: Callable, bodies: Callable,
                       rebuild: Callable) -> None:
    """Teach every analysis and rewrite about a new statement type."""
    _STMT_RULES[cls] = StmtRule(exprs, bodies, rebuild)


def _expr_rule(expr) -> ExprRule:
    rule = _EXPR_RULES.get(type(expr))
    if rule is None:
        raise AnalysisError(
            f"unknown expression type {type(expr).__name__!r} ({expr!r}); "
            f"register it with repro.analysis.visitor.register_expr_type"
        )
    return rule


def _stmt_rule(stmt) -> StmtRule:
    rule = _STMT_RULES.get(type(stmt))
    if rule is None:
        raise AnalysisError(
            f"unknown statement type {type(stmt).__name__!r} ({stmt!r}); "
            f"register it with repro.analysis.visitor.register_stmt_type"
        )
    return rule


def try_expr_rule(expr) -> ExprRule | None:
    """The rule for ``expr``, or None when its type is unregistered."""
    return _EXPR_RULES.get(type(expr))


def try_stmt_rule(stmt) -> StmtRule | None:
    """The rule for ``stmt``, or None when its type is unregistered."""
    return _STMT_RULES.get(type(stmt))


# -- built-in expressions ---------------------------------------------------

register_expr_type(
    ir.Const,
    children=lambda e: (),
    rebuild=lambda e, kids: e,
)
register_expr_type(
    ir.Var,
    children=lambda e: (),
    rebuild=lambda e, kids: e,
)
register_expr_type(
    ir.Bin,
    children=lambda e: (e.left, e.right),
    rebuild=lambda e, kids: ir.Bin(e.op, kids[0], kids[1]),
)
register_expr_type(
    ir.NodeGet,
    children=lambda e: tuple(e.idx),
    rebuild=lambda e, kids: ir.NodeGet(e.name, kids),
)
register_expr_type(
    ir.Index,
    children=lambda e: (e.base,) + tuple(e.idx),
    rebuild=lambda e, kids: ir.Index(kids[0], kids[1:]),
)

# -- built-in statements ----------------------------------------------------

register_stmt_type(
    ir.For,
    exprs=lambda s: (s.count,),
    bodies=lambda s: ((None, s.body),),
    rebuild=lambda s, exprs, bodies: ir.For(s.var, exprs[0], bodies[0]),
)
register_stmt_type(
    ir.If,
    exprs=lambda s: (s.cond,),
    bodies=lambda s: (("then", s.then), ("else", s.orelse)),
    rebuild=lambda s, exprs, bodies: ir.If(exprs[0], bodies[0], bodies[1]),
)
register_stmt_type(
    ir.Assign,
    exprs=lambda s: (s.expr,),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.Assign(s.var, exprs[0]),
)
register_stmt_type(
    ir.ComputeStmt,
    exprs=lambda s: tuple(s.args),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.ComputeStmt(
        s.kernel, exprs, s.out, s.kind),
)
register_stmt_type(
    ir.NodeSet,
    exprs=lambda s: tuple(s.idx) + (s.expr,),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.NodeSet(
        s.name, exprs[:-1], exprs[-1]),
)
register_stmt_type(
    ir.HopStmt,
    exprs=lambda s: tuple(s.place),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.HopStmt(exprs),
)
register_stmt_type(
    ir.InjectStmt,
    exprs=lambda s: tuple(e for _v, e in s.bindings),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.InjectStmt(
        s.program,
        tuple((v, e) for (v, _old), e in zip(s.bindings, exprs))),
)
register_stmt_type(
    ir.WaitStmt,
    exprs=lambda s: tuple(s.args),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.WaitStmt(s.event, exprs),
)
register_stmt_type(
    ir.SignalStmt,
    exprs=lambda s: tuple(s.args) + (s.count,),
    bodies=lambda s: (),
    rebuild=lambda s, exprs, bodies: ir.SignalStmt(
        s.event, exprs[:-1], exprs[-1]),
)


# --------------------------------------------------------------------------
# expression traversal
# --------------------------------------------------------------------------

def walk_expr(expr: ir.Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    for child in _expr_rule(expr).children(expr):
        yield from walk_expr(child)


def map_expr(fn: Callable, expr: ir.Expr) -> ir.Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node."""
    rule = _expr_rule(expr)
    kids = tuple(rule.children(expr))
    if kids:
        expr = rule.rebuild(expr, tuple(map_expr(fn, k) for k in kids))
    return fn(expr)


def uses_var(expr: ir.Expr, var: str) -> bool:
    """Does ``expr`` mention agent/loop variable ``var``?"""
    return any(isinstance(e, ir.Var) and e.name == var
               for e in walk_expr(expr))


def var_names(expr: ir.Expr) -> set:
    """Names of every agent variable mentioned in ``expr``."""
    return {e.name for e in walk_expr(expr) if isinstance(e, ir.Var)}


# --------------------------------------------------------------------------
# key normalization
# --------------------------------------------------------------------------

_COMMUTATIVE = frozenset({"+", "*", "==", "!="})


def normalize(expr: ir.Expr) -> ir.Expr:
    """A canonical form in which commutative operands are ordered.

    ``k + 1`` and ``1 + k`` normalize identically, so structurally
    different but equivalent index keys compare equal; non-commutative
    operators (``-``, ``//``, ``%``, ``<``) are left untouched.
    """

    def reorder(e: ir.Expr) -> ir.Expr:
        if isinstance(e, ir.Bin) and e.op in _COMMUTATIVE:
            if repr(e.right) < repr(e.left):
                return ir.Bin(e.op, e.right, e.left)
        return e

    return map_expr(reorder, expr)


def normalize_key(idx) -> tuple:
    """Normalize a key-expression tuple element-wise."""
    return tuple(normalize(e) for e in idx)


# --------------------------------------------------------------------------
# statement traversal
# --------------------------------------------------------------------------

def stmt_exprs(stmt: ir.Stmt) -> tuple:
    """Every expression appearing directly in ``stmt`` (not in bodies)."""
    return tuple(_stmt_rule(stmt).exprs(stmt))


def stmt_bodies(stmt: ir.Stmt) -> tuple:
    """``(label, body)`` pairs for each nested statement list.

    ``label`` is None for a ``For`` body (path step is the bare index)
    and ``"then"``/``"else"`` for ``If`` branches (path step is an
    ``(index, label)`` pair).
    """
    return tuple(_stmt_rule(stmt).bodies(stmt))


def map_stmt_exprs(fn: Callable, stmt: ir.Stmt) -> ir.Stmt:
    """Rebuild a statement, applying ``fn`` to every contained expr."""
    rule = _stmt_rule(stmt)
    new_exprs = tuple(map_expr(fn, e) for e in rule.exprs(stmt))
    new_bodies = tuple(
        tuple(map_stmt_exprs(fn, s) for s in body)
        for _label, body in rule.bodies(stmt)
    )
    return rule.rebuild(stmt, new_exprs, new_bodies)


def walk_stmts(body, path: tuple = ()):
    """Yield ``(path, stmt)`` for every statement, recursively.

    Paths compose with :func:`repro.navp.ir.body_at`:
    ``body_at(program, path[:-1])[path[-1]]`` is the yielded statement.
    """
    for i, stmt in enumerate(body):
        yield path + (i,), stmt
        for label, sub in _stmt_rule(stmt).bodies(stmt):
            step = i if label is None else (i, label)
            yield from walk_stmts(sub, path + (step,))


def stmt_at(program: ir.Program, path: tuple) -> ir.Stmt:
    """Resolve a walker path back to its statement."""
    return ir.body_at(program, tuple(path[:-1]))[path[-1]]


def find_loops(body, var: str) -> list:
    """All ``(path, For)`` pairs binding loop variable ``var``."""
    return [(path, stmt) for path, stmt in walk_stmts(body)
            if isinstance(stmt, ir.For) and stmt.var == var]


def find_unique_loop(program: ir.Program, var: str) -> tuple:
    """The single loop over ``var``; AnalysisError otherwise."""
    hits = find_loops(program.body, var)
    if len(hits) != 1:
        raise AnalysisError(
            f"expected exactly one loop over {var!r} in {program.name}, "
            f"found {len(hits)}"
        )
    return hits[0]
