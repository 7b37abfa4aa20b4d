"""Per-statement access summaries: what each statement reads, writes,
waits on, signals, and where the messenger stands when it executes.

This is the front end shared by the dependence, locality and protocol
analyses. One walk over a program produces a flat tuple of
:class:`StmtSummary` records in pre-order (execution order for
straight-line code), each carrying:

* node-variable accesses (:class:`NodeAccess`) with their *symbolic*
  key expressions, both raw and normalized (``k+1`` == ``1+k``);
* agent-variable uses and defs;
* hop / wait / signal / inject payloads;
* the symbolic current place, tracked through :class:`HopStmt` — the
  locality checker's main input. Place tracking is conservative: after
  a ``For`` or ``If`` whose bodies hop, the place is forgotten
  (``None``) unless every path agrees;
* the enclosing loop variables and ``If`` conditions (then-branch
  conditions only — the analyzer can use an equality ``mj == 0`` as a
  substitution, while a negation has no such use).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..navp import ir
from . import visitor

__all__ = ["NodeAccess", "StmtSummary", "summarize", "summarize_body"]


@dataclass(frozen=True)
class NodeAccess:
    """One read or write of a node variable.

    ``key`` is the normalized key tuple (commutative operands ordered);
    ``raw_key`` is as written in the program.
    """

    var: str
    key: tuple
    raw_key: tuple
    path: tuple
    write: bool


@dataclass(frozen=True)
class StmtSummary:
    """Everything an analysis needs to know about one statement."""

    path: tuple
    stmt: ir.Stmt
    pos: int                   # pre-order position (execution order proxy)
    node_reads: tuple = ()     # NodeAccess, write=False
    node_writes: tuple = ()    # NodeAccess, write=True
    agent_uses: frozenset = frozenset()
    agent_defs: frozenset = frozenset()
    hop: tuple | None = None       # place expr tuple, or None
    wait: tuple | None = None      # (event, args) or None
    signal: tuple | None = None    # (event, args, count) or None
    inject: tuple | None = None    # (program_name, bindings) or None
    place: tuple | None = None     # symbolic place when executing, or None
    conds: tuple = ()              # enclosing then-branch If conditions
    loops: tuple = ()              # enclosing loop variables, outer first


def _expr_accesses(expr: ir.Expr, path: tuple) -> tuple:
    """(node_reads, agent_uses) of one expression."""
    reads = []
    uses = set()
    for e in visitor.walk_expr(expr):
        if isinstance(e, ir.NodeGet):
            reads.append(NodeAccess(
                var=e.name,
                key=visitor.normalize_key(e.idx),
                raw_key=tuple(e.idx),
                path=path,
                write=False,
            ))
        elif isinstance(e, ir.Var):
            uses.add(e.name)
    return tuple(reads), uses


def _contains_hop(body: tuple) -> bool:
    return any(isinstance(s, ir.HopStmt)
               for _p, s in visitor.walk_stmts(body))


class _Walker:
    def __init__(self) -> None:
        self.out: list = []
        self.pos = 0

    def body(self, stmts: tuple, path: tuple, place, conds: tuple,
             loops: tuple):
        """Summarize a statement list; returns the place after it."""
        for i, stmt in enumerate(stmts):
            spath = path + (i,)
            place = self.stmt(stmt, spath, place, conds, loops)
        return place

    def stmt(self, stmt: ir.Stmt, spath: tuple, place, conds: tuple,
             loops: tuple):
        reads: list = []
        writes: list = []
        uses: set = set()
        defs: set = set()
        hop = wait = signal = inject = None

        if isinstance(stmt, ir.NodeSet):
            for e in stmt.idx + (stmt.expr,):
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            writes.append(NodeAccess(
                var=stmt.name,
                key=visitor.normalize_key(stmt.idx),
                raw_key=tuple(stmt.idx),
                path=spath,
                write=True,
            ))
        elif isinstance(stmt, ir.Assign):
            r, u = _expr_accesses(stmt.expr, spath)
            reads.extend(r)
            uses |= u
            defs.add(stmt.var)
        elif isinstance(stmt, ir.ComputeStmt):
            for e in stmt.args:
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            defs.add(stmt.out)
        elif isinstance(stmt, ir.HopStmt):
            for e in stmt.place:
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            hop = tuple(stmt.place)
        elif isinstance(stmt, ir.WaitStmt):
            for e in stmt.args:
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            wait = (stmt.event, tuple(stmt.args))
        elif isinstance(stmt, ir.SignalStmt):
            for e in stmt.args + (stmt.count,):
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            signal = (stmt.event, tuple(stmt.args), stmt.count)
        elif isinstance(stmt, ir.InjectStmt):
            for _v, e in stmt.bindings:
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            inject = (stmt.program, tuple(stmt.bindings))
        elif isinstance(stmt, (ir.For, ir.If)):
            for e in visitor.stmt_exprs(stmt):
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u
            if isinstance(stmt, ir.For):
                defs.add(stmt.var)
        else:
            # an extension statement: summarize its declared exprs
            for e in visitor.stmt_exprs(stmt):
                r, u = _expr_accesses(e, spath)
                reads.extend(r)
                uses |= u

        self.out.append(StmtSummary(
            path=spath,
            stmt=stmt,
            pos=self.pos,
            node_reads=tuple(reads),
            node_writes=tuple(writes),
            agent_uses=frozenset(uses),
            agent_defs=frozenset(defs),
            hop=hop,
            wait=wait,
            signal=signal,
            inject=inject,
            place=place,
            conds=conds,
            loops=loops,
        ))
        self.pos += 1

        # -- recurse into bodies; compute the post-statement place ---------
        if isinstance(stmt, ir.HopStmt):
            return hop
        if isinstance(stmt, ir.For):
            # A body that hops makes the place iteration-dependent: the
            # first iteration starts at `place` but later ones start
            # wherever the previous iteration ended, so the body entry
            # place is unknown (statements after an in-body hop still
            # get that hop's target).
            hops = _contains_hop(stmt.body)
            self.body(stmt.body, spath, None if hops else place,
                      conds, loops + (stmt.var,))
            return None if hops else place
        if isinstance(stmt, ir.If):
            then_place = self.body(stmt.then, spath[:-1]
                                   + ((spath[-1], "then"),), place,
                                   conds + (stmt.cond,), loops)
            else_place = self.body(stmt.orelse, spath[:-1]
                                   + ((spath[-1], "else"),), place,
                                   conds, loops)
            if then_place == else_place:
                return then_place
            return None
        return place


def summarize_body(body: tuple, entry_place=None,
                   base_path: tuple = ()) -> tuple:
    """Summaries for a bare statement tuple (see :func:`summarize`).

    ``base_path`` prefixes every summary's path, so a nested body (a
    loop's, say) yields paths addressable from the enclosing program.
    """
    walker = _Walker()
    walker.body(tuple(body), tuple(base_path), entry_place, (), ())
    return tuple(walker.out)


def summarize(program: ir.Program, entry_place=None) -> tuple:
    """Pre-order :class:`StmtSummary` tuple for ``program``.

    ``entry_place`` is the symbolic coordinate (tuple of Exprs) the
    messenger occupies when the program starts, or None for unknown.
    With no entry place the summaries are computed once per Program
    object and kept on it beside the interpreter's compiled code
    (``Program.__dict__["_summaries"]``); every record is frozen, so
    the analyses share one tuple. A pickle still carries only the
    program's three fields.
    """
    if entry_place is not None:
        return summarize_body(program.body, entry_place)
    summaries = program.__dict__.get("_summaries")
    if summaries is None:
        summaries = summarize_body(program.body)
        object.__setattr__(program, "_summaries", summaries)
    return summaries
