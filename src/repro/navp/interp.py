"""Interpreter for navigational IR programs.

An :class:`Interp` holds a *continuation*: the registered program's
name, a control stack of (path, pc, loop) frames addressing positions
in the program tree, and the agent environment. All three are plain
picklable data — this is what the process fabric ships on a hop.

Each registered program is compiled once, at first use, into closures
(:func:`code_table`): every statement list of the tree becomes a tuple
of one callable per statement, keyed by its path, and every expression
a callable with its ``Var``/``Const`` leaves folded into its parent. A
continuation's ``(path, pc)`` therefore names a compiled step — the
literal form of MESSENGERS' compiled resumption points — and
:func:`advance` is a walk along those tuples, the one every caller
shares: :meth:`Interp.next_action` and the model checker's trace
extraction, which runs it over an opaque node store. The code lives
on the :class:`~repro.navp.ir.Program` beside its liveness table, holds
no reference back to it, and never reaches a pickle: what moves is
still only the continuation.

The interpreter communicates with its host (an :class:`IRMessenger` on
the sim/thread fabrics, or a worker loop on the process fabric) through
:func:`Interp.next_action`: free statements (loops, assignments, node
writes) execute inline; effectful statements return an action tuple and
leave the continuation already advanced past them, so the host can
resume after performing the effect — or pickle the whole interpreter
and resume it elsewhere.

Action tuples::

    ("hop",     coord)
    ("compute", kernel_name, argvals, out_var, kind)
    ("wait",    event, args)
    ("signal",  event, args, count)
    ("inject",  program_name, env_dict)
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from ..errors import ConfigurationError, FabricError
from . import ir
from .kernels import get_kernel
from .messenger import Messenger

__all__ = ["Interp", "IRMessenger", "advance", "code_table", "live_table"]


class Interp:
    """A resumable, picklable IR continuation."""

    def __init__(self, program: str, env: dict | None = None):
        ir.get_program(program)  # validate eagerly
        self.program = program
        self.env: dict = dict(env or {})
        self.stack: list = [[(), 0, None]]  # [path, pc, loop]
        # Optional access tap (repro.fabric.hb.InterpTap) used by the
        # dynamic race checker; None keeps every hot path branch-free
        # beyond a single identity test.
        self.tracer = None

    def eval(self, expr: ir.Expr, node_vars: dict) -> Any:
        """Evaluate one expression here, compiled by the same compiler
        as the program's statements."""
        return _expr(expr, self.program)(self.env, node_vars, self.tracer)

    # -- control ------------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.stack

    def next_action(self, node_vars: dict):
        """Advance to the next effect; None when the program finished."""
        return advance(ir.get_program(self.program), self.stack, self.env,
                       node_vars, self.tracer)

    def agent_snapshot(self) -> tuple:
        """What a hop must carry: the continuation as plain data.

        The payload is the tuple ``(program_name, env, stack_frames)``
        — tuples pickle without per-instance key strings, which is
        measurable at hop rates. ``env`` holds the agent variables that
        are *live* here (:mod:`repro.analysis.liveness`) and no others:
        what the rest of the program never reads stays behind. The top
        frame is the continuation's position; the frames under it are
        determined by its path.
        """
        stack = self.stack
        env = self.env
        if env and stack:
            top = stack[-1]
            live = live_table(ir.get_program(self.program))[top[0], top[1]]
            # all of it live is the common case, and a C-speed copy
            env = env.copy() if env.keys() <= live else {
                var: val for var, val in env.items() if var in live}
        else:
            env = {}    # nothing to restrict: no table needed
        return (self.program, env, [list(f) for f in stack])

    @classmethod
    def from_snapshot(cls, snap) -> "Interp":
        """Rebuild the interpreter :meth:`agent_snapshot` froze; anything
        but that 3-tuple is a :class:`ConfigurationError` naming what
        arrived (a bare unpack would take a 3-key dict's *keys*)."""
        if not isinstance(snap, tuple):
            raise _bad_snapshot(type(snap).__name__)
        try:
            program, env, stack = snap
        except ValueError:
            raise _bad_snapshot(f"a {len(snap)}-tuple") from None
        interp = cls.__new__(cls)
        interp.program = program
        interp.env = env
        interp.stack = [list(f) for f in stack]
        interp.tracer = None
        return interp


def advance(prog: ir.Program, stack: list, env: dict, node_vars,
            tracer=None):
    """Run ``prog``'s continuation ``stack`` over ``env`` to its next
    action tuple; None when the program finished.

    The walk every caller shares: :meth:`Interp.next_action`, and the
    model checker's trace extraction (:mod:`repro.analysis.statespace`),
    which passes an opaque node store. A step returns None (free
    statement: go on), a new frame (a ``For``/``If`` entered a body) or
    the action tuple to report. ``frame[1]`` is written whenever
    control leaves the frame; a ``tracer`` has its ``site`` set to the
    ``(path, pc)`` of each statement before it runs.
    """
    code = code_table(prog)
    while stack:
        frame = stack[-1]
        path, pc, loop = frame
        body = code.get(path)
        if body is None:
            raise _no_body(prog, path)
        n = len(body)
        while True:
            if pc < n:
                if tracer is not None:
                    tracer.site = (path, pc)
                out = body[pc](env, node_vars, tracer)
                pc += 1
                if out is None:
                    continue
                frame[1] = pc
                if out.__class__ is list:
                    stack.append(out)
                    break
                return out
            if loop is not None:
                var, count = loop
                i = env[var] + 1
                env[var] = i
                if i < count:
                    pc = 0
                    continue
            stack.pop()
            break
    return None


def _bad_snapshot(arrived: str) -> ConfigurationError:
    return ConfigurationError(
        "continuation snapshot must be a (program, env, stack) tuple, "
        f"got {arrived}")


def _no_body(prog: ir.Program, path) -> ConfigurationError:
    ir.body_at(prog, path)      # names the bad step when there is one
    return ConfigurationError(
        f"path {path!r} addresses no statement list in {prog.name}")


def code_table(prog: ir.Program) -> dict:
    """The program compiled: ``{path: (step, ...)}`` for every
    statement list, built on first use and kept on the Program beside
    its liveness table — so a process forked after the first call
    inherits it instead of compiling again."""
    code = prog.__dict__.get("_code")
    if code is None:
        code = _compile(prog.name, prog.body)
        object.__setattr__(prog, "_code", code)
    return code


def live_table(prog: ir.Program) -> dict:
    """The program's live-variable table
    (:func:`repro.analysis.liveness.live_in`), solved on first use and
    kept on the Program object like its code (:func:`code_table`), and
    inherited the same way by a process forked after the first call."""
    table = prog.__dict__.get("_live_cache")
    if table is None:
        # repro.analysis imports this package, so not at module level
        from ..analysis.liveness import live_in
        table = live_in(prog)
        object.__setattr__(prog, "_live_cache", table)
    return table


# --------------------------------------------------------------------------
# the compiler
#
# An expression compiles to ``fn(env, node_vars, tracer) -> value``, a
# statement to ``step(env, node_vars, tracer)`` returning what
# next_action expects. Closures capture names, values and other
# closures, never the Program. IR subclasses dispatch like their base,
# and a node of no known kind compiles to a closure that raises when it
# executes, so one in a branch never taken is harmless.
# --------------------------------------------------------------------------

_EXPR_KINDS = (ir.NodeGet, ir.Index, ir.Const, ir.Var, ir.Bin)
_STMT_KINDS = (ir.Assign, ir.For, ir.If, ir.NodeSet, ir.HopStmt,
               ir.ComputeStmt, ir.WaitStmt, ir.SignalStmt, ir.InjectStmt)


def _kind(node, kinds):
    for base in kinds:
        if isinstance(node, base):
            return base
    return None


def _unbound(name: str, program: str) -> FabricError:
    return FabricError(
        f"agent variable {name!r} is unbound in {program}")


def _missing(names, env, program: str) -> FabricError:
    """The error for the first of ``names`` (in evaluation order) that
    ``env`` lacks."""
    return _unbound(next(n for n in names if n not in env), program)


def _absent(name: str) -> FabricError:
    return FabricError(f"node variable {name!r} absent at this PE")


def _compile(program: str, body) -> dict:
    code: dict = {}
    todo = [((), body)]
    while todo:
        path, stmts = todo.pop()
        code[path] = tuple(_step(stmt, path, pc, program, todo)
                           for pc, stmt in enumerate(stmts))
    return code


def _expr(expr, program: str):
    kind = _kind(expr, _EXPR_KINDS)
    if kind is ir.Const:
        value = expr.value
        return lambda env, nv, tr: value
    if kind is ir.Var:
        name = expr.name

        def var(env, nv, tr):
            try:
                return env[name]
            except KeyError:
                raise _unbound(name, program) from None
        return var
    if kind is ir.Bin:
        return _bin(expr, program)
    if kind is ir.NodeGet:
        return _node_get(expr, program)
    if kind is ir.Index:
        return _index(expr, program)

    def unknown(env, nv, tr):
        raise ConfigurationError(f"unknown expression {expr!r}")
    return unknown


def _bin(expr, program: str):
    op = ir._BIN_OPS[expr.op]
    left, right = expr.left, expr.right
    lk = _kind(left, _EXPR_KINDS)
    rk = _kind(right, _EXPR_KINDS)
    if lk is ir.Var and rk is ir.Var:
        a, b = left.name, right.name

        def vv(env, nv, tr):
            try:
                x = env[a]
                y = env[b]
            except KeyError:
                raise _missing((a, b), env, program) from None
            return op(x, y)
        return vv
    if lk is ir.Var and rk is ir.Const:
        a, b = left.name, right.value

        def vc(env, nv, tr):
            try:
                x = env[a]
            except KeyError:
                raise _unbound(a, program) from None
            return op(x, b)
        return vc
    lf = _expr(left, program)
    if rk is ir.Const:
        b = right.value
        return lambda env, nv, tr: op(lf(env, nv, tr), b)
    if rk is ir.Var:
        b = right.name

        def fv(env, nv, tr):
            x = lf(env, nv, tr)
            try:
                y = env[b]
            except KeyError:
                raise _unbound(b, program) from None
            return op(x, y)
        return fv
    rf = _expr(right, program)
    return lambda env, nv, tr: op(lf(env, nv, tr), rf(env, nv, tr))


def _key(idx: tuple, program: str):
    """A node-variable or subscript key: None for ``()``, the value for
    one index, a tuple for several."""
    if not idx:
        return None
    if len(idx) == 1:
        return _expr(idx[0], program)
    return _tuple(idx, program)


def _tuple(exprs, program: str):
    if not exprs:
        return lambda env, nv, tr: ()
    if len(exprs) > 1 and all(_kind(e, _EXPR_KINDS) is ir.Var
                              for e in exprs):
        names = tuple(e.name for e in exprs)
        get = itemgetter(*names)    # one C call builds the whole tuple

        def all_vars(env, nv, tr):
            try:
                return get(env)
            except KeyError:
                raise _missing(names, env, program) from None
        return all_vars
    fns = tuple(_expr(e, program) for e in exprs)
    if len(fns) == 1:
        (f,) = fns
        return lambda env, nv, tr: (f(env, nv, tr),)
    if len(fns) == 2:
        f, g = fns
        return lambda env, nv, tr: (f(env, nv, tr), g(env, nv, tr))
    return lambda env, nv, tr: tuple([f(env, nv, tr) for f in fns])


def _node_get(expr, program: str):
    name = expr.name
    keyf = _key(expr.idx, program)
    if keyf is None:
        def whole(env, nv, tr):
            store = nv.get(name)
            if store is None:
                raise _absent(name)
            if tr is not None:
                tr.on_read(name, None)
            return store
        return whole

    def entry(env, nv, tr):
        key = keyf(env, nv, tr)
        store = nv.get(name)
        if store is None:
            raise _absent(name)
        if tr is not None:
            tr.on_read(name, key)
        return store[key] if key is not None else store
    return entry


def _index(expr, program: str):
    basef = _expr(expr.base, program)
    keyf = _key(expr.idx, program)
    if keyf is None:
        return lambda env, nv, tr: basef(env, nv, tr)[None]
    return lambda env, nv, tr: basef(env, nv, tr)[keyf(env, nv, tr)]


def _step(stmt, path: tuple, pc: int, program: str, todo: list):
    kind = _kind(stmt, _STMT_KINDS)
    if kind is ir.Assign:
        var = stmt.var
        f = _expr(stmt.expr, program)

        def assign(env, nv, tr):
            env[var] = f(env, nv, tr)
        return assign

    if kind is ir.For:
        var = stmt.var
        countf = _expr(stmt.count, program)
        body_path = path + (pc,)
        todo.append((body_path, stmt.body))

        def loop(env, nv, tr):
            count = countf(env, nv, tr)
            if count > 0:
                env[var] = 0
                return [body_path, 0, (var, count)]
            return None
        return loop

    if kind is ir.If:
        condf = _expr(stmt.cond, program)
        then_path = path + ((pc, "then"),)
        else_path = path + ((pc, "else"),)
        todo.extend(((then_path, stmt.then), (else_path, stmt.orelse)))
        # an empty branch pushes no frame
        then_path = then_path if stmt.then else None
        else_path = else_path if stmt.orelse else None

        def branch(env, nv, tr):
            target = then_path if condf(env, nv, tr) else else_path
            return None if target is None else [target, 0, None]
        return branch

    if kind is ir.NodeSet:
        name = stmt.name
        keyf = _key(stmt.idx, program)
        valuef = _expr(stmt.expr, program)
        if keyf is None:
            def store_whole(env, nv, tr):
                nv[name] = valuef(env, nv, tr)
                if tr is not None:
                    tr.on_write(name, None)
            return store_whole

        def store_entry(env, nv, tr):
            key = keyf(env, nv, tr)
            value = valuef(env, nv, tr)
            if key is None:
                nv[name] = value
            else:
                nv.setdefault(name, {})[key] = value
            if tr is not None:
                tr.on_write(name, key)
        return store_entry

    if kind is ir.HopStmt:
        placef = _tuple(stmt.place, program)
        return lambda env, nv, tr: ("hop", placef(env, nv, tr))

    if kind is ir.ComputeStmt:
        kernel, out, cost = stmt.kernel, stmt.out, stmt.kind
        argsf = _tuple(stmt.args, program)
        return lambda env, nv, tr: (
            "compute", kernel, argsf(env, nv, tr), out, cost)

    if kind is ir.WaitStmt:
        event = stmt.event
        if not stmt.args:
            action = ("wait", event, ())
            return lambda env, nv, tr: action
        argsf = _tuple(stmt.args, program)
        return lambda env, nv, tr: ("wait", event, argsf(env, nv, tr))

    if kind is ir.SignalStmt:
        event = stmt.event
        if not stmt.args and _kind(stmt.count, _EXPR_KINDS) is ir.Const:
            action = ("signal", event, (), stmt.count.value)
            return lambda env, nv, tr: action
        argsf = _tuple(stmt.args, program)
        countf = _expr(stmt.count, program)
        return lambda env, nv, tr: (
            "signal", event, argsf(env, nv, tr), countf(env, nv, tr))

    if kind is ir.InjectStmt:
        child = stmt.program
        bindings = tuple((var, _expr(e, program))
                         for var, e in stmt.bindings)
        return lambda env, nv, tr: (
            "inject", child, {var: f(env, nv, tr) for var, f in bindings})

    def unknown(env, nv, tr):
        raise ConfigurationError(f"unknown statement {stmt!r}")
    return unknown


class IRMessenger(Messenger):
    """Runs an IR program as a messenger on the sim/thread fabrics.

    Its continuation is always the interpreter's explicit
    ``(program, env, stack)`` state (:meth:`Interp.agent_snapshot`),
    which is what a hop ships between OS processes.
    """

    def __init__(self, program: str, env: dict | None = None):
        self.name = program
        self.interp = Interp(program, env)

    def main(self):
        interp = self.interp
        action = interp.next_action(self.vars)
        while action is not None:
            kind = action[0]
            if kind == "hop":
                yield self.hop(action[1])
            elif kind == "compute":
                _, kname, argvals, out, cost_kind = action
                kernel = get_kernel(kname)
                value = yield self.compute(
                    fn=lambda k=kernel, a=argvals: k.fn(*a),
                    flops=kernel.flops(*argvals),
                    kind=cost_kind,
                    note=kname,
                )
                interp.env[out] = value
            elif kind == "wait":
                yield self.wait_event(action[1], *action[2])
            elif kind == "signal":
                yield self.signal_event(action[1], *action[2],
                                        count=action[3])
            elif kind == "inject":
                yield self.inject(IRMessenger(action[1], action[2]))
            else:  # pragma: no cover - next_action is exhaustive
                raise ConfigurationError(f"unknown action {action!r}")
            action = interp.next_action(self.vars)
