"""Interpreter for navigational IR programs.

An :class:`Interp` holds a *continuation*: the registered program's
name, a control stack of (path, pc, loop) frames addressing positions
in the program tree, and the agent environment. All three are plain
picklable data — this is what the process fabric ships on a hop.

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

from typing import Any

from ..errors import ConfigurationError, FabricError
from . import ir
from .kernels import get_kernel
from .messenger import Messenger

__all__ = ["Interp", "IRMessenger", "live_table", "run_ir_on_fabric"]


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

    # -- expression evaluation -----------------------------------------
    def eval(self, expr: ir.Expr, node_vars: dict) -> Any:
        # Exact-type tests first (Const/Var dominate every workload);
        # subclasses of the IR nodes fall through to isinstance below.
        cls = expr.__class__
        if cls is ir.Const:
            return expr.value
        if cls is ir.Var:
            try:
                return self.env[expr.name]
            except KeyError:
                raise FabricError(
                    f"agent variable {expr.name!r} is unbound in "
                    f"{self.program}"
                ) from None
        if cls is ir.Bin:
            return ir._BIN_OPS[expr.op](
                self.eval(expr.left, node_vars),
                self.eval(expr.right, node_vars))
        return self._eval_slow(expr, node_vars)

    def _eval_slow(self, expr: ir.Expr, node_vars: dict) -> Any:
        if isinstance(expr, ir.NodeGet):
            key = self._key(expr.idx, node_vars)
            store = node_vars.get(expr.name)
            if store is None:
                raise FabricError(
                    f"node variable {expr.name!r} absent at this PE"
                )
            tracer = self.tracer
            if tracer is not None:
                tracer.on_read(expr.name, key)
            return store[key] if key is not None else store
        if isinstance(expr, ir.Index):
            base = self.eval(expr.base, node_vars)
            key = self._key(expr.idx, node_vars)
            return base[key]
        if isinstance(expr, ir.Const):
            return expr.value
        if isinstance(expr, ir.Var):
            try:
                return self.env[expr.name]
            except KeyError:
                raise FabricError(
                    f"agent variable {expr.name!r} is unbound in "
                    f"{self.program}"
                ) from None
        if isinstance(expr, ir.Bin):
            return ir._BIN_OPS[expr.op](
                self.eval(expr.left, node_vars),
                self.eval(expr.right, node_vars))
        raise ConfigurationError(f"unknown expression {expr!r}")

    def _key(self, idx: tuple, node_vars: dict):
        if not idx:
            return None
        vals = tuple(self.eval(e, node_vars) for e in idx)
        return vals[0] if len(vals) == 1 else vals

    # -- control ------------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.stack

    def _program(self) -> ir.Program:
        return ir.get_program(self.program)

    def next_action(self, node_vars: dict):
        """Advance to the next effect; None when the program finished."""
        prog = ir.get_program(self.program)
        env = self.env
        stack = self.stack
        evaluate = self.eval
        tracer = self.tracer
        while stack:
            frame = stack[-1]
            path, pc, loop = frame
            body = _body_cached(prog, path)
            if pc >= len(body):
                if loop is not None:
                    var, count = loop
                    env[var] += 1
                    if env[var] < count:
                        frame[1] = 0
                        continue
                stack.pop()
                continue

            stmt = body[pc]
            code = _STMT_CODES.get(stmt.__class__)
            if code is None:
                code = _resolve_stmt(stmt.__class__)
            if tracer is not None:
                tracer.site = (path, pc)

            if code == _ASSIGN:
                env[stmt.var] = evaluate(stmt.expr, node_vars)
                frame[1] = pc + 1
                continue

            if code == _FOR:
                frame[1] = pc + 1
                count = evaluate(stmt.count, node_vars)
                if count > 0:
                    env[stmt.var] = 0
                    stack.append([path + (pc,), 0, (stmt.var, count)])
                continue

            if code == _IF:
                frame[1] = pc + 1
                if evaluate(stmt.cond, node_vars):
                    target, branch = stmt.then, "then"
                else:
                    target, branch = stmt.orelse, "else"
                if target:
                    stack.append([path + ((pc, branch),), 0, None])
                continue

            if code == _NODESET:
                key = self._key(stmt.idx, node_vars)
                value = evaluate(stmt.expr, node_vars)
                if key is None:
                    node_vars[stmt.name] = value
                else:
                    node_vars.setdefault(stmt.name, {})[key] = value
                if tracer is not None:
                    tracer.on_write(stmt.name, key)
                frame[1] = pc + 1
                continue

            # effectful statements: advance past, then report
            frame[1] = pc + 1

            if code == _HOP:
                coord = tuple(evaluate(e, node_vars) for e in stmt.place)
                return ("hop", coord)
            if code == _COMPUTE:
                argvals = tuple(
                    evaluate(e, node_vars) for e in stmt.args)
                return ("compute", stmt.kernel, argvals, stmt.out, stmt.kind)
            if code == _WAIT:
                args = tuple(evaluate(e, node_vars) for e in stmt.args)
                return ("wait", stmt.event, args)
            if code == _SIGNAL:
                args = tuple(evaluate(e, node_vars) for e in stmt.args)
                return ("signal", stmt.event, args,
                        evaluate(stmt.count, node_vars))
            if code == _INJECT:
                child_env = {
                    var: evaluate(e, node_vars)
                    for var, e in stmt.bindings
                }
                return ("inject", stmt.program, child_env)

            raise ConfigurationError(f"unknown statement {stmt!r}")
        return None

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


def _bad_snapshot(arrived: str) -> ConfigurationError:
    return ConfigurationError(
        "continuation snapshot must be a (program, env, stack) tuple, "
        f"got {arrived}")


# Statement opcodes: exact class -> code, with an isinstance fallback so
# IR subclasses dispatch like their base (resolved once, then cached).
(_ASSIGN, _FOR, _IF, _NODESET, _HOP,
 _COMPUTE, _WAIT, _SIGNAL, _INJECT) = range(9)

_STMT_CODES: dict = {
    ir.Assign: _ASSIGN,
    ir.For: _FOR,
    ir.If: _IF,
    ir.NodeSet: _NODESET,
    ir.HopStmt: _HOP,
    ir.ComputeStmt: _COMPUTE,
    ir.WaitStmt: _WAIT,
    ir.SignalStmt: _SIGNAL,
    ir.InjectStmt: _INJECT,
}

_STMT_BASES = tuple(_STMT_CODES.items())


def _resolve_stmt(cls):
    for base, code in _STMT_BASES:
        if issubclass(cls, base):
            _STMT_CODES[cls] = code
            return code
    return None


def _body_cached(prog: ir.Program, path: tuple) -> tuple:
    """``ir.body_at`` memoized on the Program object itself, so the
    cache's lifetime (and invalidation) is simply the program's."""
    cache = prog.__dict__.get("_body_cache")
    if cache is None:
        cache = {}
        object.__setattr__(prog, "_body_cache", cache)
    body = cache.get(path)
    if body is None:
        body = cache[path] = ir.body_at(prog, path)
    return body


def live_table(prog: ir.Program) -> dict:
    """The program's live-variable table
    (:func:`repro.analysis.liveness.live_in`), solved on first use and
    kept on the Program object like the body cache above — so a process
    forked after the first call inherits it instead of solving again."""
    table = prog.__dict__.get("_live_cache")
    if table is None:
        # repro.analysis imports this package, so not at module level
        from ..analysis.liveness import live_in
        table = live_in(prog)
        object.__setattr__(prog, "_live_cache", table)
    return table


class IRMessenger(Messenger):
    """Runs an IR program as a messenger on the sim/thread fabrics.

    ``_last_action`` always holds the IR action currently being
    performed as plain data — what a coordinated snapshot records as
    the cut's *pending effect* (the :class:`repro.fabric.effects`
    object itself may close over a kernel and is not restorable).
    ``_pending`` is set by :meth:`resume`: the one action a restored
    continuation must re-perform before advancing, because its
    snapshot was taken with the interpreter already past it.
    """

    _pending = None
    _last_action = None

    def __init__(self, program: str, env: dict | None = None):
        self.name = program
        self.interp = Interp(program, env)

    @classmethod
    def resume(cls, snapshot, pending=None) -> "IRMessenger":
        """Rebuild a messenger from a continuation snapshot.

        ``snapshot`` is what :meth:`Interp.agent_snapshot` produced;
        ``pending`` is an IR action tuple to re-perform first, as
        recorded in a :class:`repro.resilience.checkpoint.ConsistentCut`.
        """
        messenger = cls.__new__(cls)
        messenger.interp = Interp.from_snapshot(snapshot)
        messenger.name = messenger.interp.program
        messenger._pending = pending
        return messenger

    def main(self):
        interp = self.interp
        action = self._pending
        if action is None:
            action = interp.next_action(self.vars)
        else:
            self._pending = None
        while action is not None:
            self._last_action = action
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


def run_ir_on_fabric(fabric, program: str, env: dict | None = None,
                     at=(0,)):
    """Inject an IR program at a place and run the fabric to completion."""
    fabric.inject(at, IRMessenger(program, env))
    return fabric.run()
