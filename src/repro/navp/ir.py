"""The navigational IR: picklable programs with hops, events, loops.

This small intermediate representation exists for two reasons, both
rooted in how MESSENGERS itself works:

1. **Process migration.** CPython cannot pickle a live generator frame,
   but MESSENGERS never ships code anyway — it compiles navigational
   programs into resumption points and moves only the computation
   *state*. An IR program is pure data; its interpreter's continuation
   (program name + control stack + agent environment) pickles in a few
   hundred bytes plus the agent variables, which is exactly what
   :class:`~repro.fabric.process.ProcessFabric` ships between worker
   processes.

2. **Mechanical transformation.** The paper's DSC / pipelining /
   phase-shifting transformations are rewrites of program *structure*;
   :mod:`repro.transform` implements them as functions from IR to IR,
   turning Figure 2 into Figures 5, 7 and 9 mechanically.

Expressions: :class:`Const`, :class:`Var` (agent variable),
:class:`Bin` (integer arithmetic: ``+ - * % //`` and comparisons),
:class:`NodeGet` (read a node variable entry at the current place), and
:class:`Index` (subscript an agent value). Node variables holding
matrices are dictionaries keyed by int or tuple-of-int block indices,
so distribution is just "which keys live where" and most statements
survive re-distribution untouched — the property the DSC transformation
relies on.

Statements: :class:`For` (0..count-1), :class:`If`, :class:`Assign`
(free control move), :class:`ComputeStmt` (charged kernel call),
:class:`NodeSet`, :class:`HopStmt`, :class:`InjectStmt`,
:class:`WaitStmt`, :class:`SignalStmt`.

Programs are registered by name in :data:`REGISTRY`; every process that
imports the same modules sees the same registry — code is not moved.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError

__all__ = [
    "Const", "Var", "Bin", "NodeGet", "Index",
    "For", "If", "Assign", "ComputeStmt", "NodeSet",
    "HopStmt", "InjectStmt", "WaitStmt", "SignalStmt",
    "Program", "REGISTRY", "register_program", "get_program",
    "node_at", "body_at",
]


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Any

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __repr__(self) -> str:
        return self.name


_BIN_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
    "//": operator.floordiv,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
}


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BIN_OPS:
            raise ConfigurationError(f"unsupported operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class NodeGet(Expr):
    """Read entry ``idx`` of node variable ``name`` at the current PE."""

    name: str
    idx: tuple = ()

    def __repr__(self) -> str:
        return f"{self.name}{list(self.idx)!r}"


@dataclass(frozen=True)
class Index(Expr):
    """Subscript an agent value (``mA[k]``)."""

    base: Expr
    idx: tuple = ()

    def __repr__(self) -> str:
        return f"{self.base!r}{list(self.idx)!r}"


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------

class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class For(Stmt):
    var: str
    count: Expr
    body: tuple

    def __repr__(self) -> str:
        return f"For({self.var} in {self.count!r}: {len(self.body)} stmts)"


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple
    orelse: tuple = ()


@dataclass(frozen=True)
class Assign(Stmt):
    """Free control-level move: agent var = expression."""

    var: str
    expr: Expr


@dataclass(frozen=True)
class ComputeStmt(Stmt):
    """Charged kernel call: ``out = kernel(*args)``."""

    kernel: str
    args: tuple
    out: str  # agent variable receiving the result
    kind: str = "navp"


@dataclass(frozen=True)
class NodeSet(Stmt):
    """Write entry ``idx`` of node variable ``name`` at the current PE."""

    name: str
    idx: tuple
    expr: Expr


@dataclass(frozen=True)
class HopStmt(Stmt):
    place: tuple  # tuple of Exprs forming the destination coordinate


@dataclass(frozen=True)
class InjectStmt(Stmt):
    program: str          # registered program name
    bindings: tuple = ()  # ((agent_var, Expr), ...) initial environment


@dataclass(frozen=True)
class WaitStmt(Stmt):
    event: str
    args: tuple = ()


@dataclass(frozen=True)
class SignalStmt(Stmt):
    event: str
    args: tuple = ()
    count: Expr = Const(1)


# --------------------------------------------------------------------------
# programs and the registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """A named program. The interpreter keeps per-process caches on
    the instance (its compiled code and liveness table); a pickle
    carries the three fields only, so a program pickles to the same
    bytes before and after it runs."""

    name: str
    body: tuple
    params: tuple = ()  # agent variables expected at injection

    def __repr__(self) -> str:
        return f"Program({self.name}, params={list(self.params)})"

    def __reduce__(self):
        return (self.__class__, (self.name, self.body, self.params))


REGISTRY: dict = {}


def register_program(program: Program, replace: bool = False) -> Program:
    """Install a program under its name (same in every process)."""
    if not replace and program.name in REGISTRY:
        existing = REGISTRY[program.name]
        if existing != program:
            raise ConfigurationError(
                f"program {program.name!r} already registered differently"
            )
        return existing
    REGISTRY[program.name] = program
    return program


def get_program(name: str) -> Program:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown program {name!r}") from None


# --------------------------------------------------------------------------
# structural navigation (paths are how continuations reference code)
# --------------------------------------------------------------------------

def body_at(program: Program, path: tuple) -> tuple:
    """The statement list addressed by ``path``.

    A path is a tuple of statement indices: each index selects a
    compound statement (For, If-then) within the current body and
    descends into it. ``If`` descent uses ``(index, branch)`` pairs
    where branch is ``"then"`` or ``"else"``.
    """
    body = program.body
    for step in path:
        if isinstance(step, tuple):
            idx, branch = step
        else:
            idx, branch = step, None
        if not 0 <= idx < len(body):
            raise ConfigurationError(
                f"path step {step} out of range in {program.name}"
            )
        stmt = body[idx]
        if branch is not None:
            if not isinstance(stmt, If):
                raise ConfigurationError(f"path step {step} expects If")
            body = stmt.then if branch == "then" else stmt.orelse
        else:
            if not isinstance(stmt, For):
                raise ConfigurationError(f"path step {step} expects For")
            body = stmt.body
    return body


def node_at(program: Program, path: tuple, index: int) -> Stmt:
    return body_at(program, path)[index]
