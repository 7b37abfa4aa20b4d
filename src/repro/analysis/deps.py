"""Loop dependence analysis over the navigational IR.

"The basic idea behind the transformations is to spread out
computations ... as soon as possible *without violating any dependency
conditions*" (Section 2). This module decides those conditions
statically, in the style of classical array dependence analysis
(Feautrier; Adutskevich et al.) adapted to the paradigm's
dictionary-shaped node variables: accesses are compared by their
*symbolic key expressions*, parsed into affine forms
(:mod:`repro.analysis.affine`) and run through GCD/Banerjee-style
tests (:mod:`repro.analysis.distance`), and classified as flow
(write→read), anti (read→write) or output (write→write) dependences —
each carrying a :class:`~repro.analysis.distance.DependenceVector`
(distance/direction over the analyzed loop), not just a carried bit.

For the transformations' legality gates the carried dependences are
what matters:

* a **write whose key can repeat across iterations** (coefficient zero
  on the loop variable, a non-affine key like ``acc[i % 2]``, or two
  writes whose keys overlap at nonzero distance) means distinct
  iterations hit the same entry — a write collision under any
  reordering or distribution;
* a **read aliasing another iteration's write** — the ``D[r-1, c]``
  wavefront case solves to distance ``+1``: illegal to distribute
  blindly, but exactly the *forward* carried dependence that
  pipelining (:mod:`repro.transform.pipeline`) legalizes with a
  wait/signal handshake;
* an **agent variable read at or before its first in-iteration
  definition** carries a value between iterations (the loop cannot be
  split into concurrent messengers). Definitions that dominate every
  use in pre-order — the DSC accumulator pattern, where ``t`` is
  re-zeroed before accumulating — are legal and not flagged.

The former structural rules in :mod:`repro.transform.deps` delegate
here, so the linter and the transformations share one notion of
legality; ``repro lint --loop VAR --json`` exposes the raw vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..navp import ir
from . import visitor
from .diagnostics import DiagnosticReport, error
from .distance import DependenceVector, dependence_between
from .summary import NodeAccess, summarize_body

__all__ = [
    "FLOW", "ANTI", "OUTPUT",
    "Dependence", "LoopAnalysis", "analyze_loop",
    "loop_diagnostics", "carried_write_diagnostics",
]

FLOW = "flow"      # write -> read
ANTI = "anti"      # read -> write
OUTPUT = "output"  # write -> write


@dataclass(frozen=True)
class Dependence:
    """One (potential) dependence between two accesses.

    ``src``/``dst`` are statement paths (body_at convention) rooted at
    the analyzed program; ``carried`` means the endpoints may fall in
    *different* iterations of the analyzed loop; ``vector`` is the
    distance/direction record of the affine test (None only for agent
    dependences, which have no key to solve).
    """

    kind: str        # flow | anti | output
    space: str       # "node" | "agent"
    var: str
    src: tuple
    dst: tuple
    carried: bool
    detail: str = ""
    vector: DependenceVector | None = None


@dataclass(frozen=True)
class LoopAnalysis:
    """The def-use structure of one loop."""

    program: ir.Program
    loop_var: str
    loop_path: tuple
    summaries: tuple          # StmtSummary of the loop body, pre-order
    dependences: tuple        # Dependence records

    @property
    def carried(self) -> tuple:
        return tuple(d for d in self.dependences if d.carried)


def _key_repr(key: tuple) -> str:
    return f"[{', '.join(repr(e) for e in key)}]"


def _node_dependences(loop_var: str, summaries, bound: int | None,
                      free_vars: frozenset) -> list:
    reads: list[NodeAccess] = []
    writes: list[NodeAccess] = []
    pos_of: dict = {}
    for s in summaries:
        for acc in s.node_reads:
            reads.append(acc)
            pos_of[acc] = s.pos
        for acc in s.node_writes:
            writes.append(acc)
            pos_of[acc] = s.pos

    def test(src: NodeAccess, dst: NodeAccess):
        return dependence_between(src.raw_key, dst.raw_key, loop_var,
                                  bound=bound, free_vars=free_vars)

    deps: list[Dependence] = []

    # -- write self-collisions: can iteration i and i' hit one entry? --
    for w in writes:
        vec = test(w, w)
        if vec is not None and vec.carried:
            if not any(visitor.uses_var(e, loop_var) for e in w.raw_key):
                detail = "write not indexed by loop variable"
            else:
                detail = (f"write key may repeat across iterations "
                          f"({vec.reason})")
            deps.append(Dependence(
                OUTPUT, "node", w.var, w.path, w.path, carried=True,
                detail=detail, vector=vec))

    # -- write/write pairs: overlapping keys collide across iterations --
    for i, w1 in enumerate(writes):
        for w2 in writes[i + 1:]:
            if w1.var != w2.var:
                continue
            vec = test(w1, w2)
            if vec is not None and vec.carried:
                deps.append(Dependence(
                    OUTPUT, "node", w1.var, w1.path, w2.path,
                    carried=True,
                    detail=f"writes overlap, {vec.describe()}",
                    vector=vec))

    # -- write/read pairs: flow and anti dependences ---------------------
    for r in reads:
        for w in writes:
            if w.var != r.var:
                continue
            vec = test(w, r)
            if vec is None:
                continue  # provably disjoint
            if not vec.carried:
                kind = FLOW if pos_of[w] <= pos_of[r] else ANTI
                deps.append(Dependence(
                    kind, "node", r.var, w.path, r.path, carried=False,
                    detail="iteration-local", vector=vec))
                continue
            if vec.distance is not None:
                kind = FLOW if vec.distance > 0 else ANTI
            else:
                kind = FLOW if pos_of[w] <= pos_of[r] else ANTI
            deps.append(Dependence(
                kind, "node", r.var, w.path, r.path, carried=True,
                detail=f"read aliases another iteration's write, "
                       f"{vec.describe()}",
                vector=vec))
    return deps


def _agent_dependences(summaries) -> list:
    first_def: dict = {}
    first_use: dict = {}
    def_path: dict = {}
    use_path: dict = {}
    for s in summaries:
        for v in s.agent_defs:
            if v not in first_def:
                first_def[v] = s.pos
                def_path[v] = s.path
        for v in s.agent_uses:
            if v not in first_use:
                first_use[v] = s.pos
                use_path[v] = s.path

    deps: list[Dependence] = []
    for v, dpos in first_def.items():
        upos = first_use.get(v)
        if upos is None:
            continue
        # A use at the same position is a read-modify-write (``t =
        # f(t, ...)``): the read sees the previous iteration's value.
        if upos <= dpos:
            deps.append(Dependence(
                FLOW, "agent", v, def_path[v], use_path[v], carried=True,
                detail="used before first in-iteration definition"))
    return deps


def analyze_loop(program: ir.Program, loop_var: str) -> LoopAnalysis:
    """Def-use analysis of the unique loop over ``loop_var``.

    Raises :class:`~repro.errors.AnalysisError` when the program has no
    (or more than one) loop over ``loop_var``.
    """
    path, loop = visitor.find_unique_loop(program, loop_var)
    summaries = summarize_body(loop.body, base_path=path)
    bound = loop.count.value \
        if isinstance(loop.count, ir.Const) \
        and isinstance(loop.count.value, int) \
        and not isinstance(loop.count.value, bool) else None
    # symbols assigned inside the body (inner loop variables, local
    # agent assignments) take independent values at each access
    free_vars = frozenset().union(
        *(s.agent_defs for s in summaries)) - {loop_var} \
        if summaries else frozenset()
    deps = _node_dependences(loop_var, summaries, bound, free_vars) \
        + _agent_dependences(summaries)
    return LoopAnalysis(program=program, loop_var=loop_var,
                        loop_path=path, summaries=summaries,
                        dependences=tuple(deps))


def loop_diagnostics(program: ir.Program,
                     loop_var: str) -> DiagnosticReport:
    """Error diagnostics for every carried dependence of the loop.

    Empty report == iterations are provably independent (over the
    paradigm's dictionary node variables; sufficient, not necessary).
    """
    analysis = analyze_loop(program, loop_var)
    report = DiagnosticReport()
    seen: set = set()

    def emit(diag) -> None:
        key = (diag.category, diag.path, diag.message)
        if key not in seen:
            seen.add(key)
            report.append(diag)

    for dep in analysis.carried:
        if dep.space == "node" and dep.kind == OUTPUT:
            if dep.src == dep.dst:
                stmt = visitor.stmt_at(program, dep.src)
                emit(error(
                    "write-collision", program.name, dep.src,
                    f"{program.name}: node write "
                    f"{stmt.name}{list(stmt.idx)!r} can hit one entry "
                    f"from different iterations of {loop_var!r} "
                    f"({dep.detail}); iterations would collide"))
            else:
                emit(error(
                    "write-collision", program.name, dep.dst,
                    f"{program.name}: the loop writes {dep.var!r} at "
                    f"overlapping keys ({dep.vector.describe()}); "
                    f"iterations of {loop_var!r} would collide"))
        elif dep.space == "node":
            read = next(acc for s in analysis.summaries
                        for acc in s.node_reads
                        if acc.path == dep.dst and acc.var == dep.var)
            emit(error(
                "carried-dependence", program.name, dep.dst,
                f"{program.name}: {read.var}{list(read.raw_key)!r} "
                f"reads an entry another iteration of {loop_var!r} "
                f"writes ({dep.kind} dependence, "
                f"{dep.vector.describe()}); a loop-carried dependence "
                f"exists"))
        else:
            emit(error(
                "carried-dependence", program.name, dep.dst,
                f"{program.name}: agent variable {dep.var!r} is read "
                f"at or before its first definition in an iteration of "
                f"{loop_var!r}; a loop-carried dependence may exist"))
    return report


def carried_write_diagnostics(program: ir.Program, loop_var: str,
                              carried_names) -> DiagnosticReport:
    """The DSC legality condition: carried node variables stay fresh.

    DSC inserts hops into a *single* thread, so program order — and
    with it every dependence — is preserved; the only thing that can
    go stale is a value copied into an agent variable at the pickup
    point and then used while the node copy changes underneath it.
    """
    path, loop = visitor.find_unique_loop(program, loop_var)
    names = set(carried_names)
    report = DiagnosticReport()
    for spath, stmt in visitor.walk_stmts(loop.body, path):
        if isinstance(stmt, ir.NodeSet) and stmt.name in names:
            report.append(error(
                "stale-carry", program.name, spath,
                f"{program.name}: {stmt.name!r} is carried in an agent "
                f"variable but written inside the {loop_var!r} loop; "
                f"the carried copy would go stale"))
    return report
