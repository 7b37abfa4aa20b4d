"""Candidate transformation steps and why each lives or dies.

The planner does not hard-code the paper's choices; it proposes every
syntactically possible step and lets the static analyses veto. Each
proposal comes back as a :class:`Candidate` carrying its decision
trail, so the report can show not just the chosen plan but the
rejected alternatives and their reasons — the part of Section 3 the
paper narrates in prose ("the j-loop is chosen because ...").

* :func:`dsc_candidates` proposes distributing each loop of the
  program. A loop survives when every node write inside it is keyed by
  its variable (the written data has a home under the distribution)
  and every read *not* keyed by it can be legally carried: the read's
  key must be invariant during the tour, and the carried node variable
  must be read-only inside the loop
  (:func:`~repro.transform.deps.check_carries_read_only`).
* :func:`pipeline_candidates` proposes splitting the single outer loop
  into concurrent carriers. Plain pipelining needs the affine engine
  to prove the iterations independent; when it instead solves a
  carried flow dependence with an exact positive distance, the keyed
  (wait/signal) variant is proposed — the wavefront's R6 schedule.
  Both are applied by :func:`repro.transform.pipeline.pipelining`,
  which derives the handshake from the same dependences.
* :func:`phase_candidates` proposes the two staggering schedules for
  phase shifting and scores them by their communication-phase count
  (:func:`~repro.matmul.staggering.phases_for_scheme`): reverse
  staggering routes any order in 2 phases, forward needs 3 whenever a
  shift cycle is odd — the paper's reason for choosing reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import visitor
from ..analysis.summary import summarize
from ..errors import TransformError
from ..matmul.staggering import phases_for_scheme
from ..navp import ir
from ..transform.deps import (
    check_carries_read_only,
    check_forward_carried,
    check_loop_independent,
)
from ..transform.dsc import DSCSpec

__all__ = ["Candidate", "dsc_candidates", "pipeline_candidates",
           "phase_candidates"]

V = ir.Var
C = ir.Const


@dataclass(frozen=True)
class Candidate:
    """One proposed transformation step with its decision trail."""

    transform: str            # dsc | pipeline | keyed-pipeline | phase-shift
    subject: str              # loop variable or schedule name
    viable: bool
    detail: str               # why it lives / why it died
    spec: object = None       # the transform spec when viable
    score: float | None = None  # lower is better, within one stage
    extras: dict = field(default_factory=dict)


def _key_repr(var: str, key: tuple) -> str:
    return f"{var}[{', '.join(repr(e) for e in key)}]"


def dsc_candidates(program: ir.Program) -> list:
    """Propose DSC along every loop of ``program``."""
    program_summaries = summarize(program)
    all_writes = [acc for s in program_summaries
                  for acc in s.node_writes]
    out: list = []
    for path, loop in visitor.walk_stmts(program.body):
        if not isinstance(loop, ir.For):
            continue
        v = loop.var
        # the loop body's statements: the program's, below the loop
        summaries = [s for s in program_summaries
                     if len(s.path) > len(path)
                     and s.path[:len(path)] == path]
        bound_inside = {v}
        for s in summaries:
            bound_inside |= s.agent_defs

        reasons: list = []
        # a distribution loop must cover the program's writes: output
        # written outside the tour ends up wherever the thread happens
        # to stand, i.e. not distributed at all
        for w in all_writes:
            if w.path[:len(path)] != path:
                reasons.append(
                    f"write {_key_repr(w.var, w.raw_key)} happens "
                    f"outside the {v!r} loop; a {v!r}-distribution "
                    f"would leave the product unplaced")
        writes = [acc for s in summaries for acc in s.node_writes]
        reads = [acc for s in summaries for acc in s.node_reads]
        for w in writes:
            if not any(visitor.uses_var(e, v) for e in w.raw_key):
                reasons.append(
                    f"write {_key_repr(w.var, w.raw_key)} is not keyed "
                    f"by {v!r}: the written data has no home under a "
                    f"{v!r}-distribution")
        carries: dict = {}
        for r in reads:
            if any(visitor.uses_var(e, v) for e in r.raw_key):
                continue  # stationary under the distribution
            key_vars = set()
            for e in r.raw_key:
                key_vars |= visitor.var_names(e)
            inside = key_vars & bound_inside
            if inside:
                reasons.append(
                    f"read {_key_repr(r.var, r.raw_key)} is not keyed "
                    f"by {v!r} and its key varies inside the tour "
                    f"(depends on {sorted(inside)!r}); it cannot be "
                    f"picked up once and carried")
                continue
            carries.setdefault(f"m{r.var}",
                               ir.NodeGet(r.var, tuple(r.raw_key)))
        if not reasons:
            spec = DSCSpec(
                loop=v,
                place=(V(v),),
                carries=carries,
                pickup_cond=(ir.Bin("==", V(v), C(0)) if carries
                             else C(True)),
            )
            try:
                check_carries_read_only(
                    program, v, [src.name for src in carries.values()])
            except TransformError as exc:
                reasons.append(str(exc))
            else:
                carried = ", ".join(
                    f"{agent} = {_key_repr(src.name, src.idx)}"
                    for agent, src in carries.items()) or "nothing"
                out.append(Candidate(
                    "dsc", v, True,
                    f"distribute along {v!r} (hop to node({v})); "
                    f"carry {carried}",
                    spec=spec))
                continue
        out.append(Candidate("dsc", v, False, "; ".join(reasons)))
    return out


def pipeline_candidates(program: ir.Program) -> list:
    """Propose pipelining the program's single outer loop."""
    if len(program.body) != 1 or not isinstance(program.body[0], ir.For):
        return [Candidate(
            "pipeline", "-", False,
            "program is not a single outer loop; nothing to pipeline")]
    v = program.body[0].var
    try:
        check_loop_independent(program, v)
    except TransformError as plain_exc:
        try:
            forward = check_forward_carried(program, v).carried
        except TransformError as keyed_exc:
            return [
                Candidate("pipeline", v, False, str(plain_exc)),
                Candidate("keyed-pipeline", v, False, str(keyed_exc)),
            ]
        dists = ", ".join(
            f"{dep.var!r} at {dep.vector.describe()}" for dep in forward)
        return [
            Candidate("pipeline", v, False, str(plain_exc)),
            Candidate(
                "keyed-pipeline", v, True,
                f"every carried dependence is a forward flow "
                f"dependence ({dists}); a keyed wait/signal handshake "
                f"(the R6 shape) orders reader behind writer",
                extras={"forward": forward}),
        ]
    return [Candidate(
        "pipeline", v, True,
        f"iterations of {v!r} are provably independent; one carrier "
        f"per iteration, injected in order")]


def phase_candidates(nb: int, outer: str, tour: str) -> list:
    """Propose both staggering schedules for the phase shift."""
    out: list = []
    for scheme in ("reverse", "forward"):
        if scheme == "reverse":
            # node((nb-1 - outer + tour) % nb)
            inner = ir.Bin("+", ir.Bin("-", C(nb - 1), V(outer)), V(tour))
        else:
            # node((outer + tour) % nb)
            inner = ir.Bin("+", V(outer), V(tour))
        schedule = ir.Bin("%", inner, C(nb))
        phases = phases_for_scheme(nb, scheme)
        out.append(Candidate(
            "phase-shift", scheme, True,
            f"{scheme} staggering of the initial data redistribution "
            f"routes every row in {phases} communication phase(s)",
            spec=schedule, score=float(phases),
            extras={"phases": phases}))
    out.sort(key=lambda c: c.score)
    return out
