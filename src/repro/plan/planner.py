"""The planner proper: enumerate → gate → score → validate → emit.

:func:`make_plan` drives one target through the staged decision
procedure of Section 3, recording the full candidate trail at each
stage (see :mod:`repro.plan.candidates`). Every accepted step is
*applied* — the transformations themselves re-run their legality gates
and refuse illegal specs — so the emitted plan is a set of registered,
runnable IR programs, not a description. Unless disabled, the winner
is then validated the only way that settles it: the static race
detector must pass over the final suite's injection closure, the
protocol model checker must prove it deadlock-free with bounded
mailboxes (:mod:`repro.analysis.protocol_mc`), and a SimFabric run of
the emitted IR must reproduce the sequential program's output bit for
bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..errors import TransformError
from ..machine.spec import MachineSpec
from ..navp import ir
from ..transform.deps import check_race_free
from .candidates import (
    Candidate,
    dsc_candidates,
    phase_candidates,
    pipeline_candidates,
)
from .cost import CommProfile, score_stage, static_profile
from .targets import TARGETS, PlanTarget

__all__ = ["Plan", "PlanStage", "make_plan"]

V = ir.Var
C = ir.Const


@dataclass(frozen=True)
class PlanStage:
    """One accepted step of the plan, with its decision trail."""

    name: str                 # sequential | dsc | pipeline | ...
    programs: tuple           # registered program names this stage emits
    chosen: str               # summary of the accepted candidate
    candidates: tuple = ()    # full Candidate trail, accepted + rejected
    predicted_s: float = 0.0  # analytic-model span on the preset
    profile: CommProfile = field(default_factory=CommProfile)
    comm_bytes: int = 0


@dataclass(frozen=True)
class Plan:
    """The planner's output for one target on one machine preset."""

    target: str
    kind: str
    machine: str
    geometry: int
    n: int
    ab: int
    stages: tuple
    validation: dict

    @property
    def final_stage(self) -> PlanStage:
        return self.stages[-1]

    @property
    def speedup(self) -> float:
        return self.stages[0].predicted_s / self.final_stage.predicted_s

    @property
    def sequence(self) -> tuple:
        return tuple(s.name for s in self.stages[1:])


def _pick(candidates: list, transform: str) -> Candidate:
    viable = [c for c in candidates if c.viable]
    if not viable:
        raise TransformError(
            f"planner: no viable {transform} candidate; "
            + "; ".join(f"{c.subject}: {c.detail}" for c in candidates))
    return viable[0]


def _mc_gate(winner: ir.Program) -> dict:
    """Model-check the winning suite; refuse a plan that fails it.

    A plan's emitted programs are about to be handed to a fabric; the
    protocol model checker (:mod:`repro.analysis.protocol_mc`) must
    prove the winner deadlock-free with bounded mailboxes *before*
    that happens. The explored-state count is recorded in the
    validation dict (and pinned by the plan goldens) as a regression
    guard on the abstraction.
    """
    from ..analysis.lint import root_entry_coord
    from ..analysis.protocol_mc import model_check

    res = model_check(winner.name, entry=root_entry_coord(winner))
    if res.status != "VERIFIED":
        detail = res.summary()
        if res.counterexample is not None:
            detail += "\n" + res.counterexample.describe()
        raise TransformError(
            f"planner: winning suite {winner.name!r} failed protocol "
            f"model checking — {detail}")
    return {
        "protocol_mc": res.status,
        "protocol_mc_states": res.stats.get("total_states"),
        "protocol_mc_transitions": res.stats.get("total_transitions"),
        "protocol_mc_max_mailbox_depth": res.max_mailbox_depth,
        "protocol_mc_window": res.window,
    }


def _stage(target: PlanTarget, name: str, programs, chosen: str,
           candidates, machine: MachineSpec, p: int,
           carried_bytes: int) -> PlanStage:
    profile = static_profile(programs[0])
    return PlanStage(
        name=name,
        programs=tuple(prog.name for prog in programs),
        chosen=chosen,
        candidates=tuple(candidates),
        predicted_s=score_stage(target.kind, name, target.n, target.ab,
                                p, machine),
        profile=profile,
        comm_bytes=profile.volume_bytes(machine, carried_bytes),
    )


def _pipeline_stage(target: PlanTarget, program: ir.Program,
                    main_name: str, carrier_name: str,
                    machine: MachineSpec, p: int,
                    carried_bytes: int) -> tuple:
    """Split the outer loop into carriers injected at node(0).

    The stage is named after the winning candidate (``pipeline`` or
    ``keyed-pipeline``); either way :func:`pipelining` derives it,
    adding the handshake only where a dependence needs one.
    """
    from ..transform.pipeline import PipelineSpec, pipelining

    pcands = pipeline_candidates(program)
    pbest = _pick(pcands, "pipeline")
    suite = pipelining(program, PipelineSpec(
        outer=pbest.subject,
        main_name=main_name,
        carrier_name=carrier_name,
        inject_at=(C(0),),
    ))
    return suite, _stage(target, pbest.transform,
                         [suite.main, suite.carrier], pbest.detail,
                         pcands, machine, p, carried_bytes)


# -- matmul -----------------------------------------------------------------

def _plan_matmul(target: PlanTarget, machine: MachineSpec, nb: int,
                 validate: bool) -> Plan:
    from ..transform.dsc import dsc
    from ..transform.examples import sequential_program
    from ..transform.phase_shift import PhaseShiftSpec, phase_shift

    if target.n % nb != 0:
        raise TransformError(
            f"planner: geometry {nb} does not divide n={target.n}")
    # the paper's fine granularity N == P: block order follows geometry
    target = dataclasses.replace(target, ab=target.n // nb)
    # one A-row strip rides every hop of the tour
    carried = target.ab * target.n * machine.elem_size

    seq = sequential_program(nb, name=f"plan-mm-seq-{nb}")
    stages = [_stage(
        target, "sequential", [seq],
        "the Figure 2 sequential block matmul (the starting point)",
        [], machine, nb, carried)]

    # -- DSC: which loop does the distribution follow? --------------------
    cands = dsc_candidates(seq)
    best = _pick(cands, "dsc")
    dsc_prog = dsc(seq, best.spec)
    stages.append(_stage(target, "dsc", [dsc_prog], best.detail, cands,
                         machine, nb, carried))

    suite, stage = _pipeline_stage(
        target, dsc_prog, f"{dsc_prog.name}-pipe",
        f"plan-mm-rowcarrier-{nb}", machine, nb, carried)
    stages.append(stage)
    outer = suite.carrier.params[0]

    # -- phase shifting: which staggering schedule? -----------------------
    tour = best.spec.loop
    phcands = phase_candidates(nb, outer, tour)
    phbest = _pick(phcands, "phase-shift")
    phased = phase_shift(suite, PhaseShiftSpec(
        start_place=(V(outer),),
        schedule=phbest.spec,
        tour=tour,
    ))
    stages.append(_stage(
        target, "phase-shift", [phased.main, phased.carrier],
        phbest.detail, phcands, machine, nb, carried))

    validation = {"ran": False}
    if validate:
        validation = _validate_matmul(seq, phased, nb)
    return Plan(target=target.name, kind=target.kind,
                machine=machine.name, geometry=nb,
                n=target.n, ab=target.ab,
                stages=tuple(stages), validation=validation)


def _validate_matmul(seq: ir.Program, phased, nb: int,
                     ab: int = 8, fabric: str = "sim") -> dict:
    from ..transform.examples import layout_phase, layout_sequential
    from ..transform.verify import run_stage
    from ..util.validation import random_matrix

    n = nb * ab
    a = random_matrix(n, 7)
    b = random_matrix(n, 8)
    check_race_free(phased.main)
    c_seq, _ = run_stage(seq, layout_sequential(a, b, nb), 1, nb, ab,
                         fabric=fabric)
    c_phase, _ = run_stage(phased, layout_phase(a, b, nb), nb, nb, ab,
                           fabric=fabric)
    out = {
        "ran": True,
        "fabric": fabric,
        "race_free": True,
        "bit_identical": bool(np.array_equal(c_seq, c_phase)),
        "max_abs_err_vs_numpy": float(np.max(np.abs(c_phase - a @ b))),
    }
    out.update(_mc_gate(phased.main))
    return out


# -- wavefront --------------------------------------------------------------

def _plan_wavefront(target: PlanTarget, machine: MachineSpec, p: int,
                    validate: bool) -> Plan:
    from ..wavefront.irprog import build_wavefront_seq_ir

    nblocks = target.n // target.ab
    b = target.ab
    if target.n % p != 0:
        raise TransformError(
            f"planner: geometry {p} does not divide n={target.n}")
    # a hop hands the right edge of a block east: b elements
    carried = b * machine.elem_size

    seq = build_wavefront_seq_ir(p, nblocks, b)
    stages = [_stage(
        target, "sequential", [seq],
        "one messenger sweeps every row of blocks west to east",
        [], machine, p, carried)]

    suite, stage = _pipeline_stage(
        target, seq, f"{seq.name}-kpipe",
        f"plan-wf-carrier-{p}x{nblocks}b{b}", machine, p, carried)
    stages.append(stage)

    validation = {"ran": False}
    if validate:
        validation = _validate_wavefront(seq, suite, p, nblocks, b)
    return Plan(target=target.name, kind=target.kind,
                machine=machine.name, geometry=p,
                n=target.n, ab=target.ab,
                stages=tuple(stages), validation=validation)


def _validate_wavefront(seq: ir.Program, suite, p: int, nblocks: int,
                        b: int, fabric: str = "sim") -> dict:
    from ..wavefront.navp import run_wavefront_program
    from ..wavefront.problem import WavefrontCase

    check_race_free(suite.main)
    case = WavefrontCase(n=nblocks * b, b=b, seed=7)
    r_seq = run_wavefront_program(seq.name, case, p, trace=False,
                                  fabric=fabric)
    r_kp = run_wavefront_program(suite.main.name, case, p, trace=False,
                                 fabric=fabric)
    out = {
        "ran": True,
        "fabric": fabric,
        "race_free": True,
        "bit_identical": bool(np.array_equal(r_seq.d, r_kp.d)),
        "pipeline_speedup_sim": float(r_seq.time / r_kp.time),
    }
    out.update(_mc_gate(suite.main))
    return out


def make_plan(target_name: str, machine: MachineSpec,
              geometry: int | None = None,
              validate: bool = True) -> Plan:
    """Plan a target on a machine preset; see the module docstring."""
    try:
        target = TARGETS[target_name]
    except KeyError:
        raise TransformError(
            f"unknown plan target {target_name!r}; choose from "
            f"{', '.join(sorted(TARGETS))}") from None
    g = geometry if geometry is not None else target.geometry
    if target.kind == "matmul-1d":
        return _plan_matmul(target, machine, g, validate)
    if target.kind == "wavefront":
        return _plan_wavefront(target, machine, g, validate)
    raise TransformError(
        f"no planner for target kind {target.kind!r}")  # pragma: no cover
