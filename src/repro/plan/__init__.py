"""The automatic transformation planner (``repro plan``).

The paper derives its parallel programs by hand: a programmer stares
at the sequential code, picks a distribution loop, checks the
dependences, and applies DSC, then pipelining, then phase shifting
(Sections 3.1–3.4). Everything that decision procedure consults now
exists in this repo as a static analysis — affine dependence vectors,
transformation legality gates, a communication profile and an analytic
performance model. This package closes the loop: given a *target*
(:mod:`repro.plan.targets`) and a machine preset, the planner
(:mod:`repro.plan.planner`) enumerates candidate transformation steps
(:mod:`repro.plan.candidates`), keeps the ones the gates legalize,
scores them (:mod:`repro.plan.cost`), validates the winning chain by
running it (race detector + SimFabric golden run, bit-identical), and
emits the plan as navigational IR plus a report
(:mod:`repro.plan.report`).

On the paper's inputs it rediscovers the paper's answers: the matmul
plan is DSC over ``mj`` carrying the A row, pipelining over ``mi``,
reverse-staggered phase shifting; the wavefront plan rejects plain
pipelining (carried flow dependence, distance +1 over ``r``) and
produces the R6-keyed wait/signal schedule instead — both through the
one transformation, :func:`repro.transform.pipeline.pipelining`, which
adds a handshake only where a dependence needs one.
"""

from .candidates import Candidate, dsc_candidates, pipeline_candidates
from .cost import CommProfile, static_profile
from .planner import Plan, PlanStage, make_plan
from .report import plan_to_dict, render_plan
from .targets import TARGETS, PlanTarget

__all__ = [
    "Candidate", "dsc_candidates", "pipeline_candidates",
    "CommProfile", "static_profile",
    "Plan", "PlanStage", "make_plan",
    "plan_to_dict", "render_plan",
    "TARGETS", "PlanTarget",
]
