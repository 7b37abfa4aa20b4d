"""``repro plan`` — derive a parallelization plan for a target.

The planner re-enacts the paper's Section 3 decision procedure
mechanically: enumerate every candidate transformation step, let the
affine dependence analyses veto the illegal ones, score the survivors
with the calibrated analytic model on a machine preset, apply the
winners, and validate the emitted IR bit-for-bit against the
sequential program on SimFabric. Exit status is 1 when no legal plan
exists or when validation fails, 2 for a ``--geometry`` below 1, 0 on
a validated plan.
"""

from __future__ import annotations

import json
import sys

from ..machine.presets import PRESETS, get_preset
from ..plan.targets import TARGETS


def configure(sub) -> None:
    plan_p = sub.add_parser(
        "plan",
        help="derive, score and validate a parallelization plan")
    plan_p.add_argument("target", choices=sorted(TARGETS),
                        help="program family to plan")
    plan_p.add_argument("--machine", default="sun-blade-100",
                        choices=sorted(PRESETS),
                        help="machine preset to score against "
                             "(default sun-blade-100, the paper's)")
    plan_p.add_argument("--geometry", type=int, default=None,
                        help="PE count (default: the target's paper "
                             "geometry)")
    plan_p.add_argument("--emit-ir", action="store_true",
                        help="also print the final stage's emitted "
                             "navigational IR")
    plan_p.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable plan (the golden-plan "
                             "schema) instead of the report")
    plan_p.add_argument("--no-validate", action="store_true",
                        help="skip the race-detector + SimFabric "
                             "golden-run validation of the winner")
    plan_p.set_defaults(handler=_cmd_plan)


def _cmd_plan(args) -> int:
    from ..errors import TransformError
    from ..plan import make_plan, plan_to_dict, render_plan

    if args.geometry is not None and args.geometry < 1:
        print(f"--geometry must be at least 1, got {args.geometry}",
              file=sys.stderr)
        return 2
    machine = get_preset(args.machine)
    try:
        plan = make_plan(args.target, machine, geometry=args.geometry,
                         validate=not args.no_validate)
    except TransformError as exc:
        print(f"no legal plan: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(plan_to_dict(plan), indent=2, sort_keys=True))
    else:
        print(render_plan(plan, emit_ir=args.emit_ir), end="")
    val = plan.validation
    if val.get("ran") and not (val.get("race_free")
                               and val.get("bit_identical")):
        return 1
    return 0
