"""``repro run`` — run one matmul variant on the model or a fabric."""

from __future__ import annotations

import sys

from ..matmul import MatmulCase, run_variant, sequential_time_model, variant_names
from ..util.validation import assert_allclose


def configure(sub) -> None:
    run_p = sub.add_parser("run", help="run one variant on the model")
    run_p.add_argument("variant", choices=variant_names())
    run_p.add_argument("--n", type=int, default=1536,
                       help="matrix order (default 1536)")
    run_p.add_argument("--ab", type=int, default=128,
                       help="algorithmic block order (default 128)")
    run_p.add_argument("--geometry", type=int, default=3,
                       help="PE count (1-D) or grid order (2-D)")
    run_p.add_argument("--real", action="store_true",
                       help="execute the numerics and verify vs NumPy "
                            "(default: shadow mode, timing only)")
    run_p.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="inject the faults described in a "
                            "fault-plan file (see docs/resilience.md)")
    run_p.add_argument("--fabric", default="sim",
                       choices=("sim", "thread", "process", "socket"),
                       help="execution substrate; kinds other than "
                            "'sim' run the variant's IR form with real "
                            "numerics and verify vs NumPy (supported "
                            "for the navp-2d-* and mpi-gentleman "
                            "variants)")
    run_p.add_argument("--no-recovery", action="store_true",
                       help="with --faults: let injected faults "
                            "actually destroy messengers instead of "
                            "masking them")
    run_p.set_defaults(handler=_cmd_run)


def _cmd_run_on_fabric(args) -> int:
    """Run a variant's IR restatement on a real substrate."""
    import time as time_mod
    from contextlib import nullcontext

    from ..matmul import run_ir2d_suite
    from ..serve.catalog import IR_CATALOG, build_job_suite, product_ok

    if args.variant not in IR_CATALOG:
        print(f"--fabric {args.fabric} needs an IR form; available for: "
              f"{', '.join(sorted(IR_CATALOG))}", file=sys.stderr)
        return 2
    if args.faults:
        from ..resilience import FaultPlan, injected
        context = injected(FaultPlan.from_file(args.faults),
                           recovery=not args.no_recovery)
    else:
        context = nullcontext()
    g = args.geometry
    ab = max(args.n // g, 1)
    seed = 220
    suite, a, b = build_job_suite(args.variant, g, seed=seed, ab=ab)
    t0 = time_mod.perf_counter()
    with context:
        c, result = run_ir2d_suite(suite, args.fabric, trace=True)
    wall = time_mod.perf_counter() - t0
    ok = product_ok(a, b, c, seed)
    print(f"{args.variant} ({suite.name}) on the {args.fabric} fabric: "
          f"g={g} ab={ab}")
    print(f"  wall time      {wall:10.3f} s")
    print(f"  transfers      {result.trace.message_count():10d} "
          f"logical block transfer(s)")
    transport = result.trace.transport()
    if transport:
        hwm = result.trace.mailbox_hwm()
        print(f"  transport      mailbox high-water "
              f"{max(hwm.values())} frame(s) across "
              f"{len(transport)} worker(s)")
    print(f"  result vs NumPy {'correct' if ok else 'WRONG'}")
    return 0 if ok else 1


def _cmd_run(args) -> int:
    if args.fabric != "sim":
        return _cmd_run_on_fabric(args)
    case = MatmulCase(n=args.n, ab=args.ab, shadow=not args.real)
    if args.faults:
        from ..resilience import FaultPlan, injected
        from ..resilience.faults import STATS

        plan = FaultPlan.from_file(args.faults)
        for key in STATS:
            STATS[key] = 0
        context = injected(plan, recovery=not args.no_recovery)
    else:
        from contextlib import nullcontext

        context = nullcontext()
    with context:
        result = run_variant(args.variant, case, geometry=args.geometry,
                             trace=False)
    seq, thrash = sequential_time_model(args.n)
    baseline = seq / thrash
    print(f"{args.variant}: n={args.n} ab={args.ab} "
          f"geometry={args.geometry}")
    print(f"  modeled time   {result.time:10.3f} s")
    print(f"  speedup        {baseline / result.time:10.2f} "
          f"(vs paging-free sequential {baseline:.2f} s)")
    if args.real and result.c is not None:
        err = assert_allclose(result.c, case.reference())
        print(f"  verified vs NumPy (relative error {err:.2e})")
    if args.faults:
        from ..resilience.faults import STATS

        print(f"  faults         {STATS['fired']} fired, "
              f"{STATS['masked']} masked, {STATS['lost']} lost")
    return 0
