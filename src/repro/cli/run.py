"""``repro run`` — run one matmul variant on the model or a fabric."""

from __future__ import annotations

import sys

from ..errors import DeadlockError, PartitionError, ResilienceError
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


def _print_faults(counts) -> None:
    if counts is not None:
        print(f"  faults         {counts['fired']} fired, "
              f"{counts['masked']} masked, {counts['lost']} lost")


def _faulted(args, run):
    """Call ``run()`` under the ``--faults`` plan and return ``(value,
    counts)``; ``counts`` is what :func:`_print_faults` reads (None
    without a plan). Return None for a run an unmasked fault broke — it
    lost messengers, or raised DeadlockError or ResilienceError — after
    printing one line naming the crashed PE or worker, then the faults
    line."""
    from contextlib import nullcontext

    from ..resilience import FaultPlan, injected

    plan = FaultPlan.from_file(args.faults) if args.faults else None
    value = error = None
    with (nullcontext() if plan is None else
          injected(plan, recovery=not args.no_recovery)) as counts:
        try:
            value = run()
        except (DeadlockError, ResilienceError) as exc:
            error = exc
    if error is None and (counts is None or counts["lost"] == 0):
        return value, counts
    if isinstance(error, ResilienceError) or not (plan and plan.crashes):
        cause = (str(error).splitlines()[0] if error is not None
                 else "a dropped transfer lost its only copy")
    else:
        cause = "crash of " + ", ".join(
            f"PE {s.place if isinstance(s.place, int) else tuple(s.place)}"
            for s in plan.crashes) + " not masked"
    print(f"{args.variant}: failed, no product: {cause}")
    _print_faults(counts)
    return None


def _cmd_run_on_fabric(args) -> int:
    """Run a variant's IR restatement on a real substrate."""
    import time as time_mod

    from ..matmul import run_ir2d_suite
    from ..serve.catalog import IR_CATALOG, build_job_suite, product_ok

    if args.variant not in IR_CATALOG:
        print(f"--fabric {args.fabric} needs an IR form; available for: "
              f"{', '.join(sorted(IR_CATALOG))}", file=sys.stderr)
        return 2
    g = args.geometry
    ab = max(args.n // g, 1)
    seed = 220
    suite, a, b = build_job_suite(args.variant, g, seed=seed, ab=ab)
    t0 = time_mod.perf_counter()
    ran = _faulted(args, lambda: run_ir2d_suite(suite, args.fabric,
                                                trace=True))
    wall = time_mod.perf_counter() - t0
    if ran is None:
        return 1
    (c, result), counts = ran
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
    _print_faults(counts)
    return 0 if ok else 1


def _cmd_run(args) -> int:
    if args.fabric != "sim":
        return _cmd_run_on_fabric(args)
    try:
        case = MatmulCase(n=args.n, ab=args.ab, shadow=not args.real)
        ran = _faulted(args, lambda: run_variant(
            args.variant, case, geometry=args.geometry, trace=False))
    except PartitionError as exc:   # --n, --ab and --geometry disagree
        print(f"{args.variant}: {exc}", file=sys.stderr)
        return 2
    if ran is None:
        return 1
    result, counts = ran
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
    _print_faults(counts)
    return 0
