"""``repro faults`` — the fault-injection and recovery demo."""

from __future__ import annotations


def configure(sub) -> None:
    faults_p = sub.add_parser(
        "faults",
        help="fault-injection demo: run a pipeline under crashes and "
             "message drops with recovery on, and show the result is "
             "bit-exact vs the clean run")
    faults_p.add_argument("--plan", default=None, metavar="PLAN.json",
                          help="fault-plan file (default: a seeded "
                               "random plan)")
    faults_p.add_argument("--seed", type=int, default=7,
                          help="seed for the generated plan (default 7)")
    faults_p.add_argument("--g", type=int, default=3,
                          help="grid order (default 3)")
    faults_p.add_argument("--no-recovery", action="store_true",
                          help="show what the same plan does without "
                               "recovery")
    faults_p.add_argument("--socket", action="store_true",
                          help="also SIGKILL a TCP-fabric worker; the "
                               "controller detects it by heartbeat "
                               "loss and recovers by respawn + replay")
    faults_p.add_argument("--process", action="store_true",
                          help="also SIGKILL a real worker process "
                               "mid-run and recover by respawn+replay")
    faults_p.set_defaults(handler=_cmd_faults)


def _cmd_faults(args) -> int:
    import numpy as np

    from ..matmul.ir2d import build_fig11, run_ir2d_suite
    from ..resilience import Crash, FaultPlan, injected
    from ..util.validation import random_matrix

    if args.plan:
        plan = FaultPlan.from_file(args.plan)
    else:
        plan = FaultPlan.random(args.seed, places=args.g * args.g,
                                crashes=1, drops=2,
                                name=f"demo-{args.seed}")
    print(f"fault plan {plan.name or '(unnamed)'}: "
          f"{len(plan.crashes)} crash(es), "
          f"{len(plan.message_faults)} message fault(s), "
          f"{len(plan.slow_nodes)} slow node(s)")

    g = args.g
    n = 8 * g
    a, b = random_matrix(n, 220), random_matrix(n, 221)
    suite = build_fig11(g, a, b)

    _c, clean = run_ir2d_suite(suite, "sim")
    print(f"\nclean virtual time        {clean.time:.6f} s")

    with injected(plan, recovery=True) as counts:
        c, faulted = run_ir2d_suite(suite, "sim")
    exact = faulted.time == clean.time
    print(f"faulted, recovery on      {faulted.time:.6f} s  "
          f"({counts['fired']} fault(s) fired, {counts['masked']} masked"
          f"{', BIT-EXACT vs clean' if exact else ''})")
    numeric_ok = bool(np.allclose(c, a @ b))
    print(f"result vs NumPy           "
          f"{'correct' if numeric_ok else 'WRONG'}")
    status = 0 if (exact and numeric_ok) else 1

    if args.no_recovery:
        from ..errors import DeadlockError

        try:
            with injected(plan, recovery=False) as counts:
                run_ir2d_suite(suite, "sim")
            print("faulted, recovery off     run completed "
                  f"({counts['lost']} messenger(s)/message(s) lost)")
        except DeadlockError as exc:
            first = str(exc).splitlines()[0]
            print(f"faulted, recovery off     deadlock: {first}")

    if args.process:
        from ..fabric.process import ProcessFabric
        from ..fabric.topology import Grid2D

        psuite = build_fig11(2, random_matrix(16, 220),
                             random_matrix(16, 221))
        kill_plan = FaultPlan(faults=(Crash(place=1, at_hop=2),),
                              name="sigkill-demo")
        fabric = ProcessFabric(Grid2D(2), timeout=60.0,
                               faults=kill_plan, trace=True)
        for coord, node_vars in psuite.layout.items():
            fabric.load(coord, **node_vars)
        for coord, event, eargs, count in psuite.initial_signals:
            fabric.signal_initial(coord, event, *eargs, count=count)
        fabric.inject((0, 0), psuite.entry.name)
        result = fabric.run()
        print("\nprocess fabric: SIGKILLed worker 1 at hop 2")
        for event in result.trace.faults() + result.trace.recoveries():
            print(f"  [{event.kind}] {event.note}")
        print(f"  run completed in {result.time:.3f} s wall "
              f"({sum(fabric.restarts.values())} respawn(s))")

    if args.socket:
        from ..fabric.socket import SocketFabric
        from ..fabric.topology import Grid2D

        ssuite = build_fig11(2, random_matrix(16, 220),
                             random_matrix(16, 221))
        kill_plan = FaultPlan(faults=(Crash(place=1, at_hop=2),),
                              name="sigkill-tcp-demo")
        fabric = SocketFabric(Grid2D(2), timeout=90.0,
                              faults=kill_plan, trace=True)
        for coord, node_vars in ssuite.layout.items():
            fabric.load(coord, **node_vars)
        for coord, event, eargs, count in ssuite.initial_signals:
            fabric.signal_initial(coord, event, *eargs, count=count)
        fabric.inject((0, 0), ssuite.entry.name)
        result = fabric.run()
        print("\nsocket fabric: SIGKILLed TCP worker 1 at hop 2; the "
              "controller noticed via heartbeat loss (phi-accrual), "
              "not a process handle")
        for event in result.trace.faults() + result.trace.recoveries():
            print(f"  [{event.kind}] {event.note}")
        print(f"  run completed in {result.time:.3f} s wall "
              f"({sum(fabric.restarts.values())} respawn(s), "
              f"{fabric.stale_frames} stale frame(s) dropped)")
    return status
