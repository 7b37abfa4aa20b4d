"""``repro serve`` — run the persistent multi-tenant job service.

Foreground daemon: binds, forks the warm worker pool, prints (and
optionally writes) its address, then serves until ``repro shutdown``,
SIGTERM (graceful drain), or Ctrl-C. With ``--state-dir`` the daemon
is durable: every job transition is write-ahead logged, and a restart
on the same directory recovers queued, in-flight, and finished jobs.
See docs/serving.md for the architecture, protocol, and durability
model.
"""

from __future__ import annotations

import os
import signal
import threading


def configure(sub) -> None:
    p = sub.add_parser("serve",
                       help="run the multi-tenant job service daemon")
    p.add_argument("--pool", type=int, default=4,
                   help="warm worker processes (default 4)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default: ephemeral)")
    p.add_argument("--addr-file", default=None, metavar="PATH",
                   help="write pid:host:port here once bound (what "
                        "submit/status scripts read; the pid lets "
                        "clients detect a stale file)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="durable control plane: write-ahead log + "
                        "checkpoints here; restart on the same dir "
                        "recovers all jobs")
    p.add_argument("--window", type=int, default=32,
                   help="per-worker credit window (default 32)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission queue bound (default 64)")
    p.add_argument("--tenant-cap", type=int, default=8,
                   help="per-tenant in-flight job cap (default 8)")
    p.add_argument("--job-timeout", type=float, default=60.0,
                   help="per-job wall-clock bound in seconds")
    p.add_argument("--max-restarts", type=int, default=2,
                   help="per-job worker respawn budget (default 2)")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="quiescent checkpoint cadence in forwarded "
                        "hops (default 8)")
    p.add_argument("--chaos", action="store_true",
                   help="enable the kill-worker chaos verb (CI fault "
                        "drills)")
    p.add_argument("--no-mc-admission", action="store_true",
                   help="skip the static protocol-deadlock gate at "
                        "admission")
    p.set_defaults(handler=_cmd_serve)


def _cmd_serve(args) -> int:
    from ..serve import ServeService

    service = ServeService(
        pool_size=args.pool, port=args.port, window=args.window,
        max_depth=args.queue_depth, tenant_cap=args.tenant_cap,
        job_timeout_s=args.job_timeout, max_restarts=args.max_restarts,
        checkpoint_every=args.checkpoint_every, chaos=args.chaos,
        mc_admission=not args.no_mc_admission, state_dir=args.state_dir,
    )
    host, port = service.start()
    recovered = service.recovery_summary
    extra = ""
    if args.state_dir:
        extra = (f", state {args.state_dir}"
                 f"{' [recovering]' if recovered['unclean'] else ''}")
        if recovered["terminal"] or recovered["requeued"] \
                or recovered["resumed"] or recovered["stale"]:
            print(f"repro serve: recovered {recovered['terminal']} "
                  f"finished, {recovered['requeued']} queued, "
                  f"{recovered['resumed']} in-flight job(s) from the "
                  f"ledger; {recovered['stale']} stale (other data "
                  f"version) failed", flush=True)
    print(f"repro serve: listening on {host}:{port} "
          f"(pool {args.pool}, window {args.window}{extra})", flush=True)
    if args.addr_file:
        with open(args.addr_file, "w", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}:{host}:{port}\n")

    def _drain(signum, frame):  # noqa: ARG001 - signal signature
        # graceful degradation: stop admitting, let running jobs
        # finish, flush + cleanly close the ledger. Runs off the
        # signal frame so a slow drain cannot wedge signal delivery.
        print("repro serve: SIGTERM, draining", flush=True)
        threading.Thread(target=service.shutdown,
                         kwargs={"drain": True}, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: interrupted, tearing down", flush=True)
        service.shutdown(drain=False)
    print("repro serve: stopped", flush=True)
    return 0
