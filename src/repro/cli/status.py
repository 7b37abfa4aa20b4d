"""``repro status`` / ``repro shutdown`` — operate a serve daemon."""

from __future__ import annotations

import json
import sys


def configure(sub) -> None:
    st = sub.add_parser("status",
                        help="query a running serve daemon")
    st.add_argument("job", nargs="?", default=None,
                    help="job id for a single record (default: "
                         "daemon-wide summary)")
    _addr_args(st)
    st.add_argument("--resize", type=int, default=None, metavar="N",
                    help="grow/shrink the worker pool to N first")
    st.add_argument("--json", action="store_true")
    st.set_defaults(handler=_cmd_status)

    sh = sub.add_parser("shutdown",
                        help="stop a running serve daemon")
    _addr_args(sh)
    sh.add_argument("--now", action="store_true",
                    help="do not drain running jobs first")
    sh.set_defaults(handler=_cmd_shutdown)


def _addr_args(parser) -> None:
    parser.add_argument("--addr", default=None, help="daemon host:port")
    parser.add_argument("--addr-file", default=None, metavar="PATH",
                        help="read the daemon address from this file")


def _client(args):
    from ..serve.client import ServeClient, resolve_addr
    return ServeClient(resolve_addr(args.addr, args.addr_file))


def _cmd_status(args) -> int:
    from ..errors import ServeError

    try:
        with _client(args) as client:
            if args.resize is not None:
                size = client.resize(args.resize)
                print(f"pool resized to {size} worker(s)")
            out = client.status(args.job)
    except ServeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    if args.job is not None:
        print(f"{out['job']}: {out['state']}"
              + (f" — {out['reason']}" if out.get("reason") else ""))
        if out.get("digest"):
            print(f"  digest   {out['digest']}")
            print(f"  verified {'yes' if out['ok'] else 'NO'}"
                  f"  restarts {out['restarts']}"
                  f"  wall {out['wall_s']:.3f}s")
        return 0
    pool, q = out["pool"], out["queue"]
    print(f"uptime {out['uptime_s']:.0f}s  pool {pool['size']} "
          f"worker(s), {pool['free']} free, {pool['respawns']} "
          f"respawn(s)")
    print(f"queue {q['depth']}/{q['max_depth']} pending"
          + (f" {q['by_tenant']}" if q["by_tenant"] else ""))
    print(f"jobs completed {out['completed']}  failed {out['failed']}  "
          f"rejected {out['rejected']}  "
          f"running {out['jobs'].get('running', 0)}")
    durability = out.get("durability")
    if durability:
        rec = durability["recovered"]
        led = durability["ledger"]
        print(f"durable at {durability['state_dir']}  "
              f"(session {rec['sessions'] + 1}"
              f"{', recovered from crash' if rec['unclean'] else ''}): "
              f"{rec['terminal']} finished / {rec['requeued']} queued / "
              f"{rec['resumed']} in-flight recovered / {rec['stale']} "
              f"stale failed; ledger "
              f"{led['appends']} append(s), {led['fsyncs']} fsync(s)")
    return 0


def _cmd_shutdown(args) -> int:
    from ..errors import ServeError

    try:
        with _client(args) as client:
            out = client.shutdown(drain=not args.now)
    except ServeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"daemon stopped ({out['drained']} job(s) drained, "
          f"{out['cancelled']} cancelled)")
    return 0
