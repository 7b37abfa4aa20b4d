"""``repro bench`` — the in-process smoke tripwire and the
``source_loc`` ledger (speed is measured by ``bench/``)."""

from __future__ import annotations

import sys


def configure(sub) -> None:
    bench_p = sub.add_parser(
        "bench", help="run the smoke benches and report the code-line "
                      "trend (speed is measured by bench/run.py)")
    bench_p.add_argument("--out", default="benchmarks/out",
                         help="directory for BENCH_<date>.json snapshots; "
                              "the code-line delta is taken against the "
                              "newest one there (default benchmarks/out)")
    bench_p.add_argument("--smoke", action="store_true",
                         help="small sizes, <60 s — the CI tier-1 mode")
    bench_p.add_argument("--label", default="",
                         help="free-form label stored in the snapshot")
    bench_p.add_argument("--only", nargs="*", default=None,
                         help="run a subset of benchmarks by name")
    bench_p.add_argument("--no-write", action="store_true",
                         help="run and report without writing a snapshot")
    bench_p.add_argument("--repeats", type=int, default=3,
                         help="runs per benchmark; the fastest is kept "
                              "(default 3)")
    bench_p.set_defaults(handler=_cmd_bench)


def _cmd_bench(args) -> int:
    from ..perf import (
        BENCHES,
        find_previous,
        load_bench,
        make_snapshot,
        render_report,
        run_suite,
        source_loc_delta,
        write_bench,
    )

    unknown = [name for name in args.only or () if name not in BENCHES]
    if unknown:
        print(f"unknown benchmark {unknown[0]!r} "
              f"(known: {', '.join(BENCHES)})", file=sys.stderr)
        return 2
    results = run_suite(smoke=args.smoke, only=args.only,
                        repeats=args.repeats)
    snapshot = make_snapshot(results, label=args.label, smoke=args.smoke)

    previous_path = find_previous(args.out)
    if previous_path is not None:
        snapshot["vs_baseline"] = {
            "against": str(previous_path),
            "source_loc_delta": source_loc_delta(
                snapshot, load_bench(previous_path)),
        }
    if not args.no_write:
        path = write_bench(snapshot, args.out)
        print(f"wrote {path}")
    print(render_report(snapshot))
    return 0
