#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--only W] [--seed N] [--quick] [--trace]

prints every metric by name with its unit, checks every output for
correctness and writes ``bench/out/<workload>.json`` (a traced run
writes ``<workload>.traced.json`` and its spans, ``trace_<workload>.json``). The benchmark
driver calls the same program as

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` untraced, its per-layer metrics traced).
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import harness

#: workload -> module under ``workloads/``
MODULES = {
    "serve_ctl": "serve",
    "serve_data": "serve",
    "table_sweep": "table_sweep",
    "fabric_oneshot": "fabric_oneshot",
    "analysis_gate": "analysis_gate",
}
QUICK_SCALE = 1.0 / 8.0


class Context:
    """What one workload run is handed."""

    def __init__(self, workload, seed, scale, quick, traced):
        from spans import Recorder

        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.quick = quick
        self.traced = traced
        self.ops = harness.Ops()
        self.children = harness.Children()
        self.yardstick = harness.Yardstick()
        self.recorder = Recorder() if traced else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", "--only", dest="workload",
                        choices=sorted(MODULES), default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the input generator (job seeds, tenant "
                             "order, config rotation)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phases; operation "
                             "counts scale with it (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--quick", action="store_true",
                        help="same shapes, 1/8 the iterations; results are "
                             "flagged and refused by compare.py")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="traced run: per-layer metrics and spans")
    parser.add_argument("--out", default=harness.OUT_DIR,
                        help="directory for result files "
                             "(default bench/out)")
    parser.add_argument("--cold", choices=sorted(MODULES), default=None,
                        help=argparse.SUPPRESS)   # the set-up probe
    return parser.parse_args(argv)


def manifest() -> dict:
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args, spec) -> int:
    """One workload in this process; prints the driver's result line."""
    import metrics as catalogue

    name = args.workload
    traced = bool(args.trace)
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    scale = seconds / float(spec["run_seconds"])
    if args.quick:
        scale *= QUICK_SCALE
    ctx = Context(name, args.seed, scale, args.quick, traced)
    module = importlib.import_module("workloads." + MODULES[name])

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    result, error = {}, None
    calib_before = ctx.yardstick.calib_ms()
    t0 = time.perf_counter()
    try:
        result = module.run(ctx)
    except KeyboardInterrupt:
        error = "interrupted"
    except Exception as exc:   # noqa: BLE001 - reported as a failed op
        error = f"{type(exc).__name__}: {exc}"
        ctx.ops.fail(f"workload aborted: {error}")
    finally:
        survivors = ctx.children.reap()
        shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    wall = time.perf_counter() - t0
    calib_after = ctx.yardstick.calib_ms()
    for _ in range(survivors):
        ctx.ops.fail("a process the harness started outlived its workload")
    if error == "interrupted":
        print("bench: interrupted; children reaped", file=sys.stderr)
        return 130

    named = dict(result.get("named", {}))
    dense = dict(result.get("dense", {}))
    layer = dict(result.get("layer", {}))
    if not traced:
        # the serve workloads report their daemon tree's peak themselves:
        # there the harness process is not part of the program
        named.setdefault("peak_rss_mb", harness.peak_rss_mb())
        dense["setup_s"] = named.get("setup_s")
        dense["peak_rss_mb"] = named["peak_rss_mb"]
    else:
        layer["host.calib_ms"] = (calib_before + calib_after) / 2
        layer["host.disturbed"] = int(
            abs(calib_after - calib_before)
            > 0.15 * min(calib_before, calib_after))

    payload = {
        "workload": name,
        "conditions": harness.conditions(args.seed, scale, args.quick,
                                         traced),
        "wall_s": wall,
        "ops_attempted": ctx.ops.attempted,
        "ops_failed": ctx.ops.failed,
        "failures": ctx.ops.reasons,
        "host": {"calib_before_ms": calib_before,
                 "calib_after_ms": calib_after,
                 "yardstick_ref_ms": harness.Yardstick.REF_MS,
                 "yardstick_median_ms":
                     harness.median(ctx.yardstick.samples),
                 "yardstick_probes": len(ctx.yardstick.samples)},
        "end_to_end": {k: {"value": v, "unit": catalogue.NAMED[k][0]}
                       for k, v in named.items()},
        "raw": result.get("raw", {}),
        "dense": {k: {"value": v, "unit": catalogue.DENSE[k][0]}
                  for k, v in dense.items()},
        "per_layer": {k: {"value": v, "unit": catalogue.PER_LAYER[k][0]}
                      for k, v in layer.items()},
        "extra": result.get("extra", {}),
    }
    stem = f"{name}.traced" if traced else name
    harness.write_json(os.path.join(args.out, stem + ".json"), payload)
    if traced:
        ctx.recorder.dump(os.path.join(args.out, f"trace_{name}.json"))

    print(f"== {name}  seed={args.seed} scale={scale:g}"
          f"{' quick' if args.quick else ''}{' traced' if traced else ''}"
          f"  wall {wall:.1f} s  ops {ctx.ops.attempted}/"
          f"{ctx.ops.failed} failed")
    for section in ("end_to_end", "dense", "per_layer"):
        for key, cell in payload[section].items():
            print(f"  {key:<42} {cell['value']:>14.6g} {cell['unit']}")
    for reason in ctx.ops.reasons:
        print(f"  FAILED: {reason}")
    if error is not None:
        return 1

    # the driver's line: every metric BENCHMARK.json lists for this mode
    if traced:
        emitted = {m["name"]: {"value": layer.get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        emitted = {m["name"]: {"value": dense[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": ctx.ops.failed == 0,
                      "attempted": max(1, ctx.ops.attempted),
                      "failed": ctx.ops.failed,
                      "metrics": emitted}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter (clean imports, its
    own peak RSS), relaying its output."""
    status = 0
    for name in MODULES:
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(args.trace), "--out", args.out]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        if args.quick:
            argv.append("--quick")
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.add_src_to_path()
    harness.pin_environment()
    if args.cold is not None:
        module = importlib.import_module("workloads." + MODULES[args.cold])
        module.cold()
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args, manifest())


if __name__ == "__main__":
    sys.exit(main())
