"""``analysis_gate``: the static tower, in process.

One pass is what a CI run plus a first-of-shape submission pay: the
``repro`` CLI on ``lint --all --races``, ``lint --corpus``, ``lint
... --protocol-mc`` and ``plan`` for both targets, then cold admission
verdicts (``admission_verdict.cache_clear()`` first) for six catalog
shapes. Nothing in the other workloads touches ``analysis/*`` or
``plan/*`` after warm-up.

The probe afterwards explores ``navp-2d-pipeline g=3`` under a short
admission deadline. That shape exhausts even the daemon's 10 s deadline
today and returns INCONCLUSIVE, so the states it explores per second is
the model checker's throughput on a state space it cannot finish.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import oracles
from harness import (cold_probe, median, repeats, scaled, stopwatch,
                     typical)

PASSES = 12
PROBES = 6
PROBE_SHAPE = ("navp-2d-pipeline", 3)
#: The issue sized the probe at 3 x 3.0 s; six 1.0 s windows cost less
#: and let the yardstick bracket each one closely enough to follow this
#: host's speed.
PROBE_DEADLINE_S = 1.0

COMMANDS = {
    "lint_all": ["lint", "--all", "--races", "--json"],
    "lint_corpus": ["lint", "--corpus", "--json"],
    "lint_mc": ["lint", "mm-seq-3-dsc-phase", "mm-seq-3-dsc-pipe",
                "wf-pipe-3x4b4", "fig11-main-3", "--protocol-mc", "--json"],
    "plan_matmul": ["plan", "navp-matmul", "--json"],
    "plan_wavefront": ["plan", "navp-wavefront", "--json"],
}
VERDICT_SHAPES = (("navp-2d-dsc", 2), ("navp-2d-dsc", 3),
                  ("navp-2d-pipeline", 2), ("mpi-gentleman", 2),
                  ("mpi-gentleman", 3), ("navp-2d-phase", 3))


def cli(argv) -> tuple:
    """``repro.cli.main(argv)`` with stdout captured: (exit code, JSON)."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, json.loads(buffer.getvalue())


def one_pass(ops, pinned, timed=stopwatch, recorder=None) -> dict:
    """One gate pass, every command and verdict its own timed sample;
    returns the samples and the pass's exact counters."""
    from repro.serve.catalog import admission_verdict

    span = recorder.span if recorder is not None else \
        (lambda name: contextlib.nullcontext())
    steps, candidates = {}, 0
    for name, argv in COMMANDS.items():
        with span("cli:" + name):
            steps[name] = timed(cli, argv)
        code, doc = steps[name].value
        if name.startswith("plan"):
            got = {"exit": code, "sequence": doc["sequence"]}
            candidates += sum(len(s["candidates"]) for s in doc["stages"])
        else:
            got = {"exit": code,
                   "errors": (doc.get("summary") or {}).get("errors", 0)}
        if ops is not None:
            ops.check(got == pinned["commands"][name],
                      f"{name}: {got} != pinned {pinned['commands'][name]}")

    admission_verdict.cache_clear()
    states = transitions = 0
    verdicts = []
    for program, g in VERDICT_SHAPES:
        with span(f"verdict:{program}-g{g}"):
            verdicts.append(timed(admission_verdict, program, g))
        verdict = verdicts[-1].value
        states += verdict.stats.get("total_states", 0)
        transitions += verdict.stats.get("total_transitions", 0)
        if ops is not None:
            want = pinned["verdicts"][f"{program}/g{g}"]
            ops.check(verdict.status == want,
                      f"verdict {program} g={g}: {verdict.status} != {want}")
    everything = list(steps.values()) + verdicts
    return {"steps": steps, "verdicts": verdicts, "all": everything,
            "raw_s": sum(t.raw for t in everything),
            "states": states, "transitions": transitions,
            "candidates": candidates}


def probe(ops, pinned, timed) -> tuple:
    """States explored per second of deadline on the probe shape:
    (raw, host-calibrated)."""
    from repro.serve.catalog import admission_verdict

    admission_verdict.cache_clear()
    run = timed(admission_verdict, *PROBE_SHAPE, deadline_s=PROBE_DEADLINE_S)
    want = pinned["verdicts"]["%s/g%d" % PROBE_SHAPE]
    ops.check(run.value.status == want,
              f"probe verdict: {run.value.status} != {want}")
    rate = run.value.stats["total_states"] / PROBE_DEADLINE_S
    return rate, rate * run.factor


def cold() -> None:
    one_pass(None, None)


def run(ctx) -> dict:
    if ctx.traced:
        return _run_traced(ctx)
    y = ctx.yardstick
    pinned = oracles.pinned()
    setups = cold_probe(y, "analysis_gate", repeats(ctx.scale))
    cold()      # the first pass also registers the programs later
    #             passes lint, so the pinned outcomes are steady-state
    passes = [one_pass(ctx.ops, pinned, y.timed)
              for _ in range(scaled(PASSES, ctx.scale, 2))]
    rates = [probe(ctx.ops, pinned, y.timed)
             for _ in range(scaled(PROBES, ctx.scale, 1))]
    named = {"setup_s": median(t.cal for t in setups),
             "gate_s": typical([p["all"] for p in passes], "cal"),
             "mc_states_per_s": median(cal for _raw, cal in rates)}
    raw = {"setup_s": median(t.raw for t in setups),
           "gate_s": typical([p["all"] for p in passes], "raw"),
           "mc_states_per_s": median(r for r, _cal in rates)}
    return {"named": named, "raw": raw,
            "dense": {"op_p50_ms": named["gate_s"] * 1e3,
                      "ops_per_s": named["mc_states_per_s"]},
            "extra": {"passes": len(passes), "probes": len(rates),
                      "probe_deadline_s": PROBE_DEADLINE_S}}


# -- the traced run ----------------------------------------------------------------

def _run_traced(ctx) -> dict:
    import repro.analysis.protocol_mc as protocol_mc
    import repro.plan as plan
    from repro.serve.catalog import admission_verdict

    rec = ctx.recorder
    pinned = oracles.pinned()
    cold()
    n = scaled(5, ctx.scale, 3)
    plain = [one_pass(ctx.ops, pinned) for _ in range(n)]

    rec.wrap(protocol_mc, "model_check", "model_check")
    rec.wrap(plan, "make_plan", "make_plan")
    rec.enabled = True
    traced = []
    try:
        for i in range(n):
            rec.current_op = f"pass{i}"
            with rec.span("pass"):
                traced.append(one_pass(ctx.ops, pinned, recorder=rec))
    finally:
        rec.enabled = False
        rec.unwrap_all()

    # the race pass alone: the same lint with and without --races
    no_races = []
    for _ in range(n):
        t0 = time.perf_counter()
        cli(["lint", "--all", "--json"])
        no_races.append(time.perf_counter() - t0)
    hits = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(200):
            admission_verdict(*VERDICT_SHAPES[0])
        hits.append((time.perf_counter() - t0) / 200)

    def med(key):
        return median(p["steps"][key].raw for p in traced)

    verdict_s = median(sum(t.raw for t in p["verdicts"]) for p in traced)
    gate_s = median(p["raw_s"] for p in traced)

    counters = {(p["states"], p["transitions"], p["candidates"])
                for p in plain + traced}
    ctx.ops.check(len(counters) == 1,
                  f"statespace/plan counters moved between passes: "
                  f"{sorted(counters)}")
    last = traced[-1]
    layer = {
        "catalog.verdict_hit_us": median(hits) * 1e6,
        "catalog.verdict_cold_ms": verdict_s * 1e3,
        "lint.all_ms": med("lint_all") * 1e3,
        "lint.corpus_ms": med("lint_corpus") * 1e3,
        "races.ms": max(0.0, med("lint_all") - median(no_races)) * 1e3,
        "protocol_mc.roots_ms": med("lint_mc") * 1e3,
        "statespace.states": last["states"],
        "statespace.transitions": last["transitions"],
        "statespace.states_per_s": last["states"] / verdict_s,
        "plan.matmul_ms": med("plan_matmul") * 1e3,
        "plan.wavefront_ms": med("plan_wavefront") * 1e3,
        "plan.candidates": last["candidates"],
        "trace_overhead_x": gate_s / median(p["raw_s"] for p in plain),
    }
    self_s = {name: sum(vals) / n for name, vals in rec.self_times().items()}
    return {"layer": layer,
            "extra": {"traced.gate_s": gate_s,
                      "traced.self_s_per_pass": self_s}}
