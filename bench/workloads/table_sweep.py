"""``table_sweep``: the paper-reproduction path, in process.

Phase ``sweep`` regenerates Tables 1-4 (98 shadow-mode cells, 127 755
DES events per sweep, ``trace=False``): ``desim``, the sim effect layer,
``util.shadow`` and ``machine.cache`` — no sockets, no processes. Phase
``instrumented`` runs the schedule fuzzers on the same ``SimFabric`` /
``desim`` engine *used differently*: real numerics, happens-before
clocks (``race_check=True``) and perturbed tie order. A fast-path gain
that taxes the HB/fault/trace hooks shows in the second phase only.
"""

from __future__ import annotations

import time

import drive
import oracles
from harness import (cold_probe, median, repeats, scaled, stopwatch,
                     typical)

SWEEPS = 8           # at scale 1; each sweep is 98 cells
INSTRUMENTED = 16
FUZZ_SEEDS = range(8)
TABLES = ("table1", "table2", "table3", "table4")


def _sweep(ops, goldens) -> list:
    """One 98-cell sweep through ``build_table1..4``; every cell is
    checked against the goldens by ``float.hex``. Returns the tables."""
    from repro.perfmodel import tables

    built = []
    for name in TABLES:
        comparison = getattr(tables, "build_" + name)()
        built.append(comparison)
        if ops is None:
            continue
        cells = oracles.table_cells(comparison)
        want = goldens[name]
        ops.check(set(cells) == set(want), f"{name}: cell set changed")
        for key, value in cells.items():
            ops.check(want.get(key) == value,
                      f"{name}/{key}: {value} != golden {want.get(key)}")
    return built


def _rows() -> list:
    """The sweep as its smallest public units: one ``(table name, paper
    table, matrix order)`` per table row, in table order."""
    from repro.perfmodel import paperdata

    return [(name, paper, row.n)
            for name, paper in zip(TABLES, (paperdata.TABLE1,
                                            paperdata.TABLE2,
                                            paperdata.TABLE3,
                                            paperdata.TABLE4))
            for row in paper.rows]


def _sweep_by_rows(ops, goldens, timed) -> list:
    """One 98-cell sweep built row by row (``build_table(paper,
    orders=(n,))``: the same cells in the same order as ``build_table1..4``),
    one :class:`~harness.Timed` per row; cells are checked against the
    goldens outside the timed regions."""
    from repro.perfmodel import tables

    times, cells = [], {name: {} for name in TABLES}
    for name, paper, n in _rows():
        times.append(timed(tables.build_table, paper, orders=(n,)))
        cells[name].update(oracles.table_cells(times[-1].value))
    for name in TABLES:
        want = goldens[name]
        ops.check(set(cells[name]) == set(want), f"{name}: cell set changed")
        for key, value in cells[name].items():
            ops.check(want.get(key) == value,
                      f"{name}/{key}: {value} != golden {want.get(key)}")
    return [t._replace(value=None) for t in times]


def _instrumented(ops, timed=stopwatch) -> list:
    """One instrumented pass as its two calls, each a
    :class:`~harness.Timed` whose value is that call's fuzz checks (all
    must be ok)."""
    from repro.fabric.fuzz import fuzz_corpus, fuzz_golden_suites

    steps = [timed(fuzz_golden_suites, g=3, seeds=FUZZ_SEEDS),
             timed(fuzz_corpus, seeds=FUZZ_SEEDS)]
    if ops is not None:
        for step in steps:
            for check in step.value:
                ops.check(check.ok, f"fuzz: {check.describe()}")
    return steps


def cold() -> None:
    """The first (cold) iteration, timed from outside with the imports."""
    _sweep(None, None)
    _instrumented(None)


def run(ctx) -> dict:
    if ctx.traced:
        return _run_traced(ctx)
    y = ctx.yardstick
    goldens = oracles.golden_cells()
    setups = cold_probe(y, "table_sweep", repeats(ctx.scale))
    cold()      # warm this process the same way

    sweeps, passes = [], []
    # the two phases interleave (ratio kept) so a host-noise burst
    # cannot land on one phase only
    n_sweeps = scaled(SWEEPS, ctx.scale, 2)
    n_passes = scaled(INSTRUMENTED, ctx.scale, 2)
    for i in range(max(n_sweeps, n_passes)):
        if i < n_sweeps:
            sweeps.append(_sweep_by_rows(ctx.ops, goldens, y.timed))
        if i < n_passes:
            passes.append(_instrumented(ctx.ops, y.timed))
    checks = sum(len(step.value) for step in passes[-1])

    named = {"setup_s": median(t.cal for t in setups),
             "sweep_s": typical(sweeps, "cal"),
             "instrumented_s": typical(passes, "cal")}
    raw = {"setup_s": median(t.raw for t in setups),
           "sweep_s": typical(sweeps, "raw"),
           "instrumented_s": typical(passes, "raw")}
    return {"named": named, "raw": raw,
            "dense": {"op_p50_ms": named["sweep_s"] * 1e3,
                      "ops_per_s": checks / named["instrumented_s"]},
            "extra": {"sweeps": len(sweeps), "passes": len(passes),
                      "rows_per_sweep": len(sweeps[0]),
                      "fuzz.checks": checks}}


# -- the traced run --------------------------------------------------------------

def _wrap_sweep(recorder) -> None:
    import repro.perfmodel.tables as tables
    from repro.fabric.desim import Simulator
    from repro.fabric.sim import SimFabric

    w = recorder.wrap
    for name in TABLES:
        w(tables, "build_" + name, "build_table")
    w(tables, "run_variant", "run_variant")
    w(SimFabric, "run", "SimFabric.run")
    w(Simulator, "run", "Simulator.run")


def _twin_counts(machine=None) -> dict:
    """The exact hop/compute/byte counts of one sweep, from a
    ``trace=True`` twin of every cell (the sweep itself never traces)."""
    from repro.matmul.kinds import MatmulCase
    from repro.matmul.runner import run_variant
    from repro.perfmodel.paperdata import TABLE1, TABLE2, TABLE3, TABLE4

    hops = computes = nbytes = 0
    for paper in (TABLE1, TABLE2, TABLE3, TABLE4):
        for row in paper.rows:
            case = MatmulCase(n=row.n, ab=row.ab, shadow=True)
            for variant in row.variants:
                trace = run_variant(variant, case, geometry=paper.geometry,
                                    machine=machine, trace=True).trace
                hops += len(trace.of_kind("hop"))
                computes += len(trace.of_kind("compute"))
                nbytes += trace.bytes_moved()
    return {"hops": hops, "computes": computes, "bytes": nbytes}


def _run_traced(ctx) -> dict:
    from repro.fabric import desim

    rec = ctx.recorder
    goldens = oracles.golden_cells()
    cold()
    n_sweeps = scaled(3, ctx.scale, 2)
    n_passes = scaled(3, ctx.scale, 2)

    plain = []
    for _ in range(n_sweeps):
        t0 = time.perf_counter()
        _sweep(ctx.ops, goldens)
        plain.append(time.perf_counter() - t0)
    plain_passes, checks = [], []
    for _ in range(n_passes):
        steps = _instrumented(ctx.ops)
        plain_passes.append(sum(step.raw for step in steps))
        checks = [check for step in steps for check in step.value]

    _wrap_sweep(rec)
    rec.enabled = True
    traced, events, built = [], [], []
    mismatches_before = ctx.ops.failed
    try:
        for i in range(n_sweeps):
            rec.current_op = f"sweep{i}"
            before = desim.PERF_STATS["events"]
            with rec.span("sweep"):
                t0 = time.perf_counter()
                built = _sweep(ctx.ops, goldens)
                traced.append(time.perf_counter() - t0)
            events.append(desim.PERF_STATS["events"] - before)
    finally:
        rec.enabled = False
        rec.unwrap_all()
    mismatches = ctx.ops.failed - mismatches_before

    per_sweep = 1e3 / n_sweeps
    self_s = {name: sum(vals) for name, vals in rec.self_times().items()}
    cells = [cell for table in built for row in table.rows
             for cell in row.cells.values()]
    n_cells = len(cells) + sum(len(t.rows) for t in built)
    sweep_s = median(traced)
    counts = _twin_counts()
    micro = drive.desim_micro_events_per_s()
    ctx.ops.check(len(set(events)) == 1, f"desim.events moved: {events}")
    layer = {
        "tables.cells": n_cells,
        "tables.cell_p50_ms": rec.median_ms("run_variant"),
        "tables.self_ms": self_s.get("build_table", 0.0) * per_sweep,
        "runner.self_ms": self_s.get("run_variant", 0.0) * per_sweep,
        "tables.model_err_pct": 100.0 * sum(
            abs(c.speedup_ratio - 1.0) for c in cells) / len(cells),
        "tables.golden_mismatch": mismatches,
        "sim.run_ms": self_s.get("Simulator.run", 0.0) * per_sweep,
        "sim.self_ms": self_s.get("SimFabric.run", 0.0) * per_sweep,
        "sim.hops": counts["hops"],
        "sim.computes": counts["computes"],
        "sim.bytes": counts["bytes"],
        "desim.events": events[0],
        "desim.micro_events_per_s": micro,
        "desim.share_est": events[0] / micro / sweep_s,
        "shadow.ops_per_s": drive.shadow_ops_per_s(),
        "cache.factors_us": drive.cache_factors_us(),
        "hb.overhead_x": drive.hb_overhead_x(),
        "fuzz.checks": len(checks),
        "fuzz.failed": sum(1 for check in checks if not check.ok),
        "trace_overhead_x": sweep_s / median(plain),
    }
    accounted = (layer["tables.self_ms"] + layer["runner.self_ms"]
                 + layer["sim.self_ms"] + layer["sim.run_ms"])
    extra = {
        "traced.sweep_s": sweep_s,
        "plain.sweep_s": median(plain),
        "plain.instrumented_s": median(plain_passes),
        # self times of the four wrapped layers over the traced sweep
        # wall; the issue asks for >= 95 % or a layer is missing
        "traced.accounted_share":
            accounted / (sum(traced) * per_sweep),
    }
    return {"layer": layer, "extra": extra}
