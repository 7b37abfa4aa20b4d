"""``fabric_oneshot``: what ``repro run --fabric X`` costs cold.

Each round builds the suite ``navp-2d-pipeline g=3 ab=128`` (9 PEs
folded onto 2 hosts by ``cyclic_hosts``) and runs it once on each of
five configurations, in a seed-rotated order: ``thread``, ``process``,
``process`` + ``checkpoint_every=8``, ``socket``, ``socket`` +
``checkpoint_every=8``. The timed region is ``make_fabric`` -> load ->
``signal_initial`` -> ``inject`` -> ``run()`` -> product assembled, so
it includes fork/accept/teardown and each fabric's own controller loop
(``ThreadFabric``'s engine, ``ProcessFabric._run_plain`` /
``_run_resilient``, ``SocketFabric`` plain / resilient) — the loops the
serve workloads never execute, because their pool is warm.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

import oracles
from harness import cold_probe, median, repeats, scaled, stopwatch

PROGRAM, G, AB, HOSTS = "navp-2d-pipeline", 3, 128, 2
ROUNDS = 20
CONFIGS = {
    "thread": ("thread", {}),
    "process": ("process", {}),
    "process_resilient": ("process", {"checkpoint_every": 8}),
    "socket": ("socket", {}),
    "socket_resilient": ("socket", {"checkpoint_every": 8}),
}


def one_run(kind: str, options: dict, suite, trace: bool = False):
    """``make_fabric`` .. product assembled — the timed region of one
    run; returns (c, result, wall of ``run()`` alone)."""
    from repro.fabric.factory import make_fabric
    from repro.fabric.hosts import cyclic_hosts
    from repro.fabric.topology import Grid2D
    from repro.navp.interp import IRMessenger

    topology = Grid2D(suite.g)
    fabric = make_fabric(kind, topology, trace=trace,
                         hosts=cyclic_hosts(topology, HOSTS), **options)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    t1 = time.perf_counter()
    result = fabric.run()
    t2 = time.perf_counter()
    block = next(iter(suite.layout.values()))["C"]
    ab = block.shape[0]
    c = np.empty((suite.g * ab, suite.g * ab), dtype=block.dtype)
    for (i, j), node_vars in result.places.items():
        c[i * ab:(i + 1) * ab, j * ab:(j + 1) * ab] = node_vars["C"]
    return c, result, t2 - t1


def one_round(seed: int, rotation: int, ops, timed, runs: dict) -> None:
    """Five configurations on one job seed, each appended to ``runs``
    as a :class:`~harness.Timed` whose value is the wall of ``run()``
    alone; every product must be bit-identical to the sim fabric's."""
    from repro.serve import build_job_suite

    reference = oracles.sim_product(PROGRAM, G, seed, AB) \
        if ops is not None else None
    names = list(CONFIGS)
    names = names[rotation % 5:] + names[:rotation % 5]
    for name in names:
        kind, options = CONFIGS[name]
        # a fresh suite per run: fabrics may update node dicts in place
        suite, _a, _b = build_job_suite(PROGRAM, G, seed, AB)
        run = timed(one_run, kind, options, suite)
        if ops is not None:
            ops.check(np.array_equal(run.value[0], reference),
                      f"{name}: product differs from the sim fabric's")
            ops.check(not multiprocessing.active_children(),
                      f"{name}: fabric left worker processes behind")
        # keep the timing, drop the product and node variables
        runs[name].append(run._replace(value=run.value[2]))


def cold() -> None:
    one_round(0, 0, None, stopwatch, {name: [] for name in CONFIGS})


def run(ctx) -> dict:
    if ctx.traced:
        return _run_traced(ctx)
    y = ctx.yardstick
    setups = cold_probe(y, "fabric_oneshot", repeats(ctx.scale))
    cold()
    runs = {name: [] for name in CONFIGS}
    rounds = scaled(ROUNDS, ctx.scale, 5)
    for r in range(rounds):
        one_round((ctx.seed + r) % 8, ctx.seed + r, ctx.ops, y.timed, runs)
    named = {"setup_s": median(t.cal for t in setups)}
    raw = {"setup_s": median(t.raw for t in setups)}
    for name, timed in runs.items():
        named["run_ms." + name] = median(t.cal for t in timed) * 1e3
        raw["run_ms." + name] = median(t.raw for t in timed) * 1e3
    total_ms = sum(named["run_ms." + name] for name in CONFIGS)
    return {"named": named, "raw": raw,
            # one run on every fabric, and the rate that implies
            "dense": {"op_p50_ms": total_ms,
                      "ops_per_s": len(CONFIGS) / (total_ms / 1e3)},
            "extra": {"rounds": rounds}}


# -- the traced run ---------------------------------------------------------------

def _noop_suite(suite):
    """The same layout with an entry program that does nothing: what a
    run costs before its first hop (fork, connect, load, collect,
    teardown)."""
    from dataclasses import replace

    from repro.navp import ir

    entry = ir.register_program(ir.Program("bench-noop", body=()),
                                replace=True)
    return replace(suite, entry=entry, programs=(entry,),
                   initial_signals=())


def _run_traced(ctx) -> dict:
    import drive
    from repro.fabric.controller import Supervisor
    from repro.resilience.checkpoint import DiskStore
    from repro.serve import build_job_suite

    rec = ctx.recorder
    cold()
    n_rounds = scaled(6, ctx.scale, 3)
    plain = {name: [] for name in CONFIGS}
    for r in range(n_rounds):
        one_round((ctx.seed + r) % 8, ctx.seed + r, ctx.ops, stopwatch,
                  plain)

    runs = {name: [] for name in CONFIGS}
    rec.wrap(Supervisor, "journal", "Supervisor.journal")
    rec.wrap(DiskStore, "save", "DiskStore.save")
    rec.enabled = True
    try:
        for r in range(n_rounds):
            rec.current_op = f"round{r}"
            with rec.span("round"):
                one_round((ctx.seed + r) % 8, ctx.seed + r, ctx.ops,
                          stopwatch, runs)
    finally:
        rec.enabled = False
        rec.unwrap_all()

    # empty-job floor of each distributed fabric
    floors = {}
    for kind in ("process", "socket"):
        samples = []
        for _ in range(5):
            suite, _a, _b = build_job_suite(PROGRAM, G, ctx.seed % 8, AB)
            samples.append(stopwatch(one_run, kind, {},
                                     _noop_suite(suite)).raw)
        floors[kind] = median(samples) * 1e3

    # transport counters of a trace=True twin of the socket runs
    suite, _a, _b = build_job_suite(PROGRAM, G, ctx.seed % 8, AB)
    twin = one_run("socket", {}, suite, trace=True)[1].trace
    suite, _a, _b = build_job_suite(PROGRAM, G, ctx.seed % 8, AB)
    twin_res = one_run("socket", {"checkpoint_every": 8}, suite,
                       trace=True)[1].trace
    hops, frames = sum(twin.hops_sent().values()), \
        sum(twin.frames_sent().values())
    bytes_out = sum(_stat(twin, "bytes_out").values())

    shape = (PROGRAM, G, ctx.seed % 8, AB)
    cohosted = drive.drive_cores(*shape, n_hosts=1)
    folded = drive.drive_cores(*shape, n_hosts=HOSTS)
    codec = drive.payload_probe(folded["hops"])
    wire = drive.wire_probe(codec["largest"])
    gemm = drive.gemm_probe(AB)
    t0 = time.perf_counter()
    for _ in range(5):
        build_job_suite(*shape)
    build_ms = (time.perf_counter() - t0) / 5 * 1e3
    resilient_runs = 2 * n_rounds

    def med(name):
        return median(t.raw for t in runs[name]) * 1e3

    def run_only(name):
        return median(t.value for t in runs[name]) * 1e3

    layer = {
        "catalog.build_suite_ms": build_ms,
        "payload.encode_us": codec["encode_us"],
        "payload.decode_us": codec["decode_us"],
        "payload.bytes_per_hop": codec["bytes_per_hop"],
        "payload.oob_buffers_per_hop": codec["oob_buffers_per_hop"],
        "wire.small_rtt_us": wire["small_rtt_us"],
        "wire.large_mb_per_s": wire["large_mb_per_s"],
        "wire.frames_per_job": frames,
        "wire.bytes_per_job": bytes_out,
        "core.execute_ms_per_job": cohosted["wall_s"] * 1e3,
        "gate.credit_waits": sum(_stat(twin_res, "credit_waits").values()),
        "supervisor.journal_entries_per_job":
            rec.count("Supervisor.journal") / resilient_runs,
        "controller.resilient_overhead_ms.process":
            med("process_resilient") - med("process"),
        "controller.resilient_overhead_ms.socket":
            med("socket_resilient") - med("socket"),
        "threads.run_ms": run_only("thread"),
        "process.setup_ms": floors["process"],
        "process.run_ms": run_only("process"),
        "socket.setup_ms": floors["socket"],
        "socket.run_ms": run_only("socket"),
        "socket.coalesce_ratio": hops / max(1, frames),
        "socket.mailbox_hwm": max(twin.mailbox_hwm().values(), default=0),
        "interp.stmts_per_job": folded["dispatches"],
        "interp.ns_per_stmt":
            folded["interp_s"] / folded["dispatches"] * 1e9,
        "interp.snapshot_us": drive.snapshot_us(folded["hops"]),
        "kernels.calls_per_job": folded["kernel_calls"],
        "kernels.gemm_ms": gemm["gemm_ms"],
        "kernels.flops_per_job": folded["flops"],
        "kernels.gflops": gemm["gflops"],
        "checkpoint.saves_per_job": len(twin_res.checkpoints()),
        "trace_overhead_x":
            sum(med(name) for name in CONFIGS)
            / sum(median(t.raw for t in plain[name]) * 1e3
                  for name in CONFIGS),
    }
    return {"layer": layer,
            "extra": {"traced.run_ms": {name: med(name) for name in CONFIGS},
                      "drive.hops_per_job": len(folded["hops"])}}


def _stat(trace, key: str) -> dict:
    """One ``key=value`` counter of the per-worker transport summaries
    (``TraceLog.transport()``), by worker place."""
    out: dict = {}
    for event in trace.transport():
        for field in event.note.split():
            if field.startswith(key + "="):
                out[event.place] = max(out.get(event.place, 0),
                                       int(field[len(key) + 1:]))
    return out
