"""The metric catalogue: names, units, directions and regression bounds.

``NAMED`` are the fifteen end-to-end metrics later issues cite by name;
each exists only on the workloads that exercise it. ``BENCHMARK.json``
gates the four of them (``DENSE``) that are defined on *every*
workload, because its contract reports every end-to-end metric on every
workload; ``compare.py`` gates all fifteen, each on its own workloads.
``PER_LAYER`` are the traced run's metrics; on a workload that bypasses
a layer its metrics read 0.
"""

from __future__ import annotations

WORKLOADS = ("serve_ctl", "serve_data", "table_sweep", "fabric_oneshot",
             "analysis_gate")

def _on(bound: float, *workloads) -> dict:
    return {w: bound for w in workloads}


#: name -> (unit, better, {workload: bound}). Times and rates are
#: host-calibrated (see ``harness.Yardstick``); a bound is the share of
#: the parent's median by which the metric may worsen, set from the
#: spread ten identical runs showed on this host (README, "Bounds").
NAMED = {
    "setup_s": ("s", "lower", _on(0.25, *WORKLOADS)),
    "jobs_per_s": ("jobs/s", "higher",
                   _on(0.25, "serve_ctl", "serve_data")),
    "job_p50_ms": ("ms", "lower", _on(0.25, "serve_ctl", "serve_data")),
    "restart_s": ("s", "lower", _on(0.25, "serve_ctl")),
    # serve_ctl keeps no bundles, so its bytes per job repeat to 0.1 %;
    # on serve_data whether the cut at a job's eighth forward commits
    # before the job ends is a race, and ten runs read 0.94-1.85 MB
    "state_mb_per_job": ("MB", "lower", {"serve_ctl": 0.02,
                                         "serve_data": 0.50}),
    "sweep_s": ("s", "lower", _on(0.10, "table_sweep")),
    "instrumented_s": ("s", "lower", _on(0.10, "table_sweep")),
    "run_ms.thread": ("ms", "lower", _on(0.20, "fabric_oneshot")),
    "run_ms.process": ("ms", "lower", _on(0.20, "fabric_oneshot")),
    "run_ms.process_resilient": ("ms", "lower",
                                 _on(0.20, "fabric_oneshot")),
    "run_ms.socket": ("ms", "lower", _on(0.20, "fabric_oneshot")),
    "run_ms.socket_resilient": ("ms", "lower",
                                _on(0.20, "fabric_oneshot")),
    "gate_s": ("s", "lower", _on(0.20, "analysis_gate")),
    "mc_states_per_s": ("states/s", "higher", _on(0.15, "analysis_gate")),
    "peak_rss_mb": ("MB", "lower", _on(0.15, *WORKLOADS)),
}

#: The metrics BENCHMARK.json gates: the ones defined on every workload.
#: ``op_p50_ms`` and ``ops_per_s`` are each workload's own latency and
#: throughput metric under one name:
#:
#: workload         op_p50_ms                    ops_per_s
#: serve_ctl        job_p50_ms (open loop)       jobs_per_s (closed loop)
#: serve_data       job_p50_ms                   jobs_per_s
#: table_sweep      sweep_s x 1000               fuzz checks / instrumented_s
#: fabric_oneshot   sum of the five run_ms.*     5 runs / that sum
#: analysis_gate    gate_s x 1000                mc_states_per_s
#:
#: name -> (unit, better, bound)
DENSE = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: name -> (unit, better), in the order of the issue's per-layer table.
PER_LAYER = {
    # serve.client
    "client.submit_rtt_ms": ("ms", "lower"),
    "client.wait_rtt_ms": ("ms", "lower"),
    "client.job_p99_ms": ("ms", "lower"),
    "client.late_p99_ms": ("ms", "lower"),
    # serve.service
    "service.submit_ms": ("ms", "lower"),
    "service.rejected": ("count", "lower"),
    "service.status_ms": ("ms", "lower"),
    # serve.catalog
    "catalog.verdict_hit_us": ("us", "lower"),
    "catalog.verdict_cold_ms": ("ms", "lower"),
    "catalog.build_suite_ms": ("ms", "lower"),
    # serve.ledger
    "ledger.append_ms": ("ms", "lower"),
    "ledger.fsync_ms": ("ms", "lower"),
    "ledger.appends": ("count", "lower"),
    "ledger.fsyncs": ("count", "lower"),
    "ledger.group_ratio": ("ratio", "higher"),
    "ledger.replay_ms": ("ms", "lower"),
    "ledger.bytes_per_job": ("B", "lower"),
    # serve.queue
    "queue.push_take_us": ("us", "lower"),
    "queue.wait_ms": ("ms", "lower"),
    "queue.depth_max": ("count", "lower"),
    # serve.pool
    "pool.spawn_ms": ("ms", "lower"),
    "pool.lease_us": ("us", "lower"),
    "pool.send_us": ("us", "lower"),
    "pool.ship_ms": ("ms", "lower"),
    # serve.scheduler
    "scheduler.run_ms": ("ms", "lower"),
    "scheduler.hops_per_job": ("count", "lower"),
    "scheduler.ckpts_per_job": ("count", "lower"),
    # fabric.payload
    "payload.encode_us": ("us", "lower"),
    "payload.decode_us": ("us", "lower"),
    "payload.bytes_per_hop": ("B", "lower"),
    "payload.oob_buffers_per_hop": ("count", "lower"),
    # fabric.wire
    "wire.small_rtt_us": ("us", "lower"),
    "wire.large_mb_per_s": ("MB/s", "higher"),
    "wire.frames_per_job": ("count", "lower"),
    "wire.bytes_per_job": ("B", "lower"),
    # fabric.controller
    "core.execute_ms_per_job": ("ms", "lower"),
    "gate.credit_waits": ("count", "lower"),
    "supervisor.journal_entries_per_job": ("count", "lower"),
    "controller.resilient_overhead_ms.process": ("ms", "lower"),
    "controller.resilient_overhead_ms.socket": ("ms", "lower"),
    # fabric.threads / process / socket
    "threads.run_ms": ("ms", "lower"),
    "process.setup_ms": ("ms", "lower"),
    "process.run_ms": ("ms", "lower"),
    "socket.setup_ms": ("ms", "lower"),
    "socket.run_ms": ("ms", "lower"),
    "socket.coalesce_ratio": ("ratio", "higher"),
    "socket.mailbox_hwm": ("count", "lower"),
    # navp.interp
    "interp.stmts_per_job": ("count", "lower"),
    "interp.ns_per_stmt": ("ns", "lower"),
    "interp.snapshot_us": ("us", "lower"),
    # navp.kernels
    "kernels.calls_per_job": ("count", "lower"),
    "kernels.gemm_ms": ("ms", "lower"),
    "kernels.flops_per_job": ("flop", "lower"),
    "kernels.gflops": ("Gflop/s", "higher"),
    # resilience.checkpoint
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.bytes_per_job": ("B", "lower"),
    "checkpoint.saves_per_job": ("count", "lower"),
    "checkpoint.fsyncs_per_save": ("count", "lower"),
    # perfmodel.tables + matmul.runner
    "tables.cells": ("count", "higher"),
    "tables.cell_p50_ms": ("ms", "lower"),
    "tables.self_ms": ("ms", "lower"),
    "runner.self_ms": ("ms", "lower"),
    "tables.model_err_pct": ("%", "lower"),
    "tables.golden_mismatch": ("count", "lower"),
    # fabric.sim
    "sim.run_ms": ("ms", "lower"),
    "sim.self_ms": ("ms", "lower"),
    "sim.hops": ("count", "lower"),
    "sim.computes": ("count", "lower"),
    "sim.bytes": ("B", "lower"),
    # fabric.desim
    "desim.events": ("count", "lower"),
    "desim.micro_events_per_s": ("1/s", "higher"),
    "desim.share_est": ("ratio", "lower"),
    # util.shadow / machine.cache
    "shadow.ops_per_s": ("1/s", "higher"),
    "cache.factors_us": ("us", "lower"),
    # fabric.hb + fuzz
    "hb.overhead_x": ("ratio", "lower"),
    "fuzz.checks": ("count", "higher"),
    "fuzz.failed": ("count", "lower"),
    # analysis.*
    "lint.all_ms": ("ms", "lower"),
    "lint.corpus_ms": ("ms", "lower"),
    "races.ms": ("ms", "lower"),
    "protocol_mc.roots_ms": ("ms", "lower"),
    "statespace.states": ("count", "lower"),
    "statespace.transitions": ("count", "lower"),
    "statespace.states_per_s": ("1/s", "higher"),
    # plan.*
    "plan.matmul_ms": ("ms", "lower"),
    "plan.wavefront_ms": ("ms", "lower"),
    "plan.candidates": ("count", "higher"),
    # harness
    "host.calib_ms": ("ms", "lower"),
    "host.disturbed": ("count", "lower"),
    "trace_overhead_x": ("ratio", "lower"),
}
