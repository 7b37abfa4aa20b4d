"""The smoke tripwire: four in-process, sub-second benches.

``bench/`` is where the repo measures speed (medians, host calibration,
oracles, ``bench/compare.py``); ``pytest`` never runs it. These four
exist so that a broken engine or interpreter — or one that silently
became an order of magnitude slower — fails tier 1 and the CI
"Performance smoke" step. None opens a socket, forks or fsyncs, and
their numbers are not comparable across days (docs/performance.md).

Each benchmark is a function ``fn(smoke: bool) -> dict`` registered in
:data:`BENCHES`. The returned dict carries ``wall_s``, ``events``
(workload-specific unit: DES events, interpreter statements, pickle
round-trips) and ``events_per_sec``; anything worth keeping for later
inspection goes under ``meta``.

The workloads are frozen: the committed snapshot
(``benchmarks/out/BENCH_2026-09-30.json``) was recorded at these sizes.

Suite members (and the ``bench/`` metric that measures the same layer)
----------------------------------------------------------------------
``table1_shadow``      the full Table 1 shadow-mode sweep (1-D NavP +
                       ScaLAPACK, six matrix orders) — ``table_sweep``
                       ``sweep_s``
``table3_shadow``      the full Table 3 shadow-mode sweep (2-D NavP,
                       MPI Gentleman, SUMMA) — ``table_sweep``
                       ``sweep_s``, ``desim.events``
``interp_throughput``  navigational-IR statement dispatch, no fabric —
                       ``interp.ns_per_stmt``
``pickle_roundtrip``   the hop payload: snapshot -> pickle -> restore —
                       ``interp.snapshot_us``
"""

from __future__ import annotations

import pickle
import time

__all__ = ["BENCHES", "run_suite"]

BENCHES: dict = {}


def _bench(name: str):
    def deco(fn):
        BENCHES[name] = fn
        return fn
    return deco


# --------------------------------------------------------------------------
# Table shadow-mode sweeps
# --------------------------------------------------------------------------

def _bench_table(builder, smoke_orders, smoke: bool) -> dict:
    from ..fabric.desim import PERF_STATS

    before = PERF_STATS["events"]
    t0 = time.perf_counter()
    comparison = builder(orders=smoke_orders if smoke else None)
    wall = time.perf_counter() - t0
    events = PERF_STATS["events"] - before
    cells = sum(len(row.cells) for row in comparison.rows)
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall,
        "meta": {"cells": cells, "rows": len(comparison.rows)},
    }


@_bench("table1_shadow")
def bench_table1_shadow(smoke: bool = False) -> dict:
    """Table 1 (1-D variants, 3 PEs) rebuilt end to end in shadow mode."""
    from ..perfmodel.tables import build_table1
    return _bench_table(build_table1, (1536,), smoke)


@_bench("table3_shadow")
def bench_table3_shadow(smoke: bool = False) -> dict:
    """Table 3 (2-D variants, 3x3 grid) rebuilt end to end in shadow
    mode."""
    from ..perfmodel.tables import build_table3
    return _bench_table(build_table3, (1024,), smoke)


# --------------------------------------------------------------------------
# Interpreter throughput
# --------------------------------------------------------------------------

_INTERP_LOOP = 400          # iterations of the benchmark program's For
_INTERP_STMTS_PER_ITER = 5  # For bookkeeping + Assign + If + branch + Signal


def _interp_program():
    """A pinned IR program mixing free statements and signal actions."""
    from ..navp import ir

    body = (
        ir.For("i", ir.Const(_INTERP_LOOP), (
            ir.Assign("t", ir.Bin("+", ir.Bin("*", ir.Var("i"),
                                              ir.Const(3)), ir.Const(1))),
            ir.If(ir.Bin("==", ir.Bin("%", ir.Var("i"), ir.Const(2)),
                         ir.Const(0)),
                  then=(ir.NodeSet("acc",
                                   (ir.Bin("%", ir.Var("i"), ir.Const(8)),),
                                   ir.Var("t")),),
                  orelse=(ir.Assign("u", ir.Bin("+", ir.Var("t"),
                                                ir.Var("i"))),)),
            ir.SignalStmt("EP", (ir.Var("i"),)),
        )),
    )
    return ir.register_program(
        ir.Program("__bench_interp__", body=body), replace=True)


@_bench("interp_throughput")
def bench_interp_throughput(smoke: bool = False) -> dict:
    """Drive :meth:`Interp.next_action` through the pinned program,
    consuming signal actions inline — pure statement dispatch, no DES."""
    from ..navp.interp import Interp

    _interp_program()
    reps = 20 if smoke else 120
    t0 = time.perf_counter()
    actions = 0
    for _ in range(reps):
        interp = Interp("__bench_interp__")
        node_vars: dict = {}
        while interp.next_action(node_vars) is not None:
            actions += 1
    wall = time.perf_counter() - t0
    statements = reps * _INTERP_LOOP * _INTERP_STMTS_PER_ITER
    return {
        "wall_s": wall,
        "events": statements,
        "events_per_sec": statements / wall,
        "meta": {"reps": reps, "actions": actions},
    }


# --------------------------------------------------------------------------
# Hop-payload pickle round-trip
# --------------------------------------------------------------------------

def _migration_program():
    from ..navp import ir

    body = (
        ir.For("mi", ir.Const(64), (
            ir.For("mk", ir.Const(8), (
                ir.Assign("t", ir.Bin("+", ir.Var("mi"), ir.Var("mk"))),
                ir.HopStmt((ir.Bin("%", ir.Var("t"), ir.Const(4)),)),
            )),
        )),
    )
    return ir.register_program(
        ir.Program("__bench_hop__", body=body), replace=True)


@_bench("pickle_roundtrip")
def bench_pickle_roundtrip(smoke: bool = False) -> dict:
    """What every ProcessFabric hop pays: snapshot the continuation,
    pickle it, unpickle it, rebuild the interpreter."""
    from ..navp.interp import Interp

    _migration_program()
    reps = 300 if smoke else 3000
    interp = Interp("__bench_hop__", {
        "n": 64, "row": 3, "col": 5, "payload": list(range(32)),
    })
    action = interp.next_action({})  # park mid-loop, stack depth 3
    assert action is not None and action[0] == "hop"
    t0 = time.perf_counter()
    nbytes = 0
    for _ in range(reps):
        blob = pickle.dumps(interp.agent_snapshot(),
                            protocol=pickle.HIGHEST_PROTOCOL)
        nbytes = len(blob)
        Interp.from_snapshot(pickle.loads(blob))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "events": reps,
        "events_per_sec": reps / wall,
        "meta": {"snapshot_bytes": nbytes},
    }


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def run_suite(smoke: bool = False, only=None, repeats: int = 3) -> dict:
    """Run the pinned suite; returns ``{name: result_dict}``.

    ``only`` restricts to a subset of benchmark names; an unknown name
    raises KeyError before anything runs, so a typo fails loudly rather
    than silently skipping.

    Each benchmark runs ``repeats`` times and keeps the fastest run —
    the workload is deterministic, so the minimum wall time is the
    least-interference measurement.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    benches = {name: BENCHES[name] for name in (only or BENCHES)}
    return {
        name: min((fn(smoke) for _ in range(repeats)),
                  key=lambda res: res["wall_s"])
        for name, fn in benches.items()
    }
