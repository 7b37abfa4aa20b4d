#!/usr/bin/env python3
"""Compare two *sets* of benchmark result files.

    python3 bench/compare.py A_DIR B_DIR

``A_DIR`` holds the parent's runs and ``B_DIR`` the change's (result
files are found recursively, so ``--out A_DIR/run1``, ``A_DIR/run2``,
... builds a set). For every end-to-end metric on every workload that
exercises it, one row gives each set's median and quartiles, the change
of the median as a share of A's median (the base is printed), the share
of (A run, B run) pairs the change wins, and a verdict:

``worse``       B's median is worse than A's by more than the metric's
                bound, and the sets are steady enough to say so
``unresolved``  either set's inter-quartile spread exceeds the bound,
                so "no regression" cannot be claimed — unless every B
                run reads better than every A run
``better``      every B run beats every A run, or the median improved
                by more than the bound on steady sets
``ok``          within the bound

Counters that must repeat exactly (traced files, when both sets have
them) are compared for identity. Exit status: 1 if any row is ``worse``
or an exact counter moved or the change fails more operations, 2 on
unusable input (no files, ``--quick`` results), else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import metrics as catalogue

#: Per-layer counters that repeat exactly on one commit. (Not
#: ``ledger.appends`` on serve_data: its ``ckpt`` records follow the cut
#: commits, which race the end of the job.)
EXACT = ("desim.events", "tables.cells", "interp.stmts_per_job",
         "statespace.states", "statespace.transitions",
         "kernels.calls_per_job", "sim.hops", "sim.computes", "sim.bytes",
         "plan.candidates", "fuzz.checks")
EXACT_ON = {"ledger.appends": ("serve_ctl",)}


def load_set(root: str) -> dict:
    """``{"runs": workload -> [payload], "traces": workload -> [payload]}``
    from every result file under ``root``."""
    found = {"runs": {}, "traces": {}}
    for base, _dirs, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".json") or name.startswith("trace_"):
                continue    # trace_<workload>.json holds spans
            try:
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict) or "workload" not in payload:
                continue
            if payload["conditions"]["quick"]:
                raise SystemExit(
                    f"compare: {os.path.join(base, name)} is a --quick "
                    f"result; quick runs smoke the harness and are not "
                    f"comparable")
            kind = "traces" if payload["conditions"]["traced"] else "runs"
            found[kind].setdefault(payload["workload"], []).append(payload)
    return found


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(a: list, b: list, better: str, bound: float) -> dict:
    """The guide's rule for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[1] - qa[0]) / abs(med_a), (qb[1] - qb[0]) / abs(med_b))
    worsening = sign * (med_b - med_a) / abs(med_a)
    wins = sum(1 for x in a for y in b if sign * (y - x) < 0)
    losses = sum(1 for x in a for y in b if sign * (y - x) > 0)
    decided = wins + losses
    all_better = losses == 0 and wins > 0
    if all_better:
        verdict = "better"
    elif spread > bound:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif worsening < -bound:
        verdict = "better"
    else:
        verdict = "ok"
    return {"med_a": med_a, "qa": qa, "med_b": med_b, "qb": qb,
            "change": (med_b - med_a) / abs(med_a), "spread": spread,
            "win_share": wins / decided if decided else 0.5,
            "verdict": verdict}


def fmt(med: float, q: tuple, n: int) -> str:
    return f"{med:.5g} [{q[0]:.5g}, {q[1]:.5g}] ({n})"


def gated(workload: str) -> list:
    """(name, unit, better, bound) of every gated metric of a workload."""
    rows = [(name, unit, better, bounds[workload])
            for name, (unit, better, bounds) in catalogue.NAMED.items()
            if workload in bounds]
    rows += [(name, unit, better, bound)
             for name, (unit, better, bound) in catalogue.DENSE.items()
             if name not in catalogue.NAMED]
    return rows


def values_of(payloads: list, name: str) -> list:
    out = []
    for payload in payloads:
        cell = payload["end_to_end"].get(name) or payload["dense"].get(name)
        if cell is not None and cell["value"] is not None:
            out.append(cell["value"])
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    workloads = [w for w in catalogue.WORKLOADS
                 if w in set_a["runs"] and w in set_b["runs"]]
    if not workloads:
        print("compare: the two sets share no workload", file=sys.stderr)
        return 2

    status = 0
    tally = {"ok": 0, "better": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<15}{'metric':<26}{'A median [q1, q3] (n)':<36}"
          f"{'B median [q1, q3] (n)':<36}{'change (of A median)':<28}"
          f"{'bound':>6} {'B wins':>7}  verdict")
    for workload in workloads:
        runs_a, runs_b = set_a["runs"][workload], set_b["runs"][workload]
        for name, unit, better, bound in gated(workload):
            a, b = values_of(runs_a, name), values_of(runs_b, name)
            if not a or not b:
                continue
            row = judge(a, b, better, bound)
            tally[row["verdict"]] += 1
            if row["verdict"] == "worse":
                status = 1

            change = (f"{row['change'] * 100:+.2f}% of {row['med_a']:.5g} "
                      f"{unit}")
            print(f"{workload:<15}{name:<26}"
                  f"{fmt(row['med_a'], row['qa'], len(a)):<36}"
                  f"{fmt(row['med_b'], row['qb'], len(b)):<36}"
                  f"{change:<28}{bound * 100:>5.0f}% "
                  f"{row['win_share'] * 100:>6.0f}%  {row['verdict']}"
                  f"{' (spread %.1f%%)' % (row['spread'] * 100) if row['verdict'] == 'unresolved' else ''}")
        failed_a = max(p["ops_failed"] for p in runs_a)
        failed_b = max(p["ops_failed"] for p in runs_b)
        attempted = max(p["ops_attempted"] for p in runs_b)
        print(f"{workload:<15}{'ops_failed':<26}{failed_a:<36}{failed_b:<36}"
              f"of {attempted} attempted")
        if failed_b > failed_a:
            status = 1

    for workload in catalogue.WORKLOADS:
        traces = set_a["traces"].get(workload, []) \
            + set_b["traces"].get(workload, [])
        if not (workload in set_a["traces"] and workload in set_b["traces"]):
            continue
        names = EXACT + tuple(name for name, where in EXACT_ON.items()
                              if workload in where)
        for name in names:
            seen = {p["per_layer"][name]["value"] for p in traces
                    if name in p["per_layer"]}
            if len(seen) > 1:
                status = 1
                print(f"{workload:<15}{name:<26}exact counter moved: "
                      f"{sorted(seen)}")
            elif seen:
                print(f"{workload:<15}{name:<26}exact: {seen.pop()} in all "
                      f"{len(traces)} traced runs")

    print(f"\n{tally['ok']} ok, {tally['better']} better, "
          f"{tally['worse']} worse, {tally['unresolved']} unresolved")
    if tally["unresolved"]:
        print("unresolved rows are not 'unchanged': take more runs, or fix "
              "the metric's statistic or bound in its own change")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
