"""Re-record tests/goldens/mc_explore.json and mc_traces.json.

``mc_explore.json`` holds every exploration pass the model checker runs
for the listed systems, field for field: the counters, the peaks and the
full counterexample schedule. ``mc_traces.json`` holds every thread
trace extracted for them: label, program, spawner and each op (statement
path included) by ``repr``. Run only after a *deliberate* change to the
abstraction or the reduction; for pure performance work the goldens
must not move (``tests/test_analysis_statespace.py`` compares them byte
for byte).

A change to the reduction that keeps its soundness argument — a pruned
branch only reaches a state the DFS has already visited — may move only
``transitions``, ``eager_steps`` and ``naive_transitions``. In every
``interleave`` pass ``complete``, ``states``, ``terminals``, ``peaks``,
``inflight_peaks`` and ``deadlock`` (the full schedule) must come out
byte-identical, ``mc_traces.json`` must not move, and a ``gated`` pass
(full branching) must not move at all. The sleep sets moved the
transition total of all passes from 91 028 to 37 744 this way.

A ``mailbox@h`` pass answers one question, the peaks of ``h``'s
mailbox and of its in-edges, and stops where no descendant can beat
them. Its ``complete``, ``deadlock``, ``peaks[h]`` and the
``inflight_peaks`` of the edges into ``h`` must come out byte-identical;
its ``states``, ``terminals``, transition counters and the peaks of
other hosts and edges (lower bounds there) may move. The bound moved
the states of all passes from 4 600 to 1 369 and their transitions from
37 744 to 20 631 this way.

Usage::

    PYTHONPATH=src python tests/record_mc_goldens.py
"""

import json
from pathlib import Path

from repro.analysis import statespace
from repro.analysis.corpus import LIVENESS_CORPUS
from repro.analysis.lint import root_entry_coord, seed_paper_programs
from repro.analysis.protocol_mc import DEFAULT_WINDOW, model_check
from repro.navp import ir

PATH = Path(__file__).parent / "goldens" / "mc_explore.json"
TRACES_PATH = PATH.with_name("mc_traces.json")

PAPER_ROOTS = ("mm-seq-3-dsc-phase", "wf-pipe-3x4b4", "gent-main-3",
               "fig11-main-3", "fig15-main-3")
#: the admission verdicts one ``analysis_gate`` benchmark pass computes
VERDICT_SHAPES = (("navp-2d-dsc", 2), ("navp-2d-dsc", 3),
                  ("navp-2d-pipeline", 2), ("mpi-gentleman", 2),
                  ("mpi-gentleman", 3), ("navp-2d-phase", 3))


def _pass_name(explorer) -> str:
    if explorer.window is not None:
        return "gated"
    if explorer.lazy_host is not None:
        return "mailbox@%s" % (explorer.lazy_host,)
    return "interleave"


def _peaks(peaks: dict) -> dict:
    return {repr(k): v for k, v in sorted(peaks.items())}


def _trace(trace) -> dict:
    return {"label": trace.label, "program": trace.program,
            "spawner": trace.spawner,
            "ops": [repr(op) for op in trace.ops]}


def _passes(check) -> tuple:
    """Run ``check()``; return every pass it explored, by name, and the
    traces it extracted."""
    passes: dict = {}
    traces: list = []
    inner = statespace.Explorer.explore

    def explore(self):
        if not passes:
            traces.extend(_trace(t) for t in self.system.traces)
        res = inner(self)
        passes[_pass_name(self)] = {
            "complete": res.complete,
            "states": res.states,
            "transitions": res.transitions,
            "eager_steps": res.eager_steps,
            "naive_transitions": res.naive_transitions,
            "terminals": res.terminals,
            "peaks": _peaks(res.peaks),
            "inflight_peaks": _peaks(res.inflight_peaks),
            "deadlock": (None if res.deadlock is None
                         else res.deadlock.to_json()),
        }
        return res

    statespace.Explorer.explore = explore
    try:
        status = check().status
    finally:
        statespace.Explorer.explore = inner
    return {"status": status, "passes": passes}, traces


def record() -> tuple:
    """``(explore goldens, trace goldens)``, both keyed by system."""
    from repro.matmul.irgentleman import build_gentleman_ir
    from repro.serve.catalog import admission_verdict

    _layouts, contexts = seed_paper_programs(3)
    build_gentleman_ir(3)
    explored, traces = {}, {}
    for name in PAPER_ROOTS:
        ctx = contexts.get(name, {})
        entry = ctx.get("entry", root_entry_coord(ir.get_program(name)))
        system = "paper/" + name
        explored[system], traces[system] = _passes(lambda: model_check(
            name, entry=entry,
            initial_signals=ctx.get("initial_signals", ())))
    for program, g in VERDICT_SHAPES:   # uncached: every pass must run
        system = "verdict/%s/g%d" % (program, g)
        explored[system], traces[system] = _passes(
            lambda: admission_verdict.__wrapped__(program, g))
    for case in LIVENESS_CORPUS:
        system = "corpus/" + case.name
        explored[system], traces[system] = _passes(lambda: model_check(
            case.root, case.registry, entry=case.entry,
            places=case.places, initial_signals=case.initial_signals,
            window=case.window if case.window is not None
            else DEFAULT_WINDOW))
    return explored, traces


def render(goldens: dict) -> str:
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    goldens, traces = record()
    PATH.parent.mkdir(parents=True, exist_ok=True)
    PATH.write_text(render(goldens))
    TRACES_PATH.write_text(render(traces))
    n = sum(len(v["passes"]) for v in goldens.values())
    t = sum(len(v) for v in traces.values())
    print(f"recorded {n} passes and {t} traces of {len(goldens)} "
          f"systems -> {PATH}, {TRACES_PATH}")
