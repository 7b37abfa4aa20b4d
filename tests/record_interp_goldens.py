"""Re-record tests/goldens/interp_trace.json from the current interpreter.

Every node access the IR interpreter reports to the dynamic race
checker's tap (:class:`repro.fabric.hb.InterpTap`), in order: the
program, the statement site ``(path, pc)``, the node variable, the key
(``None`` for a whole-store read) and whether it is a write. Covers the
racy corpus, the three 2-D IR suites (Figures 11/13/15, g=3) and the
keyed IR wavefront pipeline, each run once, unperturbed, on the
SimFabric. Run only after a *deliberate* change to what a program
reads or writes; a change to how the interpreter executes must not
move a byte (``tests/test_interp_compiled.py`` compares them). Usage::

    PYTHONPATH=src python tests/record_interp_goldens.py
"""

import json
from pathlib import Path

from repro.analysis.corpus import RACY_CORPUS
from repro.fabric import Grid1D, Grid2D, SimFabric, hb
from repro.fabric.fuzz import run_corpus_case
from repro.machine import FAST_TEST_MACHINE
from repro.matmul.ir2d import build_fig11, build_fig13, build_fig15
from repro.navp.interp import IRMessenger
from repro.wavefront.irprog import build_wavefront_ir
from repro.wavefront.navp import _layout
from repro.wavefront.problem import WavefrontCase

PATH = Path(__file__).parent / "goldens" / "interp_trace.json"

SUITES = (("fig11", build_fig11), ("fig13", build_fig13),
          ("fig15", build_fig15))
G = 3


def _tapped(run) -> list:
    """Every access ``run()`` reports, one line each:
    ``program site var key R|W``."""
    events: list = []
    inner = hb.InterpTap._record

    def record(self, var, key, write):
        events.append(f"{self.program} {self.site!r} {var} {key!r} "
                      f"{'W' if write else 'R'}")
        return inner(self, var, key, write)

    hb.InterpTap._record = record
    try:
        run()
    finally:
        hb.InterpTap._record = inner
    return events


def run_suite_race_checked(suite, perturb_seed=None) -> list:
    """One SimFabric run of a 2-D IR suite with the happens-before
    checker on; returns the races it found."""
    fabric = SimFabric(Grid2D(suite.g), machine=FAST_TEST_MACHINE,
                       trace=False, race_check=True,
                       perturb_seed=perturb_seed)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    fabric.run()
    return fabric.hb.races


def run_wavefront_race_checked(p: int = 3, n: int = 12, b: int = 3) -> None:
    """The keyed IR wavefront pipeline (``bottom[mr-1]`` reads)."""
    main, _carrier = build_wavefront_ir(p, n // b, b)
    fabric = SimFabric(Grid1D(p), machine=FAST_TEST_MACHINE,
                       trace=False, race_check=True)
    _layout(fabric, WavefrontCase(n=n, b=b), p)
    fabric.inject((0,), IRMessenger(main.name))
    fabric.run()


def record() -> dict:
    out: dict = {}
    for case in RACY_CORPUS:
        out["corpus/" + case.name] = _tapped(lambda: run_corpus_case(case))
    for label, build in SUITES:
        suite = build(G)
        out["%s-g%d" % (label, G)] = _tapped(
            lambda: run_suite_race_checked(suite))
    out["wavefront"] = _tapped(run_wavefront_race_checked)
    return out


def render(goldens: dict) -> str:
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    goldens = record()
    PATH.parent.mkdir(parents=True, exist_ok=True)
    PATH.write_text(render(goldens))
    n = sum(len(v) for v in goldens.values())
    print(f"recorded {n} accesses of {len(goldens)} runs -> {PATH}")
