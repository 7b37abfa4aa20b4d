"""NavP derivation of the wavefront solver: sequential, DSC, pipelined.

The incremental chain, exactly as the paper's method prescribes, with
each stage one IR program (:mod:`repro.wavefront.irprog`) run through
the one runner, :func:`run_wavefront_program`:

1. **Sequential** — one PE fills the table block row by block row.
2. **DSC** — column strips of weights distributed over the chain; one
   thread traverses block rows west-to-east, carrying the right-edge
   column of the block it just solved (its agent variable). No events:
   a single thread cannot outrun its own writes.
3. **Pipelined** — pipelining of the DSC program: one carrier
   per block row, injected in order. The carriers now race: carrier R
   needs the bottom row that carrier R-1 writes at each PE, so a
   per-node event ``bottom-done(R-1)`` guards the read — the
   synchronization Section 2 warns becomes necessary.

There is deliberately **no phase-shifted stage**: carrier R's first
block (R, 0) already depends on carrier R-1's block (R-1, 0), so no
carrier may enter the pipeline anywhere but behind its predecessor.
``tests/test_wavefront.py`` shows the transformation framework's
dependence check refusing the rotation mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fabric.factory import make_fabric
from ..fabric.topology import Grid1D
from ..fabric.trace import TraceLog
from ..machine.presets import SUN_BLADE_100
from ..machine.spec import MachineSpec
from ..util.blocks import check_divides
from .irprog import (
    build_wavefront_ir,
    build_wavefront_seq_ir,
    build_wavefront_solo_ir,
)
from .problem import WavefrontCase, block_flops

__all__ = [
    "WavefrontResult",
    "run_wavefront_program",
    "run_sequential_wavefront",
    "run_dsc_wavefront",
    "run_pipelined_wavefront",
    "pipeline_time_model",
]


@dataclass
class WavefrontResult:
    variant: str
    case: WavefrontCase
    time: float
    d: object = None
    trace: TraceLog | None = None
    details: dict = field(default_factory=dict)


def _layout(fabric, case: WavefrontCase, p: int) -> None:
    """Column strips of the weight table; empty result stores."""
    w = case.weights()
    width = case.n // p
    for c in range(p):
        fabric.load(
            (c,),
            W=w[:, c * width : (c + 1) * width],
            D={},       # solved blocks, keyed by block-row index
            bottom={},  # bottom boundary rows, keyed by block-row index
        )


def _gather(result, case: WavefrontCase, p: int):
    if case.shadow:
        return None
    width = case.n // p
    out = np.empty((case.n, case.n))
    for c in range(p):
        blocks = result.places[(c,)]["D"]
        for r, block in blocks.items():
            out[r * case.b : (r + 1) * case.b,
                c * width : (c + 1) * width] = block
    return out


def run_wavefront_program(
    main_name: str,
    case: WavefrontCase,
    p: int,
    machine: MachineSpec | None = None,
    trace: bool = True,
    fabric: str = "sim",
    label: str | None = None,
) -> WavefrontResult:
    """Run a registered wavefront program against the strip layout.

    Every stage runs through here — which is what lets tests and the
    planner compare their ``d`` fields bit-for-bit.
    """
    from ..navp.interp import IRMessenger

    check_divides(case.n, p, "PE count")
    fab = make_fabric(fabric, Grid1D(p),
                      machine=machine if machine is not None
                      else SUN_BLADE_100,
                      trace=trace)
    _layout(fab, case, p)
    fab.inject((0,), IRMessenger(main_name))
    result = fab.run()
    return WavefrontResult(
        label or f"wavefront-ir:{main_name}", case, result.time,
        d=_gather(result, case, p), trace=result.trace,
        details={"pes": p, "carriers": case.nblocks})


def run_sequential_wavefront(
    case: WavefrontCase,
    machine: MachineSpec | None = None,
    trace: bool = True,
    fabric: str = "sim",
) -> WavefrontResult:
    main = build_wavefront_solo_ir(case.nblocks, case.b)
    result = run_wavefront_program(main.name, case, 1, machine, trace,
                                   fabric, "wavefront-sequential")
    result.details = {}
    return result


def run_dsc_wavefront(
    case: WavefrontCase,
    p: int,
    machine: MachineSpec | None = None,
    trace: bool = True,
    fabric: str = "sim",
) -> WavefrontResult:
    main = build_wavefront_seq_ir(p, case.nblocks, case.b)
    result = run_wavefront_program(main.name, case, p, machine, trace,
                                   fabric, "wavefront-dsc")
    result.details = {"pes": p}
    return result


def run_pipelined_wavefront(
    case: WavefrontCase,
    p: int,
    machine: MachineSpec | None = None,
    trace: bool = True,
    fabric: str = "sim",
) -> WavefrontResult:
    main, _carrier = build_wavefront_ir(p, case.nblocks, case.b)
    return run_wavefront_program(main.name, case, p, machine, trace,
                                 fabric, "wavefront-pipelined")


def pipeline_time_model(case: WavefrontCase, p: int,
                        machine: MachineSpec | None = None) -> float:
    """First-order makespan of the pipelined stage.

    ``R`` block rows over ``p`` PEs pipeline to ``(R + p - 1)`` block
    slots, plus one boundary-column hop per stage of the fill.
    """
    machine = machine if machine is not None else SUN_BLADE_100
    block = machine.flops_time(block_flops(case.b, case.n // p))
    hop = machine.network.message_time(case.b * machine.elem_size)
    return (case.nblocks + p - 1) * block + (p - 1) * hop
