"""The pipelined wavefront as navigational IR (analyzable form).

:mod:`repro.wavefront.navp` builds the pipelined stage from hand-written
messenger classes; this module states the same program in the IR so the
static analyses — protocol, locality, and especially the race detector
(:mod:`repro.analysis.races`) — can reason about it. The carrier is the
Figure-7 shape with the chain dependence the paper warns about made
explicit:

* carrier ``mr`` tours the column strips west-to-east;
* at each PE, row 0 starts from the boundary (no ``top``); every other
  row first waits ``BDONE(mr-1)`` and reads the bottom boundary row its
  predecessor published in ``bottom[mr-1]``;
* it solves its block (one ``wf_block`` kernel call returning
  ``(block, bottom row, right edge)``), publishes ``D[mr]`` and
  ``bottom[mr]``, carries the right edge east in an agent variable, and
  signals ``BDONE(mr)``.

The ``bottom[mr-1]`` read against the ``bottom[mr]`` write of the next
carrier instance is exactly the pair the race analyzer must prove
ordered — the wait/signal keyed handshake does it — while dropping the
``WaitStmt`` makes the same pair a reported race (the analyzer's
regression tests do precisely that edit).
"""

from __future__ import annotations

from ..fabric.factory import make_fabric
from ..fabric.topology import Grid1D
from ..machine.presets import SUN_BLADE_100
from ..navp import ir
from ..navp.kernels import KERNELS, register_kernel
from .navp import WavefrontResult, _gather, _layout
from .problem import WavefrontCase, block_flops, solve_block

__all__ = ["build_wavefront_ir", "build_wavefront_seq_ir",
           "run_wavefront_program", "WF_KERNEL"]

V = ir.Var
C = ir.Const

WF_KERNEL = "wf_block"


def _wf_block(w, top, medge, r, b):
    block = solve_block(w[r * b : (r + 1) * b, :], top=top, left=medge)
    return (block, block[-1, :], block[:, -1])


def _wf_block_flops(w, top, medge, r, b) -> float:
    return block_flops(b, w.shape[1])


if WF_KERNEL not in KERNELS:  # idempotent under re-import
    register_kernel(WF_KERNEL, _wf_block, _wf_block_flops)


def build_wavefront_ir(p: int, nblocks: int, b: int):
    """Register and return ``(main, carrier)`` for a ``p``-PE pipeline.

    Names carry the instance shape (``wf-pipe-3x4b16``) so differently
    sized builds coexist in the registry.
    """
    tag = f"{p}x{nblocks}b{b}"
    prev = ir.Bin("-", V("mr"), C(1))
    carrier = ir.register_program(ir.Program(
        f"wf-carrier-{tag}",
        (
            ir.Assign("medge", C(None)),
            ir.For("c", C(p), (
                ir.HopStmt((V("c"),)),
                ir.If(
                    ir.Bin("<", C(0), V("mr")),
                    then=(
                        ir.WaitStmt("BDONE", (prev,)),
                        ir.Assign("top", ir.NodeGet("bottom", (prev,))),
                    ),
                    orelse=(
                        ir.Assign("top", C(None)),
                    ),
                ),
                ir.ComputeStmt(
                    WF_KERNEL,
                    (ir.NodeGet("W"), V("top"), V("medge"),
                     V("mr"), C(b)),
                    out="res"),
                ir.NodeSet("D", (V("mr"),),
                           ir.Index(V("res"), (C(0),))),
                ir.NodeSet("bottom", (V("mr"),),
                           ir.Index(V("res"), (C(1),))),
                ir.Assign("medge", ir.Index(V("res"), (C(2),))),
                ir.SignalStmt("BDONE", (V("mr"),)),
            )),
        ),
        params=("mr",),
    ))
    main = ir.register_program(ir.Program(
        f"wf-pipe-{tag}",
        (
            ir.HopStmt((C(0),)),
            ir.For("r", C(nblocks), (
                ir.InjectStmt(carrier.name, (("mr", V("r")),)),
            )),
        ),
    ))
    return main, carrier


def build_wavefront_seq_ir(p: int, nblocks: int, b: int) -> ir.Program:
    """The *sequential* wavefront in the IR: one thread touring rows.

    This is the Figure-6-shaped starting point the planner and the
    keyed-pipelining transformation work from: a single messenger
    sweeps each row of blocks west to east, reading the bottom
    boundary row its previous sweep published in ``bottom[r-1]`` — the
    forward carried dependence (distance ``+1`` over ``r``) that the
    affine engine solves and keyed pipelining turns into the Figure-7
    wait/signal handshake. Running it on any fabric gives the golden
    answer the transformed suite must reproduce bit-identically.
    """
    tag = f"{p}x{nblocks}b{b}"
    prev = ir.Bin("-", V("r"), C(1))
    return ir.register_program(ir.Program(
        f"wf-seq-{tag}",
        (
            ir.For("r", C(nblocks), (
                ir.Assign("medge", C(None)),
                ir.For("c", C(p), (
                    ir.HopStmt((V("c"),)),
                    ir.If(
                        ir.Bin("<", C(0), V("r")),
                        then=(
                            ir.Assign("top",
                                      ir.NodeGet("bottom", (prev,))),
                        ),
                        orelse=(
                            ir.Assign("top", C(None)),
                        ),
                    ),
                    ir.ComputeStmt(
                        WF_KERNEL,
                        (ir.NodeGet("W"), V("top"), V("medge"),
                         V("r"), C(b)),
                        out="res"),
                    ir.NodeSet("D", (V("r"),),
                               ir.Index(V("res"), (C(0),))),
                    ir.NodeSet("bottom", (V("r"),),
                               ir.Index(V("res"), (C(1),))),
                    ir.Assign("medge", ir.Index(V("res"), (C(2),))),
                )),
            )),
        ),
    ))


def run_wavefront_program(
    main_name: str,
    case: WavefrontCase,
    p: int,
    machine=None,
    trace: bool = True,
    fabric: str = "sim",
    label: str | None = None,
) -> WavefrontResult:
    """Run any registered wavefront program against the strip layout.

    Works for the sequential IR, the hand-built pipeline and the
    keyed-pipelining output alike — which is what lets tests and the
    planner compare their ``d`` fields bit-for-bit.
    """
    from ..navp.interp import IRMessenger

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

