"""The wavefront stages as navigational IR — the only form they have.

Every stage is one registered program over the column-strip layout of
:mod:`repro.wavefront.navp`, and each follows mechanically from the
one before it:

* :func:`build_wavefront_solo_ir` — the sequential stage: one PE fills
  the table block row by block row, with no hops;
* :func:`build_wavefront_seq_ir` — DSC: one thread sweeps each row of
  blocks west to east over ``p`` PEs, carrying the right edge of the
  block it just solved in an agent variable and reading the bottom
  boundary row its previous sweep published in ``bottom[r-1]``;
* :func:`build_wavefront_ir` — the pipelined stage, *derived* from the
  DSC program by pipelining
  (:mod:`repro.transform.pipeline`): the row loop becomes one
  carrier per block row, and the ``bottom[r-1]`` read — a forward
  carried flow dependence of distance ``+1`` — gets a
  ``wait bottom-done(r-1)`` before it and a ``signal bottom-done(r)``
  after the ``bottom[r]`` write. That handshake is the
  synchronization the paper's Section 2 says pipelining may need; the
  race detector (:mod:`repro.analysis.races`) proves it orders the
  pair, and dropping the wait makes the pair a reported race.
"""

from __future__ import annotations

from ..navp import ir
from ..navp.kernels import KERNELS, register_kernel
from .problem import block_flops, solve_block

__all__ = ["build_wavefront_ir", "build_wavefront_seq_ir",
           "build_wavefront_solo_ir", "WF_KERNEL"]

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


def _visit(b: int) -> tuple:
    """Solve this PE's block of row ``r``: read ``bottom[r-1]`` (row 0
    starts from the boundary), publish ``D[r]`` and ``bottom[r]``, and
    carry the right edge on in ``medge``."""
    prev = ir.Bin("-", V("r"), C(1))
    return (
        ir.If(
            ir.Bin("<", C(0), V("r")),
            then=(ir.Assign("top", ir.NodeGet("bottom", (prev,))),),
            orelse=(ir.Assign("top", C(None)),),
        ),
        ir.ComputeStmt(
            WF_KERNEL,
            (ir.NodeGet("W"), V("top"), V("medge"), V("r"), C(b)),
            out="res"),
        ir.NodeSet("D", (V("r"),), ir.Index(V("res"), (C(0),))),
        ir.NodeSet("bottom", (V("r"),), ir.Index(V("res"), (C(1),))),
        ir.Assign("medge", ir.Index(V("res"), (C(2),))),
    )


def build_wavefront_solo_ir(nblocks: int, b: int) -> ir.Program:
    """The sequential stage: the whole table on the PE it starts on."""
    return ir.register_program(ir.Program(
        f"wf-solo-{nblocks}b{b}",
        (
            ir.For("r", C(nblocks),
                   (ir.Assign("medge", C(None)),) + _visit(b)),
        ),
    ))


def build_wavefront_seq_ir(p: int, nblocks: int, b: int) -> ir.Program:
    """The DSC stage: one thread touring each row of blocks.

    This is the Figure-6-shaped starting point the planner and
    pipelining work from. Running it on any fabric gives the golden
    answer the pipelined suite must reproduce bit-identically.
    """
    return ir.register_program(ir.Program(
        f"wf-seq-{p}x{nblocks}b{b}",
        (
            ir.For("r", C(nblocks), (
                ir.Assign("medge", C(None)),
                ir.For("c", C(p), (ir.HopStmt((V("c"),)),) + _visit(b)),
            )),
        ),
    ))


def build_wavefront_ir(p: int, nblocks: int, b: int):
    """Register and return ``(main, carrier)`` for a ``p``-PE pipeline.

    Pipelining of :func:`build_wavefront_seq_ir`, registered as
    ``wf-pipe-{tag}`` and ``wf-carrier-{tag}`` (``tag`` is the instance
    shape, e.g. ``3x4b16``) so differently sized builds coexist.
    """
    from ..transform.pipeline import PipelineSpec, pipelining

    tag = f"{p}x{nblocks}b{b}"
    suite = pipelining(build_wavefront_seq_ir(p, nblocks, b), PipelineSpec(
        outer="r",
        main_name=f"wf-pipe-{tag}",
        carrier_name=f"wf-carrier-{tag}",
        inject_at=(C(0),),
    ))
    return suite.main, suite.carrier
