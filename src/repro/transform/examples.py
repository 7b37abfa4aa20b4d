"""The paper's derivation chain, expressed in IR: Fig 2 -> 5 -> 7 -> 9.

:func:`sequential_program` builds Figure 2 as a navigational IR program
at the paper's fine granularity (``N == P``: one block entry per PE,
entries being ``ab x ab`` blocks). :func:`derive_chain` then applies
the three transformations mechanically and returns every stage together
with its data distribution — each stage is a runnable program, and each
is an improvement over its predecessor, which is the whole point of
incremental parallelization.

Node variable conventions (dictionaries keyed by block indices, so a
re-distribution changes only *which keys live where*, never the code):

* ``A``: ``{i: {k: block}}`` — row dictionaries, so a whole row is one
  agent pickup (``mA(*) = A(mi,*)``);
* ``B``: ``{(k, j): block}``;
* ``C``: ``{(i, j): block}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..navp import ir
from ..util.blocks import check_divides
from .dsc import DSCSpec, dsc
from .phase_shift import PhaseShiftSpec, phase_shift
from .pipeline import PipelinedSuite, PipelineSpec, pipelining

__all__ = [
    "sequential_program",
    "derive_chain",
    "derive_full_chain",
    "TransformChain",
    "FullChain2D",
    "split_a_rows",
    "split_b_blocks",
    "layout_sequential",
    "layout_dsc",
    "layout_phase",
]

V = ir.Var
C = ir.Const


def sequential_program(nb: int, name: str | None = None) -> ir.Program:
    """Figure 2 as IR: the plain triple loop over ``nb`` block entries."""
    a_row = ir.NodeGet("A", (V("mi"),))
    body = (
        ir.For("mi", C(nb), (
            ir.For("mj", C(nb), (
                # t = 0.0  (a zero block shaped like an A entry)
                ir.ComputeStmt("zeros_from",
                               (ir.Index(a_row, (C(0),)),), out="t",
                               kind="sequential"),
                # do k: t += A(mi,k) * B(k,mj)
                ir.For("k", C(nb), (
                    ir.ComputeStmt(
                        "gemm_acc",
                        (V("t"),
                         ir.Index(a_row, (V("k"),)),
                         ir.NodeGet("B", (V("k"), V("mj")))),
                        out="t",
                        kind="sequential",
                    ),
                )),
                # C(mi,mj) = t
                ir.NodeSet("C", (V("mi"), V("mj")), V("t")),
            )),
        )),
    )
    return ir.register_program(
        ir.Program(name or f"mm-seq-{nb}", body), replace=True)


@dataclass(frozen=True)
class TransformChain:
    """All four stages of the incremental parallelization."""

    nb: int
    sequential: ir.Program
    dsc: ir.Program
    pipelined: PipelinedSuite
    phased: PipelinedSuite


@dataclass(frozen=True)
class FullChain2D:
    """The whole journey, Figure 2 through Figure 15, derived."""

    g: int
    one_d: TransformChain        # Figures 2, 5, 7, 9
    dsc_2d: "object"             # Figure 11 (SecondDimSuite)
    pipelined_2d: "object"       # Figure 13 (CarriedSuite)
    phased_2d: "object"          # Figure 15 (CarriedSuite)


def derive_full_chain(g: int) -> FullChain2D:
    """Mechanically derive every stage of Sections 3.1-3.6."""
    from .carried import CarriedSpec, phase_shift_carried, pipeline_carried
    from .reduction import ReductionSpec, reassociate_reduction
    from .second_dim import SecondDimSpec, SecondDimSuite, second_dim

    one_d = derive_chain(g)
    dsc_2d = second_dim(one_d.phased, SecondDimSpec(g=g))
    reassociated = SecondDimSuite(
        main=dsc_2d.main,
        row_carrier=reassociate_reduction(dsc_2d.row_carrier,
                                          ReductionSpec()),
        col_carrier=dsc_2d.col_carrier,
    )
    spec = CarriedSpec(g=g)
    pipelined_2d = pipeline_carried(reassociated, spec)
    phased_2d = phase_shift_carried(pipelined_2d, spec)
    return FullChain2D(g=g, one_d=one_d, dsc_2d=dsc_2d,
                       pipelined_2d=pipelined_2d, phased_2d=phased_2d)


def derive_chain(nb: int) -> TransformChain:
    """Mechanically derive Figures 5, 7 and 9 from Figure 2."""
    seq = sequential_program(nb)

    # Figure 5: distribute the j dimension; carry the current A row.
    dsc_prog = dsc(seq, DSCSpec(
        loop="mj",
        place=(V("mj"),),
        carries={"mA": ir.NodeGet("A", (V("mi"),))},
        pickup_cond=ir.Bin("==", V("mj"), C(0)),
    ))

    # Figure 7: one RowCarrier per row, injected in order at node(0).
    pipelined = pipelining(dsc_prog, PipelineSpec(
        outer="mi",
        main_name=f"{dsc_prog.name}-pipe",
        carrier_name=f"mm-rowcarrier-{nb}",
        inject_at=(C(0),),
    ))

    # Figure 9: inject carrier mi at node(mi); rotate the tour to
    # node((N-1-mi+mj) % N) — the reverse staggering.
    schedule = ir.Bin(
        "%",
        ir.Bin("+", ir.Bin("-", C(nb - 1), V("mi")), V("mj")),
        C(nb),
    )
    phased = phase_shift(pipelined, PhaseShiftSpec(
        start_place=(V("mi"),),
        schedule=schedule,
        tour="mj",
    ))
    return TransformChain(nb=nb, sequential=seq, dsc=dsc_prog,
                          pipelined=pipelined, phased=phased)


# --------------------------------------------------------------------------
# data distributions for each stage
# --------------------------------------------------------------------------

def split_a_rows(a, nb: int) -> dict:
    """A as ``{i: {k: block}}`` row dictionaries."""
    check_divides(a.shape[0], nb, "block count")
    ab = a.shape[0] // nb
    return {
        i: {k: a[i * ab : (i + 1) * ab, k * ab : (k + 1) * ab]
            for k in range(nb)}
        for i in range(nb)
    }


def split_b_blocks(b, nb: int) -> dict:
    """B as ``{(k, j): block}``."""
    check_divides(b.shape[0], nb, "block count")
    ab = b.shape[0] // nb
    return {
        (k, j): b[k * ab : (k + 1) * ab, j * ab : (j + 1) * ab]
        for k in range(nb)
        for j in range(nb)
    }


def layout_sequential(a, b, nb: int) -> dict:
    """Everything on node(0) (the 1-PE starting point)."""
    return {(0,): {"A": split_a_rows(a, nb),
                   "B": split_b_blocks(b, nb), "C": {}}}


def layout_dsc(a, b, nb: int) -> dict:
    """Figures 4/6: A on node(0); B, C columns on node(j)."""
    rows = split_a_rows(a, nb)
    blocks = split_b_blocks(b, nb)
    layout: dict = {}
    for j in range(nb):
        layout[(j,)] = {
            "B": {key: blk for key, blk in blocks.items() if key[1] == j},
            "C": {},
        }
    layout[(0,)]["A"] = rows
    return layout


def layout_phase(a, b, nb: int) -> dict:
    """Figure 8 (pre-staggering): ``A(i,*)`` on node(i); B, C columns."""
    rows = split_a_rows(a, nb)
    layout = layout_dsc(a, b, nb)
    del layout[(0,)]["A"]
    for i in range(nb):
        layout[(i,)]["A"] = {i: rows[i]}
    return layout


def assemble_c(place_vars: dict, nb: int, ab: int, dtype=np.float64):
    """Merge the scattered ``C`` dictionaries back into a matrix."""
    out = np.empty((nb * ab, nb * ab), dtype=dtype)
    seen = set()
    for _coord, node_vars in place_vars.items():
        for (i, j), blk in node_vars.get("C", {}).items():
            out[i * ab : (i + 1) * ab, j * ab : (j + 1) * ab] = blk
            seen.add((i, j))
    if len(seen) != nb * nb:
        missing = {(i, j) for i in range(nb) for j in range(nb)} - seen
        raise ValueError(f"C is incomplete; missing blocks {sorted(missing)}")
    return out
