"""Gentleman's schedule as navigational IR (cross-fabric Table 3 peer).

:mod:`repro.matmul.gentleman` keeps the paper's message-passing
baseline as SPMD generator ranks, which confines it to the sim and
thread fabrics (generator frames cannot be pickled). This module
restates the *schedule* of Gentleman's algorithm — natural layout, PE
``(i, j)`` consuming operand pair ``k = (i + j + r) mod g`` in round
``r`` — in the navigational IR, so the same Table 3 comparison runs on
real OS processes and over real TCP sockets too.

The restatement is carrier-based, the NavP discipline applied to the
Gentleman data movement: instead of every rank shifting its tile west/
north each round, each block rides a messenger along the round
schedule:

* ``ACarrier(mi, mk)`` starts where ``A(mi, mk)`` lives, and in round
  ``r`` visits PE ``(mi, (mk - mi - r) mod g)`` — precisely the PE
  whose round-``r`` product needs that A block — depositing it in the
  keyed slot ``Aslot[r]`` and signalling ``EA(r)``;
* ``BCarrier(mk, mj)`` mirrors it down column ``mj`` via
  ``((mk - mj - r) mod g, mj)``, filling ``Bslot[r]`` / ``EB(r)``;
* a stationary ``Ranker`` on every PE consumes the slot pairs strictly
  in round order: ``C += Aslot[r] @ Bslot[r]`` for ``r = 0..g-1``.

Keying slots and events by the round makes the protocol order-free
(an early carrier can never overwrite an unconsumed block) while the
ranker's fixed ``r`` order keeps the floating-point accumulation
identical on every fabric — the cross-fabric tests assert the results
are *bit-identical*, not merely close.
"""

from __future__ import annotations

from ..navp import ir
from ..util.validation import random_matrix
from .ir2d import IR2DSuite, _accumulate_c, _matrix_layout, natural_layout

__all__ = ["build_gentleman_ir"]

V = ir.Var
C = ir.Const


def _tour(mine, other, r, g: int) -> ir.Expr:
    """``(other - mine - r) mod g`` — the round-r stop of a carrier."""
    return ir.Bin("%", ir.Bin("-", ir.Bin("-", other, mine), r), C(g))


def build_gentleman_ir(g: int, a=None, b=None, seed: int = 80,
                       ab: int = 8) -> IR2DSuite:
    if a is None:
        a = random_matrix(g * ab, seed)
        b = random_matrix(g * ab, seed + 1)

    a_carrier = ir.register_program(ir.Program(
        f"gent-acarrier-{g}",
        body=(
            ir.Assign("mA", ir.NodeGet("A")),
            ir.For("r", C(g), (
                ir.HopStmt((V("mi"),
                            _tour(V("mi"), V("mk"), V("r"), g))),
                ir.NodeSet("Aslot", (V("r"),), V("mA")),
                ir.SignalStmt("EA", (V("r"),)),
            )),
        ),
        params=("mi", "mk"),
    ), replace=True)

    b_carrier = ir.register_program(ir.Program(
        f"gent-bcarrier-{g}",
        body=(
            ir.Assign("mB", ir.NodeGet("B")),
            ir.For("r", C(g), (
                ir.HopStmt((_tour(V("mj"), V("mk"), V("r"), g),
                            V("mj"))),
                ir.NodeSet("Bslot", (V("r"),), V("mB")),
                ir.SignalStmt("EB", (V("r"),)),
            )),
        ),
        params=("mk", "mj"),
    ), replace=True)

    ranker = ir.register_program(ir.Program(
        f"gent-ranker-{g}",
        body=(
            ir.For("r", C(g), (
                ir.WaitStmt("EA", (V("r"),)),
                ir.WaitStmt("EB", (V("r"),)),
                # the keyed entry, not the whole slot dictionary: a
                # later round's carrier may be writing another key
                *_accumulate_c(
                    ir.NodeGet("Aslot", (V("r"),)),
                    ir.NodeGet("Bslot", (V("r"),)),
                ),
            )),
        ),
    ), replace=True)

    # One setup tour injects, at each PE (i, j): its ranker, the
    # carrier of the locally resident A(i, j) (an ACarrier with
    # mi=i, mk=j), and of B(i, j) (a BCarrier with mk=i, mj=j).
    entry = ir.register_program(ir.Program(
        f"gent-main-{g}",
        body=(
            ir.For("mi", C(g), (
                ir.For("mj", C(g), (
                    ir.HopStmt((V("mi"), V("mj"))),
                    ir.InjectStmt(ranker.name, ()),
                    ir.InjectStmt(a_carrier.name, (
                        ("mi", V("mi")), ("mk", V("mj")))),
                    ir.InjectStmt(b_carrier.name, (
                        ("mk", V("mi")), ("mj", V("mj")))),
                )),
            )),
        ),
    ), replace=True)

    return IR2DSuite(
        name="gentleman-ir", g=g, entry=entry,
        layout=_matrix_layout(natural_layout, a, b, g),
        programs=(entry, ranker, a_carrier, b_carrier),
    )
