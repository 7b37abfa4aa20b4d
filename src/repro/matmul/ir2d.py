"""The 2-D NavP matmul stages as navigational IR — Figures 11, 13, 15.

The hand-written generator messengers in :mod:`repro.matmul.navp2d` are
the workhorses for the performance tables; these IR builders express
the same three programs as pure data, which is what lets them migrate
between *real OS processes* on the
:class:`~repro.fabric.process.ProcessFabric` (a live generator frame
cannot be pickled; an IR continuation can).

Granularity is the paper's fine-grained presentation (``N == P``): one
block entry per PE, carriers carrying single ``ab x ab`` blocks, with
the event protocols exactly as printed:

* Figure 11 — ``RowCarrier``/``ColCarrier`` with a one-shot ``EP``;
* Figure 13 — ``ACarrier``/``BCarrier`` per k with the ``EP``/``EC``
  slot handshake, ``EC`` signalled initially on every node;
* Figure 15 — natural layout, spawners walking the columns, the
  rotated ``(N-1-mi-mk+mj) % N`` schedules doing the reverse
  staggering implicitly.

Each builder registers its programs under ``g``-specific names and
returns a :class:`IR2DSuite` bundling the entry program, the initial
layout, and any initial event signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FabricError
from ..fabric.factory import make_fabric
from ..fabric.topology import Grid2D
from ..machine.spec import MachineSpec
from ..navp import ir
from ..util.validation import random_matrix

__all__ = ["IR2DSuite", "build_fig11", "build_fig13", "build_fig15",
           "run_ir2d_suite", "assemble_product", "matrix_blocks",
           "natural_layout", "antidiagonal_layout"]

V = ir.Var
C = ir.Const


def _mod(expr, g: int) -> ir.Expr:
    return ir.Bin("%", expr, C(g))


def _sub(a, b) -> ir.Expr:
    return ir.Bin("-", a, b)


def _add(a, b) -> ir.Expr:
    return ir.Bin("+", a, b)


@dataclass(frozen=True)
class IR2DSuite:
    """One 2-D stage: entry program + data layout + initial events."""

    name: str
    g: int
    entry: ir.Program
    layout: dict                     # coord -> {var: value builder info}
    initial_signals: tuple = ()      # (coord, event, args, count)
    programs: tuple = ()


# A layout rule places blocks on PEs. It reads them from a *block
# source*, ``block(matrix, i, j)`` -> the ``ab x ab`` block ``(i, j)`` of
# ``"A"`` or ``"B"``, and lays out only the PEs in ``coords`` (all of
# them by default), so a host can lay out just its own PEs from blocks
# it generates itself (:func:`repro.serve.catalog.job_loads`).

def matrix_blocks(a, b, g: int):
    """The block source over two whole matrices (blocks are views)."""
    ab = a.shape[0] // g
    whole = {"A": a, "B": b}
    return lambda matrix, i, j: whole[matrix][
        i * ab : (i + 1) * ab, j * ab : (j + 1) * ab]


def _coords(g: int, coords):
    """``coords``, or every PE of the ``g x g`` grid."""
    if coords is None:
        return [(i, j) for i in range(g) for j in range(g)]
    return coords


def natural_layout(block, g: int, ab: int, coords=None,
                   dtype=np.float64) -> dict:
    """Figure 15 and Gentleman: ``A(i, j)``, ``B(i, j)`` and a zeroed
    ``C`` on PE ``(i, j)``."""
    return {
        (i, j): {
            "A": block("A", i, j),
            "B": block("B", i, j),
            "C": np.zeros((ab, ab), dtype=dtype),
        }
        for i, j in _coords(g, coords)
    }


def antidiagonal_layout(block, g: int, ab: int, coords=None,
                        dtype=np.float64) -> dict:
    """Figures 10/12: row dicts of A and column dicts of B on the
    anti-diagonal; zeroed C everywhere."""
    layout: dict = {}
    for i, j in _coords(g, coords):
        node = layout[(i, j)] = {"C": np.zeros((ab, ab), dtype=dtype)}
        if i == g - 1 - j:
            node["Arow"] = {k: block("A", i, k) for k in range(g)}
            node["Bcol"] = {k: block("B", k, j) for k in range(g)}
    return layout


def _matrix_layout(rule, a, b, g: int) -> dict:
    """``rule`` over the blocks of two whole matrices."""
    return rule(matrix_blocks(a, b, g), g, a.shape[0] // g, dtype=a.dtype)


def _accumulate_c(a_expr: ir.Expr, b_expr: ir.Expr) -> tuple:
    """C = C + a @ b as IR statements (C is the local block)."""
    return (
        ir.ComputeStmt("gemm_acc", (ir.NodeGet("C"), a_expr, b_expr),
                       out="cnew"),
        ir.NodeSet("C", (), V("cnew")),
    )


# --------------------------------------------------------------------------
# Figure 11 — DSC in the second dimension
# --------------------------------------------------------------------------

def build_fig11(g: int, a=None, b=None, seed: int = 50,
                ab: int = 8) -> IR2DSuite:
    if a is None:
        a = random_matrix(g * ab, seed)
        b = random_matrix(g * ab, seed + 1)

    row_tour = _mod(_add(_sub(C(g - 1), V("mi")), V("mj")), g)
    col_tour = _mod(_add(_sub(C(g - 1), V("mj")), V("mi")), g)

    row_carrier = ir.register_program(ir.Program(
        f"fig11-rowcarrier-{g}",
        body=(
            ir.Assign("mA", ir.NodeGet("Arow")),      # mA(*) = A(*)
            ir.For("mj", C(g), (
                ir.HopStmt((V("mi"), row_tour)),
                ir.WaitStmt("EP"),
                ir.For("k", C(g), _accumulate_c(
                    ir.Index(V("mA"), (V("k"),)),
                    ir.Index(ir.NodeGet("B"), (V("k"),)),
                )),
            )),
        ),
        params=("mi",),
    ), replace=True)

    col_carrier = ir.register_program(ir.Program(
        f"fig11-colcarrier-{g}",
        body=(
            ir.Assign("mB", ir.NodeGet("Bcol")),      # mB(*) = B(*)
            ir.For("mi", C(g), (
                ir.HopStmt((col_tour, V("mj"))),
                ir.NodeSet("B", (), V("mB")),         # B(*) = mB(*)
                ir.SignalStmt("EP"),
            )),
        ),
        params=("mj",),
    ), replace=True)

    entry = ir.register_program(ir.Program(
        f"fig11-main-{g}",
        body=(
            ir.For("ml", C(g), (
                ir.HopStmt((_sub(C(g - 1), V("ml")), V("ml"))),
                ir.InjectStmt(row_carrier.name,
                              (("mi", _sub(C(g - 1), V("ml"))),)),
                ir.InjectStmt(col_carrier.name, (("mj", V("ml")),)),
            )),
        ),
    ), replace=True)

    return IR2DSuite(
        name="fig11", g=g, entry=entry,
        layout=_matrix_layout(antidiagonal_layout, a, b, g),
        programs=(entry, row_carrier, col_carrier),
    )


# --------------------------------------------------------------------------
# Figure 13 — pipelining in both dimensions
# --------------------------------------------------------------------------

def build_fig13(g: int, a=None, b=None, seed: int = 60,
                ab: int = 8) -> IR2DSuite:
    if a is None:
        a = random_matrix(g * ab, seed)
        b = random_matrix(g * ab, seed + 1)

    a_tour = _mod(_add(_sub(C(g - 1), V("mi")), V("mj")), g)
    b_tour = _mod(_add(_sub(C(g - 1), V("mj")), V("mi")), g)

    a_carrier = ir.register_program(ir.Program(
        f"fig13-acarrier-{g}",
        body=(
            ir.Assign("mA", ir.Index(ir.NodeGet("Arow"), (V("mk"),))),
            ir.For("mj", C(g), (
                ir.HopStmt((V("mi"), a_tour)),
                ir.WaitStmt("EP", (V("mk"),)),
                *_accumulate_c(V("mA"), ir.NodeGet("Bslot")),
                ir.SignalStmt("EC"),
            )),
        ),
        params=("mi", "mk"),
    ), replace=True)

    b_carrier = ir.register_program(ir.Program(
        f"fig13-bcarrier-{g}",
        body=(
            ir.Assign("mB", ir.Index(ir.NodeGet("Bcol"), (V("mk"),))),
            ir.For("mi", C(g), (
                ir.HopStmt((b_tour, V("mj"))),
                ir.WaitStmt("EC"),
                ir.NodeSet("Bslot", (), V("mB")),
                ir.SignalStmt("EP", (V("mk"),)),
            )),
        ),
        params=("mk", "mj"),
    ), replace=True)

    spawner = ir.register_program(ir.Program(
        f"fig13-spawner-{g}",
        body=(
            ir.For("mk", C(g), (
                ir.InjectStmt(a_carrier.name, (
                    ("mi", _sub(C(g - 1), V("ml"))), ("mk", V("mk")))),
                ir.InjectStmt(b_carrier.name, (
                    ("mk", V("mk")), ("mj", V("ml")))),
            )),
        ),
        params=("ml",),
    ), replace=True)

    entry = ir.register_program(ir.Program(
        f"fig13-main-{g}",
        body=(
            ir.For("ml", C(g), (
                ir.HopStmt((_sub(C(g - 1), V("ml")), V("ml"))),
                ir.InjectStmt(spawner.name, (("ml", V("ml")),)),
            )),
        ),
    ), replace=True)

    signals = tuple(
        ((i, j), "EC", (), 1) for i in range(g) for j in range(g)
    )
    return IR2DSuite(
        name="fig13", g=g, entry=entry,
        layout=_matrix_layout(antidiagonal_layout, a, b, g),
        initial_signals=signals,
        programs=(entry, spawner, a_carrier, b_carrier),
    )


# --------------------------------------------------------------------------
# Figure 15 — full DPC: phase shifting in both dimensions
# --------------------------------------------------------------------------

def build_fig15(g: int, a=None, b=None, seed: int = 70,
                ab: int = 8) -> IR2DSuite:
    if a is None:
        a = random_matrix(g * ab, seed)
        b = random_matrix(g * ab, seed + 1)

    a_tour = _mod(_add(_sub(_sub(C(g - 1), V("mi")), V("mk")), V("mj")), g)
    b_tour = _mod(_add(_sub(_sub(C(g - 1), V("mj")), V("mk")), V("mi")), g)

    a_carrier = ir.register_program(ir.Program(
        f"fig15-acarrier-{g}",
        body=(
            ir.Assign("mA", ir.NodeGet("A")),           # mA = A
            ir.For("mj", C(g), (
                ir.HopStmt((V("mi"), a_tour)),
                ir.WaitStmt("EP", (V("mk"),)),
                *_accumulate_c(V("mA"), ir.NodeGet("Bslot")),
                ir.SignalStmt("EC"),
            )),
        ),
        params=("mi", "mk"),
    ), replace=True)

    b_carrier = ir.register_program(ir.Program(
        f"fig15-bcarrier-{g}",
        body=(
            ir.Assign("mB", ir.NodeGet("B")),           # mB = B
            ir.For("mi", C(g), (
                ir.HopStmt((b_tour, V("mj"))),
                ir.WaitStmt("EC"),
                ir.NodeSet("Bslot", (), V("mB")),
                ir.SignalStmt("EP", (V("mk"),)),
            )),
        ),
        params=("mk", "mj"),
    ), replace=True)

    spawner = ir.register_program(ir.Program(
        f"fig15-spawner-{g}",
        body=(
            ir.For("mi", C(g), (
                ir.HopStmt((V("mi"), V("mj"))),
                ir.SignalStmt("EC"),
                # the local A block's k is its column; B's k is its row
                ir.InjectStmt(a_carrier.name, (
                    ("mi", V("mi")), ("mk", V("mj")))),
                ir.InjectStmt(b_carrier.name, (
                    ("mk", V("mi")), ("mj", V("mj")))),
            )),
        ),
        params=("mj",),
    ), replace=True)

    entry = ir.register_program(ir.Program(
        f"fig15-main-{g}",
        body=(
            ir.For("mj", C(g), (
                ir.HopStmt((C(0), V("mj"))),
                ir.InjectStmt(spawner.name, (("mj", V("mj")),)),
            )),
        ),
    ), replace=True)

    return IR2DSuite(
        name="fig15", g=g, entry=entry,
        layout=_matrix_layout(natural_layout, a, b, g),
        programs=(entry, spawner, a_carrier, b_carrier),
    )


# --------------------------------------------------------------------------
# running a suite
# --------------------------------------------------------------------------

def run_ir2d_suite(
    suite: IR2DSuite,
    fabric_kind: str = "sim",
    machine: MachineSpec | None = None,
    trace: bool = False,
):
    """Run a 2-D IR suite on any fabric kind (sim/thread/process/socket).

    Returns ``(c, fabric_result)`` with the assembled product.
    """
    from ..navp.interp import IRMessenger

    g = suite.g
    fabric = make_fabric(fabric_kind, Grid2D(g), machine=machine,
                         trace=trace)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    result = fabric.run()
    return assemble_product(suite, result.places), result


def assemble_product(suite: IR2DSuite, places: dict) -> np.ndarray:
    """The product matrix from the ``C`` block every PE holds after a
    run — ``places`` is ``{coord: node vars}`` as a fabric or a
    controller returns it. A PE without one is a :class:`FabricError`
    naming it, not a ``KeyError`` from the middle of the copy loop."""
    g = suite.g
    for coord in ((i, j) for i in range(g) for j in range(g)):
        if "C" not in places.get(coord, ()):
            raise FabricError(
                f"PE {coord} holds no node variable 'C' after "
                f"{suite.entry.name}: the product cannot be assembled")
    sample = places[(0, 0)]["C"]
    ab = sample.shape[0]
    c = np.empty((g * ab, g * ab), dtype=sample.dtype)
    for (i, j), node_vars in places.items():
        c[i * ab : (i + 1) * ab, j * ab : (j + 1) * ab] = node_vars["C"]
    return c
