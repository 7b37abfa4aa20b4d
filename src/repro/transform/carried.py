"""Pipelining and phase shifting of the *carried* dimension.

Sections 3.5-3.6 apply the remaining two transformations inside the
second dimension: the whole-row/whole-column carriers of Figure 11
split into per-k carriers that pipeline (Figure 13), then their tours
are phase shifted (Figure 15). This module performs both steps
mechanically on the output of :func:`repro.transform.second_dim` whose
row carrier has been through
:func:`repro.transform.reduction.reassociate_reduction` (the paper's
"C(i,j) initialized to 0" precondition).

* :func:`pipeline_carried` — Figure 11 -> 13. The consumer's k loop
  disappears: one ``ACarrier`` per k slice, carrying one term of the
  reduction; the producer splits likewise into per-k ``BCarrier``\\ s
  that park their slice in the PE's single slot. The transformation
  synthesizes the slot protocol from the data flow: the producer must
  not overwrite an unconsumed slice (``waitEvent(EC)`` before parking,
  ``signalEvent(EC)`` after consuming — Section 3.5's "a producer
  BCarrier needs to make sure that the B entry produced by its
  predecessor in the pipeline is consumed before it puts the B entry it
  carries in place"), and the consumer must see *its* slice
  (``EP`` keyed by k). The slot starts empty: the suite carries the
  initial ``EC`` signals Figure 13 prescribes.
* :func:`phase_shift_carried` — Figure 13 -> 15. Each carrier's tour
  is shifted by its own k origin (``mj -> mj - mk``), the data
  distribution becomes the natural layout, and the injector walks all
  the homes. The shift makes the hand-off keyed: each PE receives one
  slice per k, so the slot and its ``EP`` are keyed by k, ``EC`` goes,
  and a turn event keyed by the tour step orders the accumulations
  into ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransformError
from ..navp import ir
from .rewrite import find_unique_loop, map_stmt_exprs, substitute_expr
from .second_dim import SecondDimSuite

__all__ = [
    "CarriedSpec",
    "CarriedSuite",
    "pipeline_carried",
    "phase_shift_carried",
    "layout_carried_antidiagonal",
    "layout_carried_natural",
]

V = ir.Var
C = ir.Const


@dataclass(frozen=True)
class CarriedSpec:
    g: int
    k_var: str = "k"         # the reduction loop being split
    carrier_k: str = "mk"    # the new carrier parameter
    slot: str = "Bslot"      # the per-PE hand-off slot
    ep: str = "EP"           # "slice present" (keyed by k)
    ec: str = "EC"           # "slice consumed" (slot free; Figure 13)
    row_var: str = "mi"
    col_var: str = "mj"


@dataclass(frozen=True)
class CarriedSuite:
    main: ir.Program
    a_carrier: ir.Program
    b_carrier: ir.Program
    initial_signals: tuple  # (coord, event, args, count)

    @property
    def programs(self) -> tuple:
        return (self.main, self.a_carrier, self.b_carrier)


def pipeline_carried(suite: SecondDimSuite,
                     spec: CarriedSpec) -> CarriedSuite:
    """Split the carried dimension into pipelined per-k carriers."""
    g, k, mk = spec.g, spec.k_var, spec.carrier_k

    # -- the consumer: RowCarrier -> ACarrier(mi, mk) -----------------------
    row = suite.row_carrier
    _path, tour = find_unique_loop(row, spec.col_var)
    if not tour.body or not isinstance(tour.body[0], ir.HopStmt):
        raise TransformError("row carrier tour must start with a hop")
    kloops = [s for s in tour.body if isinstance(s, ir.For)
              and s.var == k]
    if len(kloops) != 1:
        raise TransformError(
            "expected exactly one reassociated k loop in the tour "
            "(run reassociate_reduction first)"
        )
    kloop = kloops[0]
    leftovers = [s for s in tour.body[1:]
                 if s is not kloop and not isinstance(s, ir.WaitStmt)]
    if leftovers:
        raise TransformError(
            f"cannot split a tour with extra per-visit work: {leftovers!r}"
        )
    # one carrier per k: the loop body becomes the visit body, with the
    # loop variable now the carrier's parameter and the dropped-copy
    # reads redirected to the hand-off slot
    term = substitute_expr(kloop.body, V(k), V(mk))

    def to_slot(expr: ir.Expr) -> ir.Expr:
        if (isinstance(expr, ir.Index)
                and isinstance(expr.base, ir.NodeGet)
                and expr.base.name.endswith("drop")
                and expr.idx == (V(mk),)):
            return ir.NodeGet(spec.slot)
        return expr

    term = tuple(map_stmt_exprs(to_slot, s) for s in term)
    visit = (
        tour.body[0],                       # the same hop
        ir.WaitStmt(spec.ep, (V(mk),)),     # my slice is present
    ) + term + (
        ir.SignalStmt(spec.ec),             # slot is free again
    )
    # pickup: mA = A[mi] -> the single slice mA = A[mi][mk]
    pickup = row.body[0]
    if not isinstance(pickup, ir.Assign):
        raise TransformError("row carrier must start with its pickup")
    a_pickup = ir.Assign(pickup.var,
                         ir.Index(pickup.expr, (V(mk),)))
    a_body = (a_pickup,
              ir.For(tour.var, tour.count,
                     substitute_expr(visit, ir.Index(V(pickup.var),
                                                    (V(mk),)),
                                     V(pickup.var))),)
    a_carrier = ir.register_program(ir.Program(
        f"{row.name}-k", a_body, (spec.row_var, mk)), replace=True)

    # -- the producer: ColCarrier -> BCarrier(mk, mj) -----------------------
    col = suite.col_carrier
    _cpath, ctour = find_unique_loop(col, spec.row_var)
    cpickup = col.body[0]
    if not isinstance(cpickup, ir.Assign):
        raise TransformError("col carrier must start with its pickup")
    b_pickup = ir.Assign(cpickup.var,
                         ir.Index(cpickup.expr, (V(mk),)))
    drops = [s for s in ctour.body if isinstance(s, ir.NodeSet)]
    if len(drops) != 1:
        raise TransformError("col carrier must drop exactly one copy")
    b_visit = (
        ctour.body[0],                      # the same hop
        ir.WaitStmt(spec.ec),               # predecessor consumed
        ir.NodeSet(spec.slot, (), V(cpickup.var)),
        ir.SignalStmt(spec.ep, (V(mk),)),
    )
    b_carrier = ir.register_program(ir.Program(
        f"{col.name}-k",
        (b_pickup, ir.For(ctour.var, ctour.count, b_visit)),
        (mk, spec.col_var)), replace=True)

    # -- the injector: one pair of carriers per k at each home --------------
    old_loop = suite.main.body[0]
    if not isinstance(old_loop, ir.For):
        raise TransformError("unexpected main shape")
    home_hop = old_loop.body[0]
    injections = [s for s in old_loop.body
                  if isinstance(s, ir.InjectStmt)]
    row_binding = col_binding = None
    for stmt in injections:
        bound = dict(stmt.bindings)
        if spec.row_var in bound:
            row_binding = bound[spec.row_var]
        if spec.col_var in bound:
            col_binding = bound[spec.col_var]
    if row_binding is None or col_binding is None:
        raise TransformError(
            "main must inject carriers bound by the row and column vars"
        )
    main = ir.register_program(ir.Program(
        f"{suite.main.name}-k",
        body=(
            ir.For(old_loop.var, old_loop.count, (
                home_hop,
                ir.For(mk, C(g), (
                    ir.InjectStmt(a_carrier.name, (
                        (spec.row_var, row_binding), (mk, V(mk)))),
                    ir.InjectStmt(b_carrier.name, (
                        (mk, V(mk)), (spec.col_var, col_binding))),
                )),
            )),
        ),
    ), replace=True)

    signals = tuple(
        ((i, j), spec.ec, (), 1) for i in range(g) for j in range(g)
    )
    return CarriedSuite(main=main, a_carrier=a_carrier,
                        b_carrier=b_carrier, initial_signals=signals)


def phase_shift_carried(suite: CarriedSuite,
                        spec: CarriedSpec) -> CarriedSuite:
    """Reindex every tour by its carrier's k origin (Figure 15), and
    key the hand-off by k.

    After the shift, B-carrier ``(mk, mj)`` is the only one that parks
    slice ``mk`` at a PE of column ``mj``, so the slot is keyed by
    ``mk`` and the "slot free" event ``EC`` goes: with one unkeyed slot
    a B-carrier for the wrong k could take it and deadlock the suite.
    The ``mj``-th visit of A-carrier ``(mi, mk)`` lands on PE
    ``(mi, j)`` at step ``mj = (j + mi + mk - (g - 1)) mod g``, so each
    PE sees exactly one A-carrier per step; a turn event ``ET`` keyed by
    the step (primed at ``ET(0)`` on every PE) serializes their
    accumulations into ``C`` in that order.
    """
    g, mk = spec.g, spec.carrier_k
    turn = "ET"       # which tour step may accumulate into the PE's C
    key = (V(mk),)

    def keyed_slot(expr: ir.Expr) -> ir.Expr:
        if isinstance(expr, ir.NodeGet) and expr.name == spec.slot:
            return ir.NodeGet(spec.slot, key)
        return expr

    def a_visit(body: tuple) -> tuple:
        step = V(spec.col_var)
        out: list = []
        for stmt in body:
            if stmt == ir.SignalStmt(spec.ec):
                stmt = ir.SignalStmt(turn, (ir.Bin("+", step, C(1)),))
            out.append(map_stmt_exprs(keyed_slot, stmt))
            if stmt == ir.WaitStmt(spec.ep, key):
                out.append(ir.WaitStmt(turn, (step,)))
        return tuple(out)

    def b_visit(body: tuple) -> tuple:
        return tuple(
            ir.NodeSet(s.name, key, s.expr)
            if isinstance(s, ir.NodeSet) and s.name == spec.slot else s
            for s in body if s != ir.WaitStmt(spec.ec))

    def reindex(program: ir.Program, tour_var: str, name: str,
                visit) -> ir.Program:
        path, tour = find_unique_loop(program, tour_var)
        shifted = ir.Bin("-", V(tour_var), V(mk))
        new_body = visit(substitute_expr(tour.body, V(tour_var), shifted))
        rebuilt = list(program.body)
        rebuilt[path[0]] = ir.For(tour.var, tour.count, new_body)
        return ir.register_program(
            ir.Program(name, tuple(rebuilt), program.params),
            replace=True)

    a_carrier = reindex(suite.a_carrier, spec.col_var,
                        f"{suite.a_carrier.name}-phase", a_visit)
    b_carrier = reindex(suite.b_carrier, spec.row_var,
                        f"{suite.b_carrier.name}-phase", b_visit)

    # natural layout: every (mi, mk) pair is injected at its own home
    main = ir.register_program(ir.Program(
        f"{suite.main.name}-phase",
        body=(
            ir.For("u", C(g), (
                ir.For("v", C(g), (
                    ir.HopStmt((V("v"), V("u"))),
                    ir.InjectStmt(a_carrier.name, (
                        (spec.row_var, V("v")), (mk, V("u")))),
                    ir.InjectStmt(b_carrier.name, (
                        (mk, V("v")), (spec.col_var, V("u")))),
                )),
            )),
        ),
    ), replace=True)
    signals = tuple(
        ((i, j), turn, (0,), 1) for i in range(g) for j in range(g)
    )
    return CarriedSuite(main=main, a_carrier=a_carrier,
                        b_carrier=b_carrier, initial_signals=signals)


# --------------------------------------------------------------------------
# data distributions (C zero-initialized, per the figures)
# --------------------------------------------------------------------------

def _zero_c(layout: dict, a, g: int) -> None:
    import numpy as np

    ab = a.shape[0] // g
    for i in range(g):
        for j in range(g):
            layout[(i, j)].setdefault("C", {})[(i, j)] = np.zeros(
                (ab, ab), dtype=a.dtype)


def layout_carried_antidiagonal(a, b, spec: CarriedSpec) -> dict:
    """Figure 12's distribution for the Figure-13 suite."""
    from .second_dim import SecondDimSpec, layout_second_dim

    layout = layout_second_dim(a, b, SecondDimSpec(g=spec.g))
    _zero_c(layout, a, spec.g)
    return layout


def layout_carried_natural(a, b, spec: CarriedSpec) -> dict:
    """Figure 14's natural distribution for the Figure-15 suite."""
    g = spec.g
    ab = a.shape[0] // g
    layout: dict = {}
    for i in range(g):
        for j in range(g):
            layout[(i, j)] = {
                "A": {i: {j: a[i * ab : (i + 1) * ab,
                            j * ab : (j + 1) * ab]}},
                "Bcol": {i: b[i * ab : (i + 1) * ab,
                              j * ab : (j + 1) * ab]},
            }
    _zero_c(layout, a, g)
    return layout
