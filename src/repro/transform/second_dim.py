"""DSC in the second dimension — the hierarchical application.

"The NavP transformations can be systematically applied repeatedly or
hierarchically in different dimensions of a network of PEs" (Section 2);
Section 3.4 does it to matmul: the phase-shifted 1-D program (Figure 9)
becomes Figure 11 by *applying the DSC transformation again* in the
``i`` dimension. This module implements that step mechanically.

Input: a phase-shifted :class:`~repro.transform.pipeline.PipelinedSuite`
(injector + carrier over a 1-D chain). The rewrite:

1. **lift the places into a grid row** — every carrier tour stop
   ``node(sigma)`` becomes ``node(mi, sigma)``: the carrier for data
   row ``mi`` now works inside grid row ``mi``;
2. **re-home the injections** — carrier ``mi`` is injected where its
   data now lives, ``node(mi, home_col(mi))`` (the anti-diagonal for
   the reverse-staggered layout);
3. **synthesize the producer** — the node variable the tour consumed
   in place (B, previously column-resident on the chain) must now be
   *shipped down each grid column*. The producer's tour schedule is the
   consumer's own ``sigma`` with the row/column roles swapped — the
   alignment symmetry of the reverse staggering makes this a pure
   variable substitution — and a ``waitEvent(EP)`` / ``signalEvent(EP)``
   pair guards the hand-off (Figure 11's events);
4. **redirect the consumer's reads** — ``B[k, mj]`` becomes a read of
   the locally dropped copy, since the tour variable no longer selects
   a column of a chain-resident store but a column of the grid the
   carrier is confined to.

The result is exactly Figure 11's program pair, verified semantically
(run on a 2-D fabric vs NumPy) and structurally by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransformError
from ..navp import ir
from .deps import check_loop_independent
from .pipeline import PipelinedSuite
from .rewrite import collect, find_unique_loop, map_expr, map_stmt_exprs

__all__ = ["SecondDimSpec", "SecondDimSuite", "second_dim",
           "layout_second_dim"]


@dataclass(frozen=True)
class SecondDimSpec:
    """Decisions for the second-dimension DSC step.

    g:
        Grid order (the logical network becomes ``g x g``).
    row_var:
        The carrier parameter naming its data row (``"mi"``).
    tour_var:
        The carrier's tour loop variable (``"mj"``).
    ship_var:
        The node variable the tour consumes in place and that must now
        be shipped down the columns (``"B"``, keyed ``(k, col)``).
    event:
        Name of the producer/consumer event (``"EP"``).

    The homes follow the reverse-staggered anti-diagonal
    (``row = (g-1-line) % g``), matching the carriers' phase-shifted
    first stops — that is what makes the initial staggering implicit.
    """

    g: int
    row_var: str = "mi"
    tour_var: str = "mj"
    ship_var: str = "B"
    event: str = "EP"


@dataclass(frozen=True)
class SecondDimSuite:
    """The derived Figure-11 program family."""

    main: ir.Program
    row_carrier: ir.Program
    col_carrier: ir.Program

    @property
    def programs(self) -> tuple:
        return (self.main, self.row_carrier, self.col_carrier)


def _redirect_ship_reads(body: tuple, spec: SecondDimSpec,
                         dropped: str, sigma: ir.Expr) -> tuple:
    """``B[k, <current column>]`` -> ``Bdrop[k]`` (the local copy).

    After phase shifting, the body's column indices are the reindexed
    tour expression ``sigma`` (not the bare loop variable): a read is
    "consumed in place" exactly when its column index equals the place
    the carrier is standing on.
    """

    def rewrite(expr: ir.Expr) -> ir.Expr:
        if (isinstance(expr, ir.NodeGet) and expr.name == spec.ship_var
                and len(expr.idx) == 2
                and expr.idx[1] in (sigma, ir.Var(spec.tour_var))):
            return ir.Index(ir.NodeGet(dropped), (expr.idx[0],))
        return expr

    return tuple(map_stmt_exprs(rewrite, s) for s in body)


def second_dim(suite: PipelinedSuite, spec: SecondDimSpec) -> SecondDimSuite:
    """Apply the DSC transformation in the second dimension."""
    g = spec.g
    carrier = suite.carrier
    # Legality (analyzer-backed, shared with repro lint): splitting the
    # consumed variable out into a concurrent producer requires the
    # tour's iterations to be independent...
    check_loop_independent(carrier, spec.tour_var)
    path, tour = find_unique_loop(carrier, spec.tour_var)
    if not tour.body or not isinstance(tour.body[0], ir.HopStmt):
        raise TransformError("the carrier tour must start with a hop")
    # ...and the shipped variable to be read-only in the tour: a tour
    # that also wrote it would race the producer's drops.
    ship_writes = [s for s in collect(tour.body,
                                      lambda s: isinstance(s, ir.NodeSet))
                   if s.name == spec.ship_var]
    if ship_writes:
        raise TransformError(
            f"{carrier.name}: {spec.ship_var!r} is written inside the "
            f"{spec.tour_var!r} tour; it cannot be shipped down the "
            f"columns by a concurrent producer"
        )
    if len(tour.body[0].place) != 1:
        raise TransformError("the carrier must currently tour a 1-D chain")
    # (2) re-homes the main's injections: refuse before registering
    if not collect(suite.main.body,
                   lambda s: isinstance(s, ir.InjectStmt)):
        raise TransformError("the phase-shifted main has no injections")
    sigma = tour.body[0].place[0]
    dropped = f"{spec.ship_var}drop"

    # (1) lift the tour into grid row `row_var`; (3)+(4) guard and
    # redirect the consumed variable
    new_tour_body = (
        ir.HopStmt((ir.Var(spec.row_var), sigma)),
        ir.WaitStmt(spec.event),
    ) + _redirect_ship_reads(tour.body[1:], spec, dropped, sigma)
    row_body = tuple(
        ir.For(tour.var, tour.count, new_tour_body)
        if i == path[-1] and len(path) == 1 else stmt
        for i, stmt in enumerate(carrier.body)
    )
    row_carrier = ir.register_program(ir.Program(
        f"{carrier.name}-2d", row_body, carrier.params), replace=True)

    # (3) the producer: the consumer's schedule with the roles swapped.
    swap = {spec.row_var: ir.Var(spec.tour_var),
            spec.tour_var: ir.Var(spec.row_var)}
    producer_sigma = map_expr(
        lambda e: swap.get(e.name, e) if isinstance(e, ir.Var) else e,
        sigma)
    col_carrier = ir.register_program(ir.Program(
        f"{carrier.name}-colcarrier",
        body=(
            ir.Assign("mB", ir.NodeGet(f"{spec.ship_var}col")),
            ir.For(spec.row_var, tour.count, (
                ir.HopStmt((producer_sigma, ir.Var(spec.tour_var))),
                ir.NodeSet(dropped, (), ir.Var("mB")),
                ir.SignalStmt(spec.event),
            )),
        ),
        params=(spec.tour_var,),
    ), replace=True)

    # (2) the injector: walk the homes, inject both carriers locally.
    line = "ml"
    data_row = ir.Bin("%", ir.Bin("-", ir.Const(g - 1), ir.Var(line)),
                      ir.Const(g))
    main = ir.register_program(ir.Program(
        f"{suite.main.name}-2d",
        body=(
            ir.For(line, ir.Const(g), (
                ir.HopStmt((data_row, ir.Var(line))),
                ir.InjectStmt(row_carrier.name,
                              ((spec.row_var, data_row),)),
                ir.InjectStmt(col_carrier.name,
                              ((spec.tour_var, ir.Var(line)),)),
            )),
        ),
    ), replace=True)
    return SecondDimSuite(main=main, row_carrier=row_carrier,
                          col_carrier=col_carrier)


def layout_second_dim(a, b, spec: SecondDimSpec) -> dict:
    """Figure 10's data distribution for the derived suite.

    ``A`` row dictionaries and ``B`` column dictionaries co-located on
    the anti-diagonal; an empty ``C`` store on every node (writes use
    full ``(mi, mj)`` keys, so no pre-split is needed).
    """
    g = spec.g
    ab = a.shape[0] // g
    layout: dict = {(i, j): {"C": {}} for i in range(g) for j in range(g)}
    for line in range(g):
        row = (g - 1 - line) % g
        layout[(row, line)]["A"] = {
            row: {k: a[row * ab : (row + 1) * ab,
                       k * ab : (k + 1) * ab] for k in range(g)}
        }
        layout[(row, line)][f"{spec.ship_var}col"] = {
            k: b[k * ab : (k + 1) * ab, line * ab : (line + 1) * ab]
            for k in range(g)
        }
    return layout
