"""The carried-dimension transformations: Figures 11 -> 13 -> 15."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.fabric import Grid2D, SimFabric, ThreadFabric
from repro.machine import FAST_TEST_MACHINE, SUN_BLADE_100
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.transform import (
    CarriedSpec,
    ReductionSpec,
    derive_full_chain,
    layout_carried_antidiagonal,
    layout_carried_natural,
    reassociate_reduction,
)
from repro.util.validation import assert_allclose, random_matrix

V = ir.Var
C = ir.Const


def run_chain(suite, layout, g, ab, fabric_cls=SimFabric, machine=None):
    fabric = fabric_cls(Grid2D(g), machine=machine or FAST_TEST_MACHINE)
    for coord, node_vars in layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.main.name))
    result = fabric.run()
    c = np.empty((g * ab, g * ab))
    for _coord, node_vars in result.places.items():
        for (i, j), block in node_vars.get("C", {}).items():
            c[i * ab : (i + 1) * ab, j * ab : (j + 1) * ab] = block
    return c, result


class TestReassociation:
    def test_accumulator_disappears(self):
        chain = derive_full_chain(3)
        body = chain.dsc_2d.row_carrier.body  # the pre-reassoc program
        out = reassociate_reduction(chain.dsc_2d.row_carrier,
                                    ReductionSpec())
        # the rewritten k loop folds straight into C
        tour = out.body[1]
        kloop = [s for s in tour.body if isinstance(s, ir.For)][0]
        compute = kloop.body[0]
        assert isinstance(compute.args[0], ir.NodeGet)
        assert compute.args[0].name == "C"
        assert isinstance(kloop.body[1], ir.NodeSet)

    def test_rejects_non_associative_kernel(self):
        bad = ir.register_program(ir.Program("ra-bad", (
            ir.ComputeStmt("zeros_from", (ir.NodeGet("X"),), out="t"),
            ir.For("k", C(3), (
                ir.ComputeStmt("copy", (V("t"),), out="t"),
            )),
            ir.NodeSet("C", (C(0),), V("t")),
        )), replace=True)
        with pytest.raises(TransformError, match="associative"):
            reassociate_reduction(bad, ReductionSpec())

    def test_rejects_when_no_pattern(self):
        empty = ir.register_program(
            ir.Program("ra-none", (ir.Assign("x", C(1)),)), replace=True)
        with pytest.raises(TransformError, match="pattern"):
            reassociate_reduction(empty, ReductionSpec())

    def test_semantics_preserved(self):
        """Reassociated Figure 11 still computes the exact product."""
        chain = derive_full_chain(3)
        from repro.transform import SecondDimSpec, layout_second_dim
        from repro.transform.second_dim import SecondDimSuite

        g, ab = 3, 6
        a = random_matrix(g * ab, 61)
        b = random_matrix(g * ab, 62)
        reassociated = reassociate_reduction(
            chain.dsc_2d.row_carrier, ReductionSpec(),
            name=chain.dsc_2d.row_carrier.name)  # keep main's binding
        layout = layout_second_dim(a, b, SecondDimSpec(g=g))
        # zero-init C, the reassociation's precondition
        for i in range(g):
            for j in range(g):
                layout[(i, j)]["C"] = {
                    (i, j): np.zeros((ab, ab))}
        fabric = SimFabric(Grid2D(g), machine=FAST_TEST_MACHINE)
        for coord, node_vars in layout.items():
            fabric.load(coord, **node_vars)
        fabric.inject((0, 0), IRMessenger(chain.dsc_2d.main.name))
        result = fabric.run()
        c = np.empty((g * ab, g * ab))
        for _coord, node_vars in result.places.items():
            for (i, j), block in node_vars.get("C", {}).items():
                c[i * ab : (i + 1) * ab, j * ab : (j + 1) * ab] = block
        assert_allclose(c, a @ b)


class TestFullChain:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_figure13_exact(self, g):
        chain = derive_full_chain(g)
        ab = 5
        a = random_matrix(g * ab, 63)
        b = random_matrix(g * ab, 64)
        spec = CarriedSpec(g=g)
        c, _result = run_chain(chain.pipelined_2d,
                               layout_carried_antidiagonal(a, b, spec),
                               g, ab)
        assert_allclose(c, a @ b, what=f"derived fig13 g={g}")

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_figure15_exact(self, g):
        chain = derive_full_chain(g)
        ab = 5
        a = random_matrix(g * ab, 65)
        b = random_matrix(g * ab, 66)
        spec = CarriedSpec(g=g)
        c, _result = run_chain(chain.phased_2d,
                               layout_carried_natural(a, b, spec),
                               g, ab)
        assert_allclose(c, a @ b, what=f"derived fig15 g={g}")

    def test_figure15_on_threads(self):
        chain = derive_full_chain(3)
        ab = 6
        a = random_matrix(3 * ab, 67)
        b = random_matrix(3 * ab, 68)
        spec = CarriedSpec(g=3)
        c, _result = run_chain(chain.phased_2d,
                               layout_carried_natural(a, b, spec),
                               3, ab, fabric_cls=ThreadFabric)
        assert_allclose(c, a @ b)

    def test_carrier_counts(self):
        """Figure 13/15 carrier population: g^2 of each kind."""
        chain = derive_full_chain(3)
        ab = 4
        a = random_matrix(3 * ab, 69)
        b = random_matrix(3 * ab, 70)
        spec = CarriedSpec(g=3)
        _c, result = run_chain(chain.phased_2d,
                               layout_carried_natural(a, b, spec),
                               3, ab)
        actors = {e.actor for e in result.trace.of_kind("hop")}
        a_carriers = {x for x in actors
                      if "rowcarrier" in x and "colcarrier" not in x}
        b_carriers = {x for x in actors if "colcarrier" in x}
        assert len(a_carriers) == 9
        assert len(b_carriers) == 9


class TestDerivedStructure:
    def test_fig13_schedules_match_the_paper(self):
        chain = derive_full_chain(3)
        a_tour = chain.pipelined_2d.a_carrier.body[1]
        # hop(node(mi, (N-1-mi+mj) % N))
        sigma = ir.Bin("%", ir.Bin("+", ir.Bin("-", C(2), V("mi")),
                                   V("mj")), C(3))
        assert a_tour.body[0] == ir.HopStmt((V("mi"), sigma))
        assert a_tour.body[1] == ir.WaitStmt("EP", (V("mk"),))
        assert a_tour.body[-1] == ir.SignalStmt("EC")

    def test_fig15_schedules_match_the_paper(self):
        chain = derive_full_chain(3)
        a_tour = chain.phased_2d.a_carrier.body[1]
        # hop(node(mi, (N-1-mi+(mj-mk)) % N)) == (N-1-mi-mk+mj) % N
        shifted = ir.Bin("-", V("mj"), V("mk"))
        sigma = ir.Bin("%", ir.Bin("+", ir.Bin("-", C(2), V("mi")),
                                   shifted), C(3))
        assert a_tour.body[0] == ir.HopStmt((V("mi"), sigma))

    def test_slot_protocol_synthesized(self):
        chain = derive_full_chain(3)
        b_tour = chain.pipelined_2d.b_carrier.body[1]
        kinds = [type(s).__name__ for s in b_tour.body]
        assert kinds == ["HopStmt", "WaitStmt", "NodeSet", "SignalStmt"]
        assert b_tour.body[1].event == "EC"
        assert b_tour.body[3] == ir.SignalStmt("EP", (V("mk"),))

    def test_initial_ec_prescribed_everywhere(self):
        chain = derive_full_chain(2)
        assert len(chain.pipelined_2d.initial_signals) == 4
        assert all(sig[1] == "EC"
                   for sig in chain.pipelined_2d.initial_signals)

    def test_timing_matches_handcoded_fig15(self):
        """The derived Figure 15 performs like the hand-written IR at
        the same granularity on the calibrated machine."""
        from repro.matmul.ir2d import build_fig15, run_ir2d_suite

        g, ab = 3, 64
        chain = derive_full_chain(g)
        spec = CarriedSpec(g=g)
        a = random_matrix(g * ab, 73)
        b = random_matrix(g * ab, 74)
        _c, derived = run_chain(chain.phased_2d,
                                layout_carried_natural(a, b, spec),
                                g, ab, machine=SUN_BLADE_100)
        hand = build_fig15(g, a, b, ab=ab)
        _c2, hand_result = run_ir2d_suite(hand, "sim",
                                          machine=SUN_BLADE_100)
        assert derived.time == pytest.approx(hand_result.time, rel=0.35)