"""The hierarchical step: deriving Figure 11 from the 1-D phased suite."""

import pytest

from repro.errors import TransformError
from repro.fabric import Grid2D, SimFabric, ThreadFabric
from repro.fabric.process import ProcessFabric
from repro.machine import FAST_TEST_MACHINE, SUN_BLADE_100
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.transform import (
    SecondDimSpec,
    assemble_c,
    derive_chain,
    layout_second_dim,
    second_dim,
)
from repro.util.validation import assert_allclose, random_matrix

V = ir.Var
C = ir.Const


@pytest.fixture(scope="module")
def suite3():
    chain = derive_chain(3)
    return second_dim(chain.phased, SecondDimSpec(g=3))


def _run(suite, g, ab, fabric_kind="sim", machine=None, seed=81):
    a = random_matrix(g * ab, seed)
    b = random_matrix(g * ab, seed + 1)
    layout = layout_second_dim(a, b, SecondDimSpec(g=g))
    if fabric_kind == "process":
        fabric = ProcessFabric(Grid2D(g), timeout=90.0)
    else:
        cls = SimFabric if fabric_kind == "sim" else ThreadFabric
        fabric = cls(Grid2D(g),
                     machine=machine or FAST_TEST_MACHINE)
    for coord, node_vars in layout.items():
        fabric.load(coord, **node_vars)
    if fabric_kind == "process":
        fabric.inject((0, 0), suite.main.name)
    else:
        fabric.inject((0, 0), IRMessenger(suite.main.name))
    result = fabric.run()
    return assemble_c(result.places, g, ab), a @ b, result


class TestStructure:
    def test_row_carrier_lifted_into_its_row(self, suite3):
        tour = suite3.row_carrier.body[1]
        hop = tour.body[0]
        assert hop.place[0] == V("mi")          # confined to grid row mi
        assert isinstance(tour.body[1], ir.WaitStmt)  # EP guard

    def test_reads_redirected_to_the_dropped_copy(self, suite3):
        from repro.transform.rewrite import collect

        def mentions_b_store(stmt):
            if not isinstance(stmt, ir.ComputeStmt):
                return False
            return any(
                isinstance(arg, ir.NodeGet) and arg.name == "B"
                for arg in stmt.args
            )

        assert not collect(suite3.row_carrier.body, mentions_b_store)

    def test_producer_schedule_is_the_swapped_sigma(self, suite3):
        producer_tour = suite3.col_carrier.body[1]
        hop = producer_tour.body[0]
        # (((g-1) - mj) + mi) % g — sigma with mi and mj swapped
        expected = ir.Bin(
            "%", ir.Bin("+", ir.Bin("-", C(2), V("mj")), V("mi")), C(3))
        assert hop.place == (expected, V("mj"))
        assert isinstance(producer_tour.body[1], ir.NodeSet)
        assert isinstance(producer_tour.body[2], ir.SignalStmt)

    def test_main_walks_the_antidiagonal(self, suite3):
        loop = suite3.main.body[0]
        assert isinstance(loop.body[0], ir.HopStmt)
        injected = {s.program for s in loop.body
                    if isinstance(s, ir.InjectStmt)}
        assert injected == {suite3.row_carrier.name,
                            suite3.col_carrier.name}


class TestSemantics:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_exact_product_on_sim(self, g):
        chain = derive_chain(g)
        suite = second_dim(chain.phased, SecondDimSpec(g=g))
        c, want, _result = _run(suite, g, ab=6)
        assert_allclose(c, want, what=f"second-dim g={g}")

    def test_on_threads(self, suite3):
        c, want, _result = _run(suite3, 3, ab=8, fabric_kind="thread")
        assert_allclose(c, want)

    def test_on_processes(self, suite3):
        c, want, _result = _run(suite3, 3, ab=8, fabric_kind="process")
        assert_allclose(c, want)

    def test_timing_close_to_handcoded_fig11(self, suite3):
        """The derived suite's virtual time matches the hand-written
        Figure 11 IR within a modest band at matching granularity."""
        from repro.matmul.ir2d import build_fig11, run_ir2d_suite

        g, ab = 3, 64
        _c, _w, derived = _run(suite3, g, ab=ab, fabric_kind="sim",
                               machine=SUN_BLADE_100)
        a = random_matrix(g * ab, 91)
        b = random_matrix(g * ab, 92)
        hand = build_fig11(g, a, b, ab=ab)
        _c2, hand_result = run_ir2d_suite(hand, "sim",
                                          machine=SUN_BLADE_100)
        assert derived.time == pytest.approx(hand_result.time, rel=0.35)


class TestGuards:
    def test_requires_tour_starting_with_hop(self):
        bad_carrier = ir.register_program(ir.Program("sd-bad-carrier", (
            ir.For("mj", C(3), (ir.Assign("x", C(1)),)),
        ), params=("mi",)), replace=True)
        bad_main = ir.register_program(
            ir.Program("sd-bad-main", ()), replace=True)
        from repro.transform.pipeline import PipelinedSuite

        with pytest.raises(TransformError, match="hop"):
            second_dim(PipelinedSuite(main=bad_main, carrier=bad_carrier),
                       SecondDimSpec(g=3))

    def test_requires_1d_tour(self, suite3):
        """Applying it twice is refused: the tour is already 2-D."""
        from repro.transform.pipeline import PipelinedSuite

        with pytest.raises(TransformError, match="1-D"):
            second_dim(
                PipelinedSuite(main=suite3.main,
                               carrier=suite3.row_carrier),
                SecondDimSpec(g=3))

    def test_main_without_injections_registers_nothing(self):
        """The refusal comes before any program is registered."""
        from repro.transform.pipeline import PipelinedSuite

        carrier = derive_chain(3).phased.carrier
        hop_only = ir.register_program(ir.Program(
            "sd-hop-only-main", (ir.HopStmt((C(0),)),)), replace=True)
        before = list(ir.REGISTRY)
        with pytest.raises(TransformError, match="no injections"):
            second_dim(PipelinedSuite(main=hop_only, carrier=carrier),
                       SecondDimSpec(g=3))
        assert list(ir.REGISTRY) == before
