"""The transformation machinery: rewriting utilities, dependence guard,
and the structural output of each transformation."""

import pytest

from repro.errors import TransformError
from repro.navp import ir
from repro.transform import (
    DSCSpec,
    PhaseShiftSpec,
    PipelineSpec,
    check_loop_independent,
    dsc,
    phase_shift,
    pipelining,
    sequential_program,
)
from repro.transform.rewrite import (
    collect,
    find_loops,
    find_unique_loop,
    substitute_expr,
)

V = ir.Var
C = ir.Const


class TestRewriteUtils:
    def test_substitute_expr(self):
        body = (ir.Assign("x", ir.Bin("+", V("a"), V("a"))),)
        out = substitute_expr(body, V("a"), C(5))
        assert out == (ir.Assign("x", ir.Bin("+", C(5), C(5))),)

    def test_substitute_does_not_recurse_into_replacement(self):
        """Replacing mj by an expression containing mj must terminate
        and substitute exactly once (the phase-shift reindexing)."""
        sched = ir.Bin("%", ir.Bin("+", V("mi"), V("mj")), C(3))
        body = (ir.HopStmt((V("mj"),)),)
        out = substitute_expr(body, V("mj"), sched)
        assert out == (ir.HopStmt((sched,)),)

    def test_find_loops_nested(self):
        program = sequential_program(3, name="rw-seq")
        assert len(find_loops(program.body, "k")) == 1
        path, loop = find_unique_loop(program, "mj")
        assert loop.var == "mj"
        assert path == (0, 0)

    def test_find_unique_loop_rejects_missing(self):
        program = sequential_program(3, name="rw-seq2")
        with pytest.raises(TransformError):
            find_unique_loop(program, "zz")

    def test_collect(self):
        program = sequential_program(3, name="rw-seq3")
        computes = collect(program.body,
                           lambda s: isinstance(s, ir.ComputeStmt))
        assert len(computes) == 2  # zeros_from + gemm_acc


class TestDependenceGuard:
    def test_matmul_j_loop_is_independent(self):
        program = sequential_program(3, name="dep-ok")
        check_loop_independent(program, "mj")
        check_loop_independent(program, "mi")

    def test_colliding_writes_rejected(self):
        bad = ir.register_program(ir.Program("dep-bad-write", (
            ir.For("i", C(3), (
                ir.NodeSet("acc", (C(0),), V("i")),  # same key every i
            )),
        )), replace=True)
        with pytest.raises(TransformError, match="collide"):
            check_loop_independent(bad, "i")

    def test_read_after_write_rejected(self):
        bad = ir.register_program(ir.Program("dep-bad-raw", (
            ir.For("i", C(3), (
                ir.Assign("x", ir.NodeGet("acc", (C(0),))),
                ir.NodeSet("acc", (V("i"),), V("x")),
            )),
        )), replace=True)
        with pytest.raises(TransformError, match="dependence"):
            check_loop_independent(bad, "i")

    def test_read_only_node_vars_fine(self):
        ok = ir.register_program(ir.Program("dep-ok-ro", (
            ir.For("i", C(3), (
                ir.Assign("x", ir.NodeGet("B", (C(0),))),
                ir.NodeSet("C", (V("i"),), V("x")),
            )),
        )), replace=True)
        check_loop_independent(ok, "i")


class TestDSCStructure:
    def test_output_matches_figure5(self):
        """The derived DSC program has Figure 5's exact structure."""
        nb = 3
        program = dsc(sequential_program(nb, name="fig5-src"), DSCSpec(
            loop="mj",
            place=(V("mj"),),
            carries={"mA": ir.NodeGet("A", (V("mi"),))},
            pickup_cond=ir.Bin("==", V("mj"), C(0)),
        ), name="fig5-out")

        outer = program.body[0]
        inner = outer.body[0]
        assert isinstance(inner.body[0], ir.HopStmt)       # (4) hop(node(mj))
        assert inner.body[0].place == (V("mj"),)
        pickup = inner.body[1]                             # (5) if mj=0 ...
        assert isinstance(pickup, ir.If)
        assert pickup.then == (
            ir.Assign("mA", ir.NodeGet("A", (V("mi"),))),)
        # every A access in the rest of the body now reads mA
        rest = inner.body[2:]
        node_reads = []

        def visit(expr):
            if isinstance(expr, ir.NodeGet):
                node_reads.append(expr.name)

        for stmt in collect(rest, lambda s: True):
            if isinstance(stmt, ir.ComputeStmt):
                for arg in stmt.args:
                    _walk(arg, visit)
        assert "A" not in node_reads

    def test_carry_source_must_be_node_access(self):
        with pytest.raises(TransformError):
            dsc(sequential_program(3, name="dsc-bad"), DSCSpec(
                loop="mj", place=(V("mj"),),
                carries={"mA": V("x")},
            ))

    def test_written_carry_source_blocks_dsc(self):
        """Carrying a node variable that the loop also writes would let
        the agent copy go stale — DSC must refuse."""
        bad = ir.register_program(ir.Program("dsc-dep-bad", (
            ir.For("mj", C(3), (
                ir.Assign("x", ir.NodeGet("acc", (C(0),))),
                ir.NodeSet("acc", (V("mj"),), V("x")),
            )),
        )), replace=True)
        with pytest.raises(TransformError, match="stale"):
            dsc(bad, DSCSpec(loop="mj", place=(V("mj"),),
                             carries={"m": ir.NodeGet("acc", (C(0),))}))

    def test_dsc_tolerates_dependences_it_preserves(self):
        """DSC is a single thread: loop-carried dependences through node
        state are fine as long as nothing carried is written."""
        chained = ir.register_program(ir.Program("dsc-dep-ok", (
            ir.For("mj", C(3), (
                ir.Assign("x", ir.NodeGet("acc", (ir.Bin("-", V("mj"),
                                                         C(1)),))),
                ir.NodeSet("acc", (V("mj"),), V("x")),
            )),
        )), replace=True)
        out = dsc(chained, DSCSpec(loop="mj", place=(V("mj"),)))
        assert isinstance(out.body[0].body[0], ir.HopStmt)


def _walk(expr, fn):
    fn(expr)
    if isinstance(expr, ir.Bin):
        _walk(expr.left, fn)
        _walk(expr.right, fn)
    elif isinstance(expr, (ir.NodeGet, ir.Index)):
        if isinstance(expr, ir.Index):
            _walk(expr.base, fn)
        for e in expr.idx:
            _walk(e, fn)


class TestPipelineStructure:
    def _dsc(self, nb=3, tag="pl"):
        return dsc(sequential_program(nb, name=f"{tag}-src"), DSCSpec(
            loop="mj", place=(V("mj"),),
            carries={"mA": ir.NodeGet("A", (V("mi"),))},
            pickup_cond=ir.Bin("==", V("mj"), C(0)),
        ), name=f"{tag}-dsc")

    def test_output_matches_figure7(self):
        suite = pipelining(self._dsc(tag="fig7"), PipelineSpec(
            outer="mi", main_name="fig7-pipe", carrier_name="fig7-carrier",
            inject_at=(C(0),)))
        # main: hop(node(0)); do i: inject(RowCarrier(i))
        assert suite.main.body[0] == ir.HopStmt((C(0),))
        loop = suite.main.body[1]
        assert loop.body == (
            ir.InjectStmt("fig7-carrier", (("mi", V("mi")),)),)
        # carrier: pickup hoisted to line (2), then the tour loop
        assert suite.carrier.params == ("mi",)
        assert suite.carrier.body[0] == ir.Assign(
            "mA", ir.NodeGet("A", (V("mi"),)))
        tour = suite.carrier.body[1]
        assert isinstance(tour.body[0], ir.HopStmt)
        # the pickup conditional is gone
        assert not any(isinstance(s, ir.If) for s in tour.body)

    def test_requires_single_outer_loop(self):
        flat = ir.register_program(ir.Program("pl-flat", (
            ir.Assign("x", C(1)),
            ir.For("mi", C(2), (ir.NodeSet("C", (V("mi"),), V("x")),)),
        )), replace=True)
        with pytest.raises(TransformError):
            pipelining(flat, PipelineSpec(
                outer="mi", main_name="pl-m", carrier_name="pl-c",
                inject_at=(C(0),)))

    def test_independent_carrier_has_no_handshake(self):
        suite = pipelining(self._dsc(tag="nohs"), PipelineSpec(
            outer="mi", main_name="nohs-pipe", carrier_name="nohs-carrier",
            inject_at=(C(0),)))
        assert not collect(suite.carrier.body, lambda s: isinstance(
            s, (ir.WaitStmt, ir.SignalStmt)))
        assert suite.carrier.body[0] == ir.Assign(
            "mA", ir.NodeGet("A", (V("mi"),)))

    def test_forward_carried_body_is_not_hoisted(self):
        """The wavefront's shape: a body that is not a single inner
        loop is kept as it is, and the forward flow dependence on
        ``X[i-1]`` gets its wait and signal."""
        prev = ir.Bin("-", V("i"), C(1))
        visit = (
            ir.If(ir.Bin("<", C(0), V("i")),
                  then=(ir.Assign("top", ir.NodeGet("X", (prev,))),),
                  orelse=(ir.Assign("top", C(0)),)),
            ir.NodeSet("X", (V("i"),), V("top")),
        )
        prog = ir.register_program(ir.Program("pl-fwd", (
            ir.For("i", C(4), (
                ir.Assign("edge", C(None)),
                ir.For("j", C(2), (ir.HopStmt((V("j"),)),) + visit),
            )),
        )), replace=True)
        suite = pipelining(prog, PipelineSpec(
            outer="i", main_name="pl-fwd-pipe",
            carrier_name="pl-fwd-carrier", inject_at=(C(0),)))
        body = suite.carrier.body
        assert body[0] == ir.Assign("edge", C(None))
        tour = body[1]
        assert tour.body[0] == ir.HopStmt((V("j"),))
        guard = tour.body[1]
        assert guard.then == (
            ir.WaitStmt("X-done", (prev,)),
            ir.Assign("top", ir.NodeGet("X", (prev,))),
        )
        assert tour.body[2:] == (
            ir.NodeSet("X", (V("i"),), V("top")),
            ir.SignalStmt("X-done", (V("i"),)),
        )

    def test_backward_dependence_refused(self):
        prog = ir.Program("kp-backward", (
            ir.For("i", C(4), (
                ir.HopStmt((V("i"),)),
                ir.ComputeStmt(
                    "copy",
                    (ir.NodeGet("X", (ir.Bin("+", V("i"), C(1)),)),),
                    out="t"),
                ir.NodeSet("X", (V("i"),), V("t")),
            )),
        ))
        with pytest.raises(TransformError,
                           match="not a forward flow dependence"):
            pipelining(prog, PipelineSpec(
                outer="i", main_name="kp-backward-pipe",
                carrier_name="kp-backward-carrier",
                inject_at=(C(0),)))

    def test_varying_distance_refused(self):
        prog = ir.Program("kp-varying", (
            ir.For("i", C(4), (
                ir.HopStmt((V("i"),)),
                ir.ComputeStmt("copy", (ir.NodeGet("X", (V("i"),)),),
                               out="t"),
                ir.NodeSet("X", (ir.Bin("*", C(2), V("i")),), V("t")),
            )),
        ))
        with pytest.raises(TransformError,
                           match="not a forward flow"):
            pipelining(prog, PipelineSpec(
                outer="i", main_name="kp-varying-pipe",
                carrier_name="kp-varying-carrier",
                inject_at=(C(0),)))


class TestPhaseShiftStructure:
    def test_output_matches_figure9(self):
        nb = 3
        program = dsc(sequential_program(nb, name="fig9-src"), DSCSpec(
            loop="mj", place=(V("mj"),),
            carries={"mA": ir.NodeGet("A", (V("mi"),))},
            pickup_cond=ir.Bin("==", V("mj"), C(0)),
        ), name="fig9-dsc")
        suite = pipelining(program, PipelineSpec(
            outer="mi", main_name="fig9-dsc-pipe",
            carrier_name="fig9-carrier", inject_at=(C(0),)))
        sched = ir.Bin("%", ir.Bin("+", ir.Bin("-", C(nb - 1), V("mi")),
                                   V("mj")), C(nb))
        shifted = phase_shift(suite, PhaseShiftSpec(
            start_place=(V("mi"),), schedule=sched, tour="mj"))

        # main: do mi: hop(node(mi)); inject(carrier(mi))   (Figure 9)
        loop = shifted.main.body[0]
        assert loop.body[0] == ir.HopStmt((V("mi"),))
        assert isinstance(loop.body[1], ir.InjectStmt)
        # carrier tour hops node((N-1-mi+mj) % N)
        tour = shifted.carrier.body[1]
        assert tour.body[0] == ir.HopStmt((sched,))

    def test_requires_pipelined_shape(self):
        seq = sequential_program(3, name="ps-bad")
        fake = pipelining.__wrapped__ if hasattr(pipelining, "__wrapped__") \
            else None
        suite_like = type("S", (), {"main": seq, "carrier": seq})()
        with pytest.raises(TransformError):
            phase_shift(suite_like, PhaseShiftSpec(
                start_place=(V("mi"),), schedule=V("mj"), tour="mj"))
