"""The wavefront case study: correctness, events, pipeline behaviour,
and the dependence-driven limits of the transformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import visitor
from repro.errors import DeadlockError, TransformError
from repro.machine import FAST_TEST_MACHINE
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.transform import check_loop_independent
from repro.util.validation import assert_allclose
from repro.wavefront import (
    WavefrontCase,
    build_wavefront_ir,
    pipeline_time_model,
    reference_solve,
    run_dsc_wavefront,
    run_mpi_wavefront,
    run_pipelined_wavefront,
    run_sequential_wavefront,
    solve_block,
)

V = ir.Var
C = ir.Const


class TestBlockKernel:
    def test_whole_table_as_one_block(self):
        case = WavefrontCase(n=8, b=8)
        w = case.weights()
        assert np.allclose(solve_block(w), reference_solve(w))

    def test_block_composition(self):
        """Solving 2x2 blocks with boundary passing equals the whole."""
        case = WavefrontCase(n=8, b=4)
        w = case.weights()
        full = reference_solve(w)
        top_left = solve_block(w[:4, :4])
        top_right = solve_block(w[:4, 4:], left=top_left[:, -1])
        bottom_left = solve_block(w[4:, :4], top=top_left[-1, :])
        bottom_right = solve_block(w[4:, 4:], top=top_right[-1, :],
                                   left=bottom_left[:, -1])
        assert np.allclose(top_left, full[:4, :4])
        assert np.allclose(top_right, full[:4, 4:])
        assert np.allclose(bottom_left, full[4:, :4])
        assert np.allclose(bottom_right, full[4:, 4:])

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_defining_recurrence_holds(self, bi, bj, seed):
        """Every interior cell satisfies D = w + min(up, left); the
        first row and column are running sums."""
        rng = np.random.default_rng(seed)
        w = rng.random((bi * 2, bj * 2))
        out = solve_block(w)
        assert np.allclose(out[0, :], np.cumsum(w[0, :]))
        assert np.allclose(out[:, 0], np.cumsum(w[:, 0]))
        for i in range(1, out.shape[0]):
            for j in range(1, out.shape[1]):
                assert out[i, j] == pytest.approx(
                    w[i, j] + min(out[i - 1, j], out[i, j - 1]))
        assert (out >= w - 1e-12).all()

    def test_shadow(self):
        from repro.util.shadow import ShadowArray

        out = solve_block(ShadowArray((4, 6)))
        assert out.shape == (4, 6)


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_dsc(self, p):
        case = WavefrontCase(n=24, b=4)
        result = run_dsc_wavefront(case, p)
        assert_allclose(result.d, case.reference(), what=f"dsc p={p}")

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_pipelined(self, p):
        case = WavefrontCase(n=24, b=4)
        result = run_pipelined_wavefront(case, p)
        assert_allclose(result.d, case.reference(), what=f"pipe p={p}")

    @pytest.mark.parametrize("p", [2, 3])
    def test_mpi(self, p):
        case = WavefrontCase(n=24, b=4)
        result = run_mpi_wavefront(case, p)
        assert_allclose(result.d, case.reference(), what=f"mpi p={p}")

    def test_sequential(self):
        case = WavefrontCase(n=16, b=4)
        result = run_sequential_wavefront(case)
        assert_allclose(result.d, case.reference())

    def test_on_thread_fabric(self):
        case = WavefrontCase(n=24, b=4)
        result = run_pipelined_wavefront(case, 3, fabric="thread")
        assert_allclose(result.d, case.reference())


class TestPinnedStages:
    """Every stage at n=48, b=4: modeled times by ``float.hex``, and
    the three tables bit-for-bit equal."""

    SEQUENTIAL = "0x1.07119ce075f6ep-13"
    DSC_PIPE = {1: ("0x1.7f3150dae3e6dp-12", "0x1.43cea93f290aep-9"),
                3: ("0x1.1fe954f3775b9p-5", "0x1.2798d9e83e428p-8"),
                4: ("0x1.823727e521577p-5", "0x1.6a719c8c9320fp-8")}

    @pytest.mark.parametrize("p", sorted(DSC_PIPE))
    def test_modeled_times_pinned(self, p):
        case = WavefrontCase(n=48, b=4)
        seq = run_sequential_wavefront(case, trace=False)
        dsc = run_dsc_wavefront(case, p, trace=False)
        pipe = run_pipelined_wavefront(case, p, trace=False)
        assert seq.time.hex() == self.SEQUENTIAL
        assert (dsc.time.hex(), pipe.time.hex()) == self.DSC_PIPE[p]
        assert pipe.d.tobytes() == dsc.d.tobytes() == seq.d.tobytes()


def drop_waits(program: ir.Program, name: str) -> ir.Program:
    """``program`` minus every wait, named ``name`` (not registered)."""
    def strip(body):
        out = []
        for stmt in body:
            if isinstance(stmt, ir.WaitStmt):
                continue
            rule = visitor.try_stmt_rule(stmt)
            bodies = rule.bodies(stmt)
            if bodies:
                stmt = rule.rebuild(stmt, rule.exprs(stmt),
                                    tuple(strip(sub) for _, sub in bodies))
            out.append(stmt)
        return tuple(out)

    return ir.Program(name, strip(program.body), program.params)


class TestSynchronization:
    """The derived carrier's ``bottom-done`` handshake is what enforces
    the dependence."""

    def _run(self, case, carrier, rows):
        """Inject one ``carrier`` per entry of ``rows``, in that order,
        on 3 PEs whose stores hold stale (zero) bottom rows."""
        from repro.fabric import Grid1D, SimFabric
        from repro.wavefront.navp import _gather, _layout

        main = ir.register_program(ir.Program(
            f"{carrier.name}-rows-{'-'.join(map(str, rows))}",
            (ir.HopStmt((C(0),)),) + tuple(
                ir.InjectStmt(carrier.name, (("r", C(r)),))
                for r in rows)), replace=True)
        fabric = SimFabric(Grid1D(3), machine=FAST_TEST_MACHINE)
        _layout(fabric, case, 3)
        for c in range(3):
            fabric.load((c,), bottom={
                r: np.zeros(case.n // 3) for r in range(case.nblocks)})
        fabric.inject((0,), IRMessenger(main.name))
        return _gather(fabric.run(), case, 3)

    def test_events_make_injection_order_irrelevant(self):
        """Inject the carriers in REVERSE row order over stale bottom
        rows. With the wait the result is still exact (carriers wait
        for their predecessors); without it the table is corrupt (rows
        compute against the stale top boundaries)."""
        case = WavefrontCase(n=24, b=4)
        _main, carrier = build_wavefront_ir(3, case.nblocks, case.b)
        racy = ir.register_program(
            drop_waits(carrier, "wf-racy-carrier"), replace=True)
        rows = tuple(reversed(range(case.nblocks)))
        guarded = self._run(case, carrier, rows)
        assert np.allclose(guarded, case.reference())
        unguarded = self._run(case, racy, rows)
        assert not np.allclose(unguarded, case.reference())

    def test_deadlock_if_prior_row_missing(self):
        """A lone carrier for row 1 waits forever on bottom-done(0)."""
        case = WavefrontCase(n=12, b=4)
        _main, carrier = build_wavefront_ir(3, case.nblocks, case.b)
        with pytest.raises(DeadlockError):
            self._run(case, carrier, (1,))


class TestDerivation:
    def test_build_analyzes_the_row_loop_once(self):
        """The legality check hands its loop analysis to the
        transformation; nothing analyzes the row loop a second time."""
        import sys

        from repro.analysis.deps import analyze_loop

        calls = []

        def count(frame, event, _arg):
            if event == "call" and frame.f_code is analyze_loop.__code__:
                calls.append(frame.f_locals["loop_var"])

        sys.setprofile(count)
        try:
            build_wavefront_ir(3, 4, 4)
        finally:
            sys.setprofile(None)
        assert calls == ["r"]


class TestTimingShape:
    def test_pipeline_matches_fill_model(self):
        case = WavefrontCase(n=2048, b=64, shadow=True)
        for p in (2, 4, 8):
            sim = run_pipelined_wavefront(case, p, trace=False).time
            model = pipeline_time_model(case, p)
            assert sim == pytest.approx(model, rel=0.1), p

    def test_pipelining_improves_on_dsc(self):
        case = WavefrontCase(n=2048, b=64, shadow=True)
        dsc = run_dsc_wavefront(case, 4, trace=False).time
        pipe = run_pipelined_wavefront(case, 4, trace=False).time
        assert pipe < dsc / 2

    def test_speedup_tracks_fill_formula(self):
        """speedup ~= R*p / (R + p - 1) for R block rows on p PEs."""
        case = WavefrontCase(n=2048, b=64, shadow=True)
        seq = run_sequential_wavefront(case, trace=False).time
        r_blocks = case.nblocks
        for p in (2, 4):
            pipe = run_pipelined_wavefront(case, p, trace=False).time
            ideal = r_blocks * p / (r_blocks + p - 1)
            assert seq / pipe == pytest.approx(ideal, rel=0.12)

    def test_navp_pipeline_tracks_mpi(self):
        """For wavefronts the two paradigms coincide structurally."""
        case = WavefrontCase(n=2048, b=64, shadow=True)
        pipe = run_pipelined_wavefront(case, 4, trace=False).time
        mpi = run_mpi_wavefront(case, 4, trace=False).time
        assert pipe == pytest.approx(mpi, rel=0.15)


class TestTransformRefusal:
    """The framework must refuse what the dependences forbid."""

    def _wavefront_ir(self):
        # fine-grained wavefront: D(r,c) = w(r,c) + min over D(r-1,c),
        # D(r,c-1) — expressed only as far as the dependence shape needs
        return ir.register_program(ir.Program("wf-seq-ir", (
            ir.For("r", C(4), (
                ir.For("c", C(4), (
                    ir.ComputeStmt(
                        "copy",
                        (ir.NodeGet("D", (ir.Bin("-", V("r"), C(1)),
                                          V("c"))),),
                        out="up"),
                    ir.NodeSet("D", (V("r"), V("c")), V("up")),
                )),
            )),
        )), replace=True)

    def test_row_loop_not_pipelinable(self):
        """check_loop_independent catches the D[r-1] flow dependence."""
        program = self._wavefront_ir()
        with pytest.raises(TransformError, match="dependence"):
            check_loop_independent(program, "r")

    def test_matmul_loop_still_passes(self):
        from repro.transform import sequential_program

        check_loop_independent(sequential_program(3, name="wf-mm"), "mi")
