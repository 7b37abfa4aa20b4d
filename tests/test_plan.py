"""The transformation planner: rediscovery, goldens, emitted-IR properties."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TransformError
from repro.machine.presets import get_preset
from repro.navp import ir
from repro.plan import make_plan, plan_to_dict, render_plan
from repro.transform.deps import check_race_free

GOLDENS = Path(__file__).parent / "goldens" / "plans"

V = ir.Var
C = ir.Const


@pytest.fixture(scope="module")
def sun():
    return get_preset("sun-blade-100")


@pytest.fixture(scope="module")
def matmul_plan(sun):
    return make_plan("navp-matmul", sun, validate=False)


@pytest.fixture(scope="module")
def wavefront_plan(sun):
    return make_plan("navp-wavefront", sun, validate=False)


class TestMatmulRediscovery:
    """The planner must re-derive the paper's Section 3 sequence."""

    def test_sequence_is_the_papers(self, matmul_plan):
        assert matmul_plan.sequence == ("dsc", "pipeline", "phase-shift")

    def test_dsc_follows_the_j_loop(self, matmul_plan):
        stage = matmul_plan.stages[1]
        chosen = [c for c in stage.candidates if c.viable]
        assert [c.subject for c in chosen] == ["mj"]

    def test_dsc_rejections_name_their_reasons(self, matmul_plan):
        stage = matmul_plan.stages[1]
        rejected = {c.subject: c.detail for c in stage.candidates
                    if not c.viable}
        # mi: B[k, mj] would have to be carried but its key varies
        assert "varies inside the tour" in rejected["mi"]
        # k: the product write lives outside the k loop
        assert "outside the 'k' loop" in rejected["k"]

    def test_phase_shift_prefers_reverse_staggering(self, matmul_plan):
        stage = matmul_plan.stages[3]
        chosen = [c for c in stage.candidates if c.viable]
        assert chosen[0].subject == "reverse"
        assert chosen[0].extras["phases"] == 2
        forward = next(c for c in stage.candidates
                       if c.subject == "forward")
        assert forward.extras["phases"] == 3

    def test_predictions_track_the_paper_shape(self, matmul_plan):
        seq, dsc, pipe, phase = [s.predicted_s
                                 for s in matmul_plan.stages]
        # DSC alone is slightly slower than sequential (Table 1);
        # pipelining wins, phase shifting wins more
        assert dsc > seq
        assert pipe < seq
        assert phase < pipe
        assert matmul_plan.speedup > 2.5

    def test_every_stage_emits_registered_programs(self, matmul_plan):
        for stage in matmul_plan.stages:
            for name in stage.programs:
                assert name in ir.REGISTRY


class TestWavefrontRediscovery:
    def test_sequence_is_keyed_pipelining(self, wavefront_plan):
        assert wavefront_plan.sequence == ("keyed-pipeline",)

    def test_plain_pipelining_rejected_with_the_vector(
            self, wavefront_plan):
        stage = wavefront_plan.stages[1]
        plain = next(c for c in stage.candidates
                     if c.transform == "pipeline")
        assert not plain.viable
        assert "distance +1 over 'r'" in plain.detail

    def test_keyed_choice_cites_the_forward_flow(self, wavefront_plan):
        stage = wavefront_plan.stages[1]
        assert "forward flow dependence" in stage.chosen
        assert "'bottom' at distance +1" in stage.chosen

    def test_report_renders(self, wavefront_plan):
        text = render_plan(wavefront_plan, emit_ir=True)
        assert "sequence: sequential -> keyed-pipeline" in text
        assert "wait(bottom-done" in text
        assert "signal(bottom-done" in text


class TestGoldenPlans:
    """Full plans (validation included) are pinned bit-for-bit."""

    @pytest.mark.parametrize("target",
                             ["navp-matmul", "navp-wavefront"])
    def test_plan_matches_golden(self, target, sun):
        got = plan_to_dict(make_plan(target, sun))
        want = json.loads((GOLDENS / f"{target}.json").read_text())
        assert got == want


class TestEmittedIRProperties:
    """The property the plan claims: race-free and bit-identical."""

    def test_matmul_final_ir_race_free_and_bit_identical(
            self, matmul_plan):
        from repro.transform.examples import (
            layout_phase,
            layout_sequential,
        )
        from repro.transform.verify import run_stage
        from repro.util.validation import random_matrix

        nb, ab = 3, 8
        n = nb * ab
        a, b = random_matrix(n, 17), random_matrix(n, 18)
        main = ir.get_program(matmul_plan.final_stage.programs[0])
        check_race_free(main)
        seq = ir.get_program(matmul_plan.stages[0].programs[0])
        c_seq, _ = run_stage(seq, layout_sequential(a, b, nb),
                             1, nb, ab)
        c_phase, _ = run_stage(main, layout_phase(a, b, nb),
                               nb, nb, ab)
        assert np.array_equal(c_seq, c_phase)

    @pytest.mark.parametrize("fabric",
                             ["sim", "thread", "process", "socket"])
    def test_wavefront_ir_bitwise_on_every_fabric(self, fabric):
        from repro.wavefront.navp import run_wavefront_program
        from repro.wavefront.problem import WavefrontCase, reference_solve

        plan = make_plan("navp-wavefront", get_preset("fast-test"),
                         geometry=2, validate=False)
        main = plan.final_stage.programs[0]
        check_race_free(ir.get_program(main))
        # shape must match the target (the program embeds b): n=32, b=8
        case = WavefrontCase(n=32, b=8, seed=11)
        got = run_wavefront_program(main, case, 2, trace=False,
                                    fabric=fabric)
        assert np.array_equal(got.d, reference_solve(case.weights()))


class TestKeyedPipelineGate:
    def test_unknown_target_is_a_transform_error(self, sun):
        with pytest.raises(TransformError, match="unknown plan target"):
            make_plan("no-such-target", sun)

    def test_nondividing_geometry_refused(self, sun):
        with pytest.raises(TransformError, match="does not divide"):
            make_plan("navp-wavefront", sun, geometry=5)
