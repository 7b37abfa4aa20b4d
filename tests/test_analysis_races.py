"""Static data-race detection (analysis.races).

The contract under test: every seeded corpus race is caught, with the
expected variables and nothing else; every golden paper program —
matmul chains, 2-D figures, the wavefront pipeline — verifies clean;
and the transformations refuse to emit a suite the analyzer rejects.
"""

import pytest

from repro.analysis import visitor
from repro.analysis.corpus import RACY_CORPUS, run_case
from repro.analysis.lint import _injected_names, seed_paper_programs
from repro.analysis.races import analyze_races, race_diagnostics
from repro.cli import main
from repro.errors import TransformError
from repro.navp import ir
from repro.transform.deps import check_race_free
from repro.wavefront.irprog import build_wavefront_ir

from .test_wavefront import drop_waits

V = ir.Var
C = ir.Const


def _case(name):
    return next(c for c in RACY_CORPUS if c.name == name)


class TestRacyCorpus:
    def test_the_five_seeded_defects(self):
        assert sorted(c.name for c in RACY_CORPUS) == [
            "bad-dropped-wait", "bad-key-alias",
            "bad-nonaffine-alias", "bad-reduction-order",
            "bad-unsignaled-write"]

    @pytest.mark.parametrize("case", RACY_CORPUS, ids=lambda c: c.name)
    def test_flagged_as_data_race(self, case):
        report = run_case(case)
        assert report.errors
        assert all(d.category == "data-race" for d in report)

    @pytest.mark.parametrize("case", RACY_CORPUS, ids=lambda c: c.name)
    def test_exactly_the_seeded_variables_race(self, case):
        analysis = analyze_races(
            case.registry[case.root], registry=case.registry,
            primed=case.primed)
        assert {race.a.var for race in analysis.races} \
            == set(case.racy_vars)

    def test_dropped_wait_needs_priming_knowledge(self):
        # the producer's wait(EC) *looks* like an ordering edge; only
        # knowing EC receives setup-time signals reveals that the token
        # it consumes carries no ordering at all
        case = _case("bad-dropped-wait")
        root = case.registry[case.root]
        assert analyze_races(root, registry=case.registry).ok
        assert not analyze_races(root, registry=case.registry,
                                 primed=case.primed).ok

    def test_commutative_keys_normalize_alike(self):
        # the bad-key-alias defense: k+1 and 1+k are the same entry
        a = visitor.normalize_key((ir.Bin("+", V("k"), C(1)),))
        b = visitor.normalize_key((ir.Bin("+", C(1), V("k")),))
        assert a == b


class TestPaperProgramsClean:
    @pytest.fixture(scope="class", autouse=True)
    def seeded(self):
        seed_paper_programs(3)

    def test_every_root_verifies_race_free(self):
        injected = _injected_names(ir.REGISTRY)
        roots = [name for name in sorted(ir.REGISTRY)
                 if name not in injected
                 and not name.startswith("random-prog")]
        assert roots  # the seeding registered something
        for name in roots:
            report = race_diagnostics(ir.get_program(name))
            assert not report.errors, (name, report.errors)


def _wavefront_registry(drop_wait: bool):
    """The derived pipelined wavefront, optionally minus its wait."""
    main, carrier = build_wavefront_ir(3, 4, 4)
    if drop_wait:
        carrier = drop_waits(carrier, carrier.name)
    return {carrier.name: carrier, main.name: main}, main.name


class TestWavefrontChain:
    def test_keyed_handshake_proves_the_chain_ordered(self):
        registry, root = _wavefront_registry(drop_wait=False)
        assert analyze_races(registry[root], registry=registry).ok

    def test_dropping_the_wait_surfaces_the_chain_race(self):
        registry, root = _wavefront_registry(drop_wait=True)
        analysis = analyze_races(registry[root], registry=registry)
        assert analysis.races
        assert {race.a.var for race in analysis.races} == {"bottom"}
        assert {race.kind for race in analysis.races} == {"read-write"}


class TestTransformGate:
    def test_racy_suite_is_rejected(self):
        case = _case("bad-unsignaled-write")
        with pytest.raises(TransformError) as exc:
            check_race_free(case.registry[case.root],
                            registry=case.registry)
        assert "race on node variable" in str(exc.value)

    def test_derived_pipeline_passes_the_gate(self):
        # pipelining()/phase_shift() run this gate themselves; calling
        # it again directly documents the post-condition
        from repro.transform.examples import derive_full_chain
        derive_full_chain(3)
        assert check_race_free(ir.get_program("mm-seq-3-dsc-pipe")) is None
        assert check_race_free(ir.get_program("mm-seq-3-dsc-phase")) is None


def test_cli_lint_all_with_races(capsys):
    assert main(["lint", "--all", "--races"]) == 0
    assert "0 error(s)" in capsys.readouterr().out
