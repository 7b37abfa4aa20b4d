"""The protocol model checker: verdicts, paper programs, cross-validation.

The acceptance contract this file pins down:

* every liveness corpus case gets its intended verdict;
* the paper's winning programs VERIFY quickly, with exact mailbox
  peaks far under the socket window (explored-state counts are pinned
  as a regression guard on the abstraction);
* the checker's headline finding — the Figure 15 phase-shifted
  protocol has a reachable deadlock — reproduces dynamically on
  SimFabric with a single delayed hop;
* DEADLOCK verdicts come with schedules, and fabrics quote the
  verdict inside their DeadlockError messages.
"""

import json

import pytest

from repro.analysis.corpus import LIVENESS_CORPUS
from repro.analysis.lint import (
    paper_mc_contexts,
    root_entry_coord,
    seed_paper_programs,
)
from repro.analysis.protocol_mc import (
    DEFAULT_WINDOW,
    mc_diagnostics,
    model_check,
    runtime_deadlock_hint,
)
from repro.errors import DeadlockError, TransformError
from repro.navp import ir


@pytest.fixture(scope="module")
def paper():
    seed_paper_programs(3)
    from repro.matmul.irgentleman import build_gentleman_ir
    build_gentleman_ir(3)
    return paper_mc_contexts(3)


def _case(name):
    return next(c for c in LIVENESS_CORPUS if c.name == name)


def _check(case, **kw):
    kw.setdefault("window", case.window if case.window is not None
                  else DEFAULT_WINDOW)
    return model_check(case.root, case.registry, entry=case.entry,
                       places=case.places,
                       initial_signals=case.initial_signals, **kw)


class TestCorpusVerdicts:
    def test_credit_starvation_is_gated_only(self):
        res = _check(_case("bad-credit-window"))
        assert res.status == "CREDIT-DEADLOCK"
        assert res.deadlock_free is True          # ungated semantics
        assert res.gated_deadlock_free is False   # window=1 semantics
        assert res.counterexample_regime == "gated"
        assert "credit" in res.counterexample.describe()

    def test_token_steal_deadlocks_with_schedule(self):
        res = _check(_case("bad-token-steal"))
        assert res.status == "DEADLOCK"
        assert res.deadlock_free is False
        text = res.counterexample.describe()
        assert "stuck:" in text and "DONE" in text

    def test_hidden_cycle_deadlocks(self):
        res = _check(_case("bad-hidden-cycle"))
        assert res.status == "DEADLOCK"
        assert res.counterexample is not None

    def test_orphan_leak_flagged(self):
        res = _check(_case("bad-orphan-signal"))
        assert res.status == "ORPHANS"
        assert res.deadlock_free is True
        assert res.orphans and res.orphans[0][1] == 1  # one token over

    def test_clean_control_verifies(self):
        res = _check(_case("good-mc-clean"))
        assert res.status == "VERIFIED"
        assert res.ok
        assert res.bounded is True

    def test_schedules_serialize(self):
        res = _check(_case("bad-hidden-cycle"))
        payload = res.to_json()
        assert payload["status"] == "DEADLOCK"
        assert payload["counterexample"]["blocked"]
        json.dumps(payload)  # must be JSON-clean end to end


# Pinned explored-state counts: the DFS is deterministic, so drift
# here means the abstraction or the reduction changed — re-justify
# and re-pin, don't relax.
PINNED = {
    "mm-seq-3-dsc-phase": (4, 5, 3),
    "wf-pipe-3x4b4": (5, 2, 4),
    "gent-main-3": (28, 10, 6),
    "fig11-main-3": (7, 4, 2),
}


class TestPaperProgramsVerified:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_verified_with_pinned_statespace(self, name, paper):
        threads, total_states, mailbox = PINNED[name]
        ctx = paper.get(name, {})
        res = model_check(
            name,
            entry=ctx.get("entry",
                          root_entry_coord(ir.get_program(name))),
            initial_signals=ctx.get("initial_signals", ()),
            deadline_s=10.0)
        assert res.status == "VERIFIED", res.summary()
        assert res.threads == threads
        assert res.stats["total_states"] == total_states
        assert res.max_mailbox_depth == mailbox
        assert res.bounded is True and mailbox <= res.window
        # all peaks clear the window, so the gated semantics is
        # provably identical to the ungated one — no Pass C needed
        assert res.gate_transparent is True

    def test_por_actually_reduces(self, paper):
        res = model_check("gent-main-3", entry=(0, 0))
        assert res.stats["reduction_factor"] > 2.0

    def test_summaries_count_every_pass(self, paper):
        # pass A alone is 1 state of fig11's 4; the one-line verdicts
        # quote the whole verdict, as the planner's stats do
        total = PINNED["fig11-main-3"][1]
        res = model_check("fig11-main-3", entry=(0, 0))
        assert res.stats["states"] < total
        assert f"{total} states explored" in res.summary()
        hint = runtime_deadlock_hint([("fig11-main-3", (0, 0), {})])
        assert f"deadlock-free ({total} states)" in hint


class TestVerdictDeadline:
    def test_deadline_budgets_the_whole_verdict(self, monkeypatch):
        # mpi-gentleman g=3 runs pass A plus nine mailbox passes. On a
        # clock that jumps 2 s per reading, no single pass outlives
        # 10 s, but the verdict as a whole does
        from types import SimpleNamespace

        from repro.analysis import protocol_mc, statespace
        from repro.serve.catalog import admission_verdict

        now = [0.0]

        def monotonic():
            now[0] += 2.0
            return now[0]

        clock = SimpleNamespace(monotonic=monotonic)
        monkeypatch.setattr(protocol_mc, "time", clock)
        monkeypatch.setattr(statespace, "time", clock)
        res = admission_verdict.__wrapped__("mpi-gentleman", 3,
                                            deadline_s=10.0)
        assert res.status == "INCONCLUSIVE"
        assert res.detail == ("mailbox@(1, 2) pass capped: "
                              "verdict deadline exceeded")
        done = [name for name, p in res.stats["passes"].items()
                if p["complete"]]
        assert done == ["interleave", "mailbox@(0, 0)", "mailbox@(0, 1)",
                        "mailbox@(0, 2)", "mailbox@(1, 0)",
                        "mailbox@(1, 1)"]
        # the passes after the one that ran out gave up on entry
        assert now[0] <= 10.0 + 2.0 * len(res.stats["passes"])

    def test_probe_shape_reads_inconclusive_from_pass_a(self):
        from repro.serve.catalog import admission_verdict

        res = admission_verdict.__wrapped__("navp-2d-pipeline", 3,
                                            deadline_s=0.2)
        assert res.status == "INCONCLUSIVE"
        assert res.detail.startswith("interleaving pass capped: ")
        assert list(res.stats["passes"]) == ["interleave"]

    def test_deadline_advice_names_the_deadline(self, paper):
        ctx = paper["fig13-main-3"]
        res = model_check("fig13-main-3", entry=ctx["entry"],
                          initial_signals=ctx["initial_signals"],
                          deadline_s=0.0)
        assert res.detail == ("interleaving pass capped: "
                              "verdict deadline exceeded")
        (diag,) = mc_diagnostics("fig13-main-3", result=res)
        assert diag.category == "state-space-cap"
        assert diag.message.endswith(
            "(the verdict deadline ran out, not the state cap)")


class TestFig15Finding:
    """The checker's headline: Figure 15 is only deadlock-free by luck.

    The phase-shifted 2-D protocol keeps a one-slot EC/EP[k] handshake
    per place; a B-carrier with the wrong k grabbing the free slot out
    of order creates a cyclic wait. Uniform hop timing hides it —
    delaying a single hop exposes it.
    """

    def test_static_deadlock_with_schedule(self, paper):
        ctx = paper["fig15-main-3"]
        res = model_check("fig15-main-3", entry=ctx["entry"],
                          initial_signals=ctx["initial_signals"])
        assert res.status == "DEADLOCK"
        text = res.counterexample.describe()
        assert "stuck:" in text

    def test_fig13_ordering_inconclusive_under_caps(self, paper):
        # fig13's k-ordered handshake fans into a far larger state
        # space (pass A alone takes 192 154 states); under caps it
        # cannot meet the honest answer is INCONCLUSIVE, not VERIFIED
        # and not DEADLOCK
        ctx = paper["fig13-main-3"]
        res = model_check("fig13-main-3", entry=ctx["entry"],
                          initial_signals=ctx["initial_signals"],
                          max_states=5_000, deadline_s=2.0)
        assert res.status == "INCONCLUSIVE"

    def test_single_delayed_hop_reproduces_on_sim(self, paper):
        from dataclasses import replace

        from repro.machine.presets import FAST_TEST_MACHINE
        from repro.matmul.ir2d import build_fig15, run_ir2d_suite
        from repro.resilience import FaultPlan, MessageFault
        from repro.resilience.faults import injected

        zero = replace(FAST_TEST_MACHINE, inject_overhead_s=0.0,
                       event_overhead_s=0.0)
        plan = FaultPlan(faults=(MessageFault(
            action="delay", kind="hop", nth=5, seconds=0.05),))
        with pytest.raises(DeadlockError) as err:
            with injected(plan, recovery=False):
                run_ir2d_suite(build_fig15(3), "sim", machine=zero)
        # the fabric's post-mortem quotes the static verdict
        assert "reachable in the program itself" in str(err.value)


class TestCrossValidation:
    """Static verdict vs fuzzed SimFabric schedules, per corpus case."""

    def _fuzz(self, name, seeds=tuple(range(20))):
        from repro.fabric.fuzz import fuzz_deadlocks
        return fuzz_deadlocks(_case(name), seeds=seeds)

    def test_hidden_cycle_deadlocks_every_schedule(self):
        deadlocked, clean = self._fuzz("bad-hidden-cycle",
                                       seeds=tuple(range(5)))
        assert not clean

    def test_token_steal_is_schedule_dependent(self):
        deadlocked, clean = self._fuzz("bad-token-steal")
        assert deadlocked, "DEADLOCK verdict must reproduce dynamically"
        assert clean, "the steal depends on the schedule"

    @pytest.mark.parametrize("name", ["bad-credit-window",
                                      "bad-orphan-signal",
                                      "good-mc-clean"])
    def test_ungated_clean_cases_never_deadlock(self, name):
        # bad-credit-window's verdict is gated-only — SimFabric has no
        # credit window, so running clean here *is* the confirmation
        deadlocked, _clean = self._fuzz(name, seeds=tuple(range(10)))
        assert not deadlocked


class TestRuntimeHints:
    def test_sim_deadlock_quotes_reachable_verdict(self):
        from repro.fabric.fuzz import run_corpus_case
        with pytest.raises(DeadlockError) as err:
            run_corpus_case(_case("bad-hidden-cycle"))
        assert "reachable in the program itself" in str(err.value)

    def test_fault_deadlock_exonerates_the_program(self):
        from repro.fabric import Grid1D, SimFabric
        from repro.navp.interp import IRMessenger
        from repro.resilience import FaultPlan, MessageFault

        C = ir.Const
        ir.register_program(ir.Program("mc-hint-producer", (
            ir.HopStmt((C(1),)),
            ir.SignalStmt("EP", (), C(1)),
        ), ()), replace=True)
        ir.register_program(ir.Program("mc-hint-consumer", (
            ir.WaitStmt("EP", ()),
        ), ()), replace=True)
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=1),))
        fabric = SimFabric(Grid1D(2), trace=False, faults=plan,
                           recovery=False)
        fabric.inject((0,), IRMessenger("mc-hint-producer"))
        fabric.inject((1,), IRMessenger("mc-hint-consumer"))
        with pytest.raises(DeadlockError) as err:
            fabric.run()
        text = str(err.value)
        assert "statically proven deadlock-free" in text
        assert "suspect the fabric or fault layer" in text

    def test_thread_fabric_quotes_verdict(self):
        from repro.fabric import Grid1D
        from repro.fabric.threads import ThreadFabric
        from repro.navp.interp import IRMessenger

        ir.register_program(ir.Program("mc-hint-stuck", (
            ir.WaitStmt("NEVER", ()),
        ), ()), replace=True)
        fabric = ThreadFabric(Grid1D(2), trace=False)
        fabric.inject((0,), IRMessenger("mc-hint-stuck"))
        with pytest.raises(DeadlockError) as err:
            fabric.run(timeout=1.0)
        assert "reachable in the program itself" in str(err.value)

    def test_controller_hint_uses_shipped_closure(self):
        from repro.fabric import Grid1D
        from repro.fabric.controller import mc_hint
        from repro.fabric.socket import SocketFabric

        ir.register_program(ir.Program("mc-hint-stuck", (
            ir.WaitStmt("NEVER", ()),
        ), ()), replace=True)
        fabric = SocketFabric(Grid1D(2))
        fabric.inject((0,), "mc-hint-stuck")
        ir.register_program(ir.Program("mc-hint-stuck", (), ()),
                            replace=True)
        hint = mc_hint([(name, coord, env)
                        for coord, name, env in fabric._initial],
                       fabric._signals, fabric._programs.values(),
                       fabric.window)
        assert "reachable in the program itself" in hint

    def test_hint_is_silent_without_roots(self):
        assert runtime_deadlock_hint([], ()) is None


class TestPlannerGate:
    def test_deadlocking_winner_is_refused(self):
        from repro.plan.planner import _mc_gate

        prog = ir.register_program(ir.Program("mc-gate-bad", (
            ir.WaitStmt("NEVER", ()),
        ), ()), replace=True)
        with pytest.raises(TransformError) as err:
            _mc_gate(prog)
        assert "failed protocol model checking" in str(err.value)

    def test_verified_winner_reports_stats(self, paper):
        from repro.plan.planner import _mc_gate

        out = _mc_gate(ir.get_program("mm-seq-3-dsc-phase"))
        assert out["protocol_mc"] == "VERIFIED"
        assert out["protocol_mc_states"] == PINNED[
            "mm-seq-3-dsc-phase"][1]


class TestLintCLI:
    def test_verified_roots_exit_zero(self, paper, capsys):
        from repro.cli import main

        code = main(["lint", "mm-seq-3-dsc-phase", "wf-pipe-3x4b4",
                     "--protocol-mc", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        mc = out["protocol_mc"]
        assert mc["mm-seq-3-dsc-phase"]["status"] == "VERIFIED"
        assert mc["wf-pipe-3x4b4"]["status"] == "VERIFIED"
        assert mc["wf-pipe-3x4b4"]["stats"]["total_states"] == PINNED[
            "wf-pipe-3x4b4"][1]

    def test_state_cap_is_the_only_bound(self, paper, monkeypatch,
                                         capsys):
        # no wall-clock deadline: the verdict may not depend on how
        # busy the host is
        from repro.analysis import protocol_mc
        from repro.cli import main

        seen = []

        def spy(*args, **kwargs):
            seen.append((kwargs["deadline_s"], kwargs["max_states"]))
            return model_check(*args, **kwargs)

        monkeypatch.setattr(protocol_mc, "model_check", spy)
        assert main(["lint", "fig11-main-3", "--protocol-mc",
                     "--mc-states", "1234"]) == 0
        capsys.readouterr()
        assert seen == [(None, 1234)]

    def test_capped_advice_names_the_lint_bound(self, paper, capsys):
        from repro.cli import main

        assert main(["lint", "fig13-main-3", "--protocol-mc",
                     "--mc-states", "1000"]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if "state-space-cap" in line]
        assert line.endswith("interleaving pass capped: state cap 1000 "
                             "exceeded (raise repro lint --mc-states to "
                             "push through)")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_mc_states_below_one_is_a_usage_error(self, paper, cap,
                                                   capsys):
        from repro.cli import main

        assert main(["lint", "fig13-main-3", "--protocol-mc",
                     "--mc-states", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--mc-states must be at least 1, got {cap}\n"

    def test_fig15_fails_lint_with_counterexample(self, paper, capsys):
        from repro.cli import main

        code = main(["lint", "fig15-main-3", "--protocol-mc", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        verdict = out["protocol_mc"]["fig15-main-3"]
        assert verdict["status"] == "DEADLOCK"
        assert verdict["counterexample"]["steps"]
        assert any(d["category"] == "protocol-deadlock"
                   for d in out["diagnostics"])
