"""Lint's wait/signal closure checks over injection closures.

Two cheap facts of a root's closure stay with ``lint_program``: a wait
on an event no program of the closure signals, and an injected name
the registry lacks. Whether the handshakes deadlock or leak tokens is
the protocol model checker's question (``tests/test_protocol_mc.py``).
"""

from repro.analysis.lint import lint_program, seed_paper_programs
from repro.analysis.mhp import build_mhp
from repro.navp import ir


def _registry(*programs):
    return {p.name: p for p in programs}


class TestClosure:
    def test_closure_follows_injects_transitively(self):
        leaf = ir.Program("pr-leaf", (ir.SignalStmt("E"),))
        mid = ir.Program("pr-mid", (ir.InjectStmt("pr-leaf"),))
        root = ir.Program("pr-root", (ir.InjectStmt("pr-mid"),
                                      ir.InjectStmt("pr-ghost")))
        mhp = build_mhp(root, _registry(root, mid, leaf))
        assert list(mhp.summaries) == ["pr-root", "pr-mid", "pr-leaf"]
        assert mhp.missing == {"pr-ghost"}

    def test_missing_program_warned(self):
        root = ir.Program("pr-root2", (ir.InjectStmt("pr-nowhere"),))
        report = lint_program(root, _registry(root))
        assert [(d.severity, d.category) for d in report] \
            == [("warning", "unknown-program")]


class TestUnmatchedWait:
    def test_deadlocked_wait_is_an_error(self):
        waiter = ir.Program("pr-waiter", (ir.WaitStmt("go"),))
        root = ir.Program("pr-spawn", (ir.InjectStmt("pr-waiter"),))
        report = lint_program(root, _registry(root, waiter))
        errs = report.errors
        assert [d.category for d in errs] == ["unmatched-wait"]
        assert errs[0].program == "pr-waiter"
        assert "block forever" in errs[0].message

    def test_signal_elsewhere_in_closure_satisfies_it(self):
        waiter = ir.Program("pr-waiter2", (ir.WaitStmt("go"),))
        root = ir.Program("pr-spawn2", (ir.SignalStmt("go"),
                                        ir.InjectStmt("pr-waiter2")))
        report = lint_program(root, _registry(root, waiter))
        assert report == []

    def test_lone_program_downgraded_to_info(self):
        orphan = ir.Program("pr-orphan", (ir.WaitStmt("EP"),))
        report = lint_program(orphan, _registry(orphan))
        assert [d.severity for d in report] == ["info"]
        assert report.ok


class TestPaperSuites:
    def test_fig11_and_fig15_are_clean(self):
        # every wait is matched; fig15's reachable deadlock is a matter
        # of interleavings, which only the model checker explores
        seed_paper_programs(3)
        for name in ("fig11-main-3", "fig15-main-3"):
            report = lint_program(ir.get_program(name))
            assert report == [], f"{name}: {report.render()}"
