"""Tier-1 lint gate: ``repro lint --all`` must be error-free over
every registered paper program, and the known-bad corpus must be
fully caught. Also covers diagnostics plumbing and the CLI surface."""

import pytest

from repro.analysis.corpus import CORPUS, verify_corpus
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    error,
    info,
    warning,
)
from repro.analysis.lint import lint_registry, seed_paper_programs
from repro.cli import main
from repro.navp import ir
from repro.viz.irprint import format_diagnostic, format_path


class TestDiagnostics:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Diagnostic("fatal", "x", "p")

    def test_report_partitions(self):
        report = DiagnosticReport([
            error("a", "p", (), "boom"),
            warning("b", "p", (), "hmm"),
            info("c", "p", (), "fyi"),
        ])
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert not report.ok
        assert DiagnosticReport([warning("b", "p")]).ok
        assert "error[a]" in report.render()

    def test_format_path(self):
        assert format_path(()) == "<program>"
        assert format_path((0, (1, "then"), 2)) == "0 > 1.then > 2"

    def test_format_diagnostic_shows_the_statement(self):
        prog = ir.Program("fmt-prog", (
            ir.NodeSet("X", (ir.Const(0),), ir.Const(1)),
        ))
        diag = error("write-collision", "fmt-prog", (0,), "boom")
        out = format_diagnostic(diag, registry={"fmt-prog": prog})
        head, stmt_line = out.split("\n")
        assert head.startswith("error[write-collision] fmt-prog @ 0:")
        assert stmt_line.strip().startswith("| X")

    def test_format_diagnostic_survives_unknown_program(self):
        diag = error("x", "no-such-prog", (3,), "boom")
        assert "\n" not in format_diagnostic(diag, registry={})


class TestPaperProgramsLintClean:
    """The tier-1 gate: zero errors across the whole paper registry."""

    def test_registry_has_no_errors(self):
        layouts, _contexts = seed_paper_programs(3)
        names = sorted(n for n in ir.REGISTRY
                       if not n.startswith("random-prog"))
        report = lint_registry(names, layouts=layouts)
        assert report.errors == [], report.render()

    def test_expected_warnings_only(self):
        layouts, _contexts = seed_paper_programs(3)
        names = sorted(n for n in ir.REGISTRY
                       if not n.startswith("random-prog"))
        report = lint_registry(names, layouts=layouts)
        assert report.warnings == [], report.render()

    def test_cli_lint_all_exits_zero(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


class TestCorpus:
    def test_every_seeded_defect_caught(self):
        results = verify_corpus()
        assert len(results) == len(CORPUS) >= 5
        for case, report, hit in results:
            assert hit, (f"{case.name} [{case.category}] missed:\n"
                         f"{report.render()}")

    def test_categories_cover_the_required_classes(self):
        assert {c.category for c in CORPUS} >= {
            "write-collision", "stale-carry", "remote-access",
            "carried-dependence", "data-race", "protocol-deadlock",
            "credit-deadlock", "orphan-signal",
        }

    def test_corpus_programs_stay_out_of_the_registry(self):
        for case in CORPUS:
            for name in case.registry:
                assert name not in ir.REGISTRY

    def test_cli_corpus_mode(self, capsys):
        assert main(["lint", "--corpus"]) == 0
        out = capsys.readouterr().out
        assert f"{len(CORPUS)}/{len(CORPUS)} corpus checks passed" in out


class TestCliSurface:
    def test_no_programs_and_no_all_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_unknown_program_is_usage_error(self, capsys):
        assert main(["lint", "no-such-program"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_single_program_with_loop_analysis(self, capsys):
        assert main(["lint", "mm-seq-3-dsc", "--loop", "mi"]) == 0
        out = capsys.readouterr().out
        assert "1 program(s) linted: 0 error(s)" in out

    @pytest.mark.parametrize("g", [1, 0, -1])
    def test_grid_order_below_two_is_usage_error(self, g, capsys):
        """Exit 1 means findings; a grid the chain cannot be derived
        on is a usage error: exit 2, one line on stderr, no trace."""
        assert main(["lint", "--all", "--g", str(g)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--g must be at least 2, got {g}\n"


class TestEachFactOnce:
    """One ``repro lint`` call derives the paper chain once and
    summarizes each program body once per entry place."""

    def test_races_summarize_each_program_once(self, monkeypatch, capsys):
        from repro.analysis import deps, summary

        inner = summary.summarize_body
        calls: dict = {}
        pinned: list = []   # keeps every body alive, so ids stay unique

        def counting(body, entry_place=None, base_path=()):
            pinned.append(body)
            key = (id(body), entry_place)
            calls[key] = calls.get(key, 0) + 1
            return inner(body, entry_place, base_path)

        monkeypatch.setattr(summary, "summarize_body", counting)
        monkeypatch.setattr(deps, "summarize_body", counting)
        main(["lint", "--all", "--races"])
        capsys.readouterr()
        assert calls and max(calls.values()) == 1

    def test_protocol_mc_derives_the_chain_once(self, monkeypatch,
                                                capsys):
        from repro.transform import examples

        inner = examples.derive_full_chain
        calls: list = []

        def counting(g):
            calls.append(g)
            return inner(g)

        monkeypatch.setattr(examples, "derive_full_chain", counting)
        assert main(["lint", "mm-seq-3-dsc-phase", "fig11-main-3",
                     "--protocol-mc"]) == 0
        capsys.readouterr()
        assert calls == [3]
