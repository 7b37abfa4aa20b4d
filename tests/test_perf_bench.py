"""The ``source_loc`` code-line count and the ``repro lint --all`` gate
that shares the CI tier.

Speed is measured by ``bench/`` (``python3 bench/run.py``), which
``pytest`` never runs; correctness is pinned by the goldens. What is
left here is the count the change log quotes for code lines, and the
lint gate over the seeded paper programs.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.perf.report import _code_lines, source_loc


class TestLintGate:
    def test_lint_all_clean(self):
        # Subprocess: other tests register throwaway (and deliberately
        # broken) programs in the in-process registry; the gate lints
        # the seeded paper programs, like CI does.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--all"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout


class TestSourceLoc:
    def test_counts_code_not_prose(self):
        assert _code_lines(
            '"""Module docstring,\n'
            'two lines."""\n'
            '\n'
            '# a comment\n'
            'def f(x):  # trailing comments do not hide code\n'
            '    """Docstring."""\n'
            '    return (x +\n'
            '            1)\n'
            'TEXT = """a string that is data,\n'
            'not documentation"""\n') == 5

    def test_packages_sum_to_total(self):
        loc = source_loc()
        assert {"fabric", "serve", "analysis", "perf"} <= set(loc)
        assert loc["total"] == sum(
            n for name, n in loc.items() if name != "total")
        assert loc["fabric"] > loc["serve"] > 500
