"""``repro bench``: the smoke tripwire, the snapshot schema and its
``source_loc`` ledger, the committed snapshot the trend is taken
against, and the ``repro lint --all`` gate that shares the CI tier.

The smoke bench is tier 1's tripwire, not a measurement (``bench/`` is
the instrument, and ``pytest`` never runs it): it must finish well
under 60 seconds and exit cleanly, so a broken engine or interpreter
(or a benchmark that silently ballooned) fails CI rather than landing.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import BenchSnapshotError
from repro.perf.report import (
    SCHEMA,
    find_previous,
    load_bench,
    make_snapshot,
    render_report,
    source_loc_delta,
    write_bench,
)
from repro.perf.suite import BENCHES, run_suite


class TestSmokeBench:
    def test_cli_smoke_under_60s(self, tmp_path, capsys):
        t0 = time.perf_counter()
        rc = main(["bench", "--smoke", "--out", str(tmp_path),
                   "--repeats", "1", "--label", "ci smoke"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        out = capsys.readouterr().out
        assert "interp_throughput" in out and "table3_shadow" in out
        assert "regression" not in out.lower()  # no verdict it cannot give

        snap = json.loads(written[0].read_text())
        assert snap["schema"] == SCHEMA
        assert snap["smoke"] is True
        assert set(snap["results"]) == set(BENCHES) == {
            "table1_shadow", "table3_shadow", "interp_throughput",
            "pickle_roundtrip"}
        for name, res in snap["results"].items():
            assert res["wall_s"] > 0, name
            assert res["events"] > 0 and res["events_per_sec"] > 0, name

    def test_unknown_benchmark_name_fails_loudly(self, tmp_path, capsys):
        rc = main(["bench", "--smoke", "--out", str(tmp_path),
                   "--only", "pickle_roundtrip", "nope"])
        assert rc == 2
        assert "unknown benchmark 'nope'" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))
        with pytest.raises(KeyError):
            run_suite(smoke=True, only=["nope"])

    def test_a_failing_bench_is_not_reported_as_a_typo(
            self, tmp_path, monkeypatch):
        def broken(smoke):
            raise KeyError("events")
        monkeypatch.setitem(BENCHES, "pickle_roundtrip", broken)
        with pytest.raises(KeyError, match="events"):
            main(["bench", "--smoke", "--out", str(tmp_path),
                  "--only", "pickle_roundtrip"])
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_suite_stays_in_process(self):
        """The tripwire runs inside ``pytest``: nothing in ``repro.perf``
        imports sockets, process control, the wire/payload codecs or the
        serve daemon (``bench/`` exercises those layers, with oracles)."""
        import ast
        import re

        import repro.perf

        banned = re.compile(r"(^|\.)(socket|os|subprocess|multiprocessing|"
                            r"threading|serve|wire|payload)(\.|$)")
        for path in Path(repro.perf.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}"
                             for alias in node.names]
                else:
                    continue
                for name in names:
                    assert not banned.search(name), (path.name, name)


class TestComparison:
    """Snapshot files. (Timings in two snapshots are never compared —
    that is ``bench/compare.py`` over interleaved runs; the only
    cross-snapshot number is the code-line delta, see TestSourceLoc.)"""

    def test_write_load_find_roundtrip(self, tmp_path):
        old = write_bench(make_snapshot({}), tmp_path, date="2026-01-01")
        new = write_bench(make_snapshot({}), tmp_path, date="2026-02-01")
        assert load_bench(new)["schema"] == SCHEMA
        assert find_previous(tmp_path, exclude=new) == old
        # a fresh checkout gives every snapshot one mtime: names decide
        os.utime(old, (1e9, 1e9))
        os.utime(new, (1e9, 1e9))
        assert find_previous(tmp_path) == new
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text('{"schema": "other/9"}')
        with pytest.raises(BenchSnapshotError, match="not a repro-bench"):
            load_bench(bogus)

    @pytest.mark.parametrize("name", ["BENCH_2026-09-30.json"])
    def test_committed_history_still_loads(self, name):
        """The one committed snapshot — what CI's trend line is taken
        against — outlives the code that recorded it, benches and
        ``vs_baseline`` keys and all."""
        snap = load_bench(Path("benchmarks/out") / name)
        assert snap["results"] and snap["created"]
        assert snap["source_loc"]["total"] > 0
        for res in snap["results"].values():
            assert res["wall_s"] > 0


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
        from repro.perf.report import _code_lines
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

    def test_snapshot_records_packages_and_total(self):
        loc = make_snapshot({})["source_loc"]
        assert {"fabric", "serve", "analysis"} <= set(loc)
        assert loc["total"] == sum(
            n for name, n in loc.items() if name != "total")
        assert loc["fabric"] > loc["serve"] > 500

    def _smoke_after(self, prev, tmp_path, capsys):
        """``repro bench --smoke`` in a directory holding ``prev``:
        returns (path of prev, the snapshot written, what was printed)."""
        prev_path = write_bench(prev, tmp_path, date="2026-01-01")
        assert main(["bench", "--smoke", "--out", str(tmp_path),
                     "--only", "pickle_roundtrip", "--repeats", "1"]) == 0
        (written,) = set(tmp_path.glob("BENCH_*.json")) - {prev_path}
        return prev_path, load_bench(written), capsys.readouterr().out

    def test_delta_is_reported_across_smoke_and_full(self, tmp_path, capsys):
        prev = make_snapshot({}, smoke=False)
        prev["source_loc"]["fabric"] += 294
        prev["source_loc"]["total"] += 294
        prev_path, cur, out = self._smoke_after(prev, tmp_path, capsys)
        assert cur["smoke"] is True
        assert cur["vs_baseline"] == {
            "against": str(prev_path),
            "source_loc_delta": {"fabric": -294, "total": -294}}
        assert "(-294 vs previous: fabric -294)" in out
        assert source_loc_delta(cur, cur) == {}
        assert "(unchanged)" in render_report(
            {**cur, "vs_baseline": {"source_loc_delta": {}}})

    def test_a_snapshot_without_a_count_is_rejected(self, tmp_path):
        """A trend needs a count on both sides: a previous snapshot
        without one is a typed error naming the file, not a silent
        "no previous count"."""
        prev = make_snapshot({})
        del prev["source_loc"]
        prev_path = write_bench(prev, tmp_path, date="2026-01-01")
        with pytest.raises(BenchSnapshotError,
                           match=re.escape(f"{prev_path}: snapshot has no")):
            main(["bench", "--smoke", "--out", str(tmp_path), "--no-write",
                  "--only", "pickle_roundtrip", "--repeats", "1"])
