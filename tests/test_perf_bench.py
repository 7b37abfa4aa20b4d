"""The ``repro bench`` harness: smoke run, snapshot schema, regression
detection, and the ``repro lint --all`` gate that shares the CI tier.

The smoke bench doubles as the tier-1 performance gate: it must finish
well under 60 seconds and exit cleanly, so a broken engine (or a
benchmark that silently ballooned) fails CI rather than landing.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.report import (
    SCHEMA,
    compare_benches,
    find_previous,
    load_bench,
    make_snapshot,
    render_report,
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
        assert "des_micro" in out and "table3_shadow" in out

        snap = json.loads(written[0].read_text())
        assert snap["schema"] == SCHEMA
        assert snap["smoke"] is True
        assert set(snap["results"]) == set(BENCHES)
        for name, res in snap["results"].items():
            assert res["wall_s"] > 0, name
            # every benchmark that can count events reports a rate
            if res["events"] is not None:
                assert res["events_per_sec"] > 0, name

    def test_unknown_benchmark_name_fails_loudly(self, tmp_path):
        rc = main(["bench", "--smoke", "--out", str(tmp_path),
                   "--only", "nope"])
        assert rc == 2
        with pytest.raises(KeyError):
            run_suite(smoke=True, only=["nope"])


class TestServeBench:
    def test_warm_pool_beats_perjob_setup(self):
        """The serve subsystem's economic claim, pinned: the amortized
        per-job cost on a warm pool must beat spinning up a socket
        fabric per run. The real gap is ~5-10x; 1.5x leaves room for a
        loaded CI box without letting the claim silently rot."""
        res = run_suite(smoke=True, only=["serve_throughput"],
                        repeats=1)["serve_throughput"]
        meta = res["meta"]
        assert meta["speedup_vs_perjob"] > 1.5
        assert meta["warm_per_job_s"] < meta["perjob_per_job_s"]
        # a short queue pays off the pool spawn
        assert meta["breakeven_jobs"] < 10

    def test_durable_submit_overhead_bounded(self):
        """The durability claim, pinned: an fsync'd write-ahead ledger
        must not make admission slow. Group commit batches concurrent
        submitters onto shared fsyncs, so the real throughput is
        thousands of submits/sec and the overhead well under a
        millisecond; the floors (100/sec, 50 ms) only catch the ledger
        degenerating into fsync-per-submit-per-retry territory on a
        loaded CI box."""
        res = run_suite(smoke=True, only=["serve_durability"],
                        repeats=1)["serve_durability"]
        meta = res["meta"]
        assert res["events_per_sec"] > 100
        assert meta["overhead_per_submit_ms"] < 50
        # every submit was durably appended before acknowledgment
        assert meta["ledger_appends"] >= res["events"]


class TestComparison:
    def _snap(self, ev_per_sec, wall, smoke=False):
        return make_snapshot(
            {"des_micro": {"wall_s": wall, "events": 1000,
                           "events_per_sec": ev_per_sec, "meta": {}}},
            smoke=smoke,
        )

    def test_regression_flagged_below_threshold(self):
        prev = self._snap(1000.0, 1.0)
        cur = self._snap(500.0, 2.0)
        out = compare_benches(cur, prev, threshold=0.85)
        assert out["ratios"]["des_micro"]["events_per_sec"] == 0.5
        assert out["ratios"]["des_micro"]["wall_speedup"] == 0.5
        assert out["regressions"] == [
            "des_micro: events_per_sec 0.50 < 0.85"]

    def test_improvement_not_flagged(self):
        prev = self._snap(1000.0, 1.0)
        cur = self._snap(1700.0, 0.6)
        out = compare_benches(cur, prev)
        assert out["regressions"] == []
        assert out["ratios"]["des_micro"]["events_per_sec"] == 1.7

    def test_smoke_vs_full_not_compared(self):
        prev = self._snap(1000.0, 1.0, smoke=False)
        cur = self._snap(10.0, 1.0, smoke=True)
        out = compare_benches(cur, prev)
        assert out["ratios"] == {}
        assert out["regressions"] == []
        assert "not comparable" in out["note"]

    def test_write_load_find_roundtrip(self, tmp_path):
        old = write_bench(self._snap(1000.0, 1.0), tmp_path, date="2026-01-01")
        new = write_bench(self._snap(1500.0, 0.7), tmp_path, date="2026-02-01")
        assert load_bench(new)["schema"] == SCHEMA
        assert find_previous(tmp_path, exclude=new) == old
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="not a repro-bench"):
            load_bench(bogus)


class TestCommittedBaseline:
    def test_repo_baselines_meet_issue_targets(self):
        """The committed post-change snapshot must hold the optimization
        headline: >=1.5x DES events/sec and >=1.3x Table-3 wall time
        against the committed pre-change baseline."""
        current = load_bench("benchmarks/out/BENCH_2026-08-05.json")
        ratios = current["vs_baseline"]["ratios"]
        assert ratios["des_micro"]["events_per_sec"] >= 1.5
        assert ratios["table3_shadow"]["wall_speedup"] >= 1.3
        assert current["vs_baseline"]["regressions"] == []


class TestDataPlaneBaseline:
    def test_committed_snapshot_meets_issue_targets(self):
        """The committed post-data-plane snapshot must hold the PR-7
        headline against the committed legacy baseline: >=2x on the
        large-block payload round-trip and the socket-pair bytes/sec
        bench, and a >=3x frame reduction from hop coalescing."""
        current = load_bench("benchmarks/out/BENCH_2026-08-07.json")
        assert current["vs_baseline"]["against"].endswith(
            "BENCH_2026-08-07_prechange.json")
        ratios = current["vs_baseline"]["ratios"]
        assert ratios["payload_roundtrip"]["events_per_sec"] >= 2.0
        assert ratios["wire_throughput"]["events_per_sec"] >= 2.0
        assert ratios["wire_coalescing"]["events_per_sec"] >= 1.3
        assert current["vs_baseline"]["regressions"] == []
        meta = current["results"]["wire_coalescing"]["meta"]
        assert meta["frame_reduction"] >= 3.0

    def test_legacy_modes_stay_runnable(self):
        """The baseline is only honest if the legacy algorithms it
        measured still execute — pin them with tiny workloads."""
        from repro.perf.wirebench import (
            coalescing_microbench,
            payload_roundtrip,
            socket_throughput,
        )

        legacy = payload_roundtrip(2, order=16, mode="legacy")
        assert legacy["roundtrips_per_sec"] > 0
        res = socket_throughput(1024, 4, mode="legacy")
        assert res["frames_per_sec"] > 0
        solo = coalescing_microbench(8, coalesce=4, mode="uncoalesced")
        assert solo["frames"] == 8  # one frame per hop, by definition


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

    def test_delta_is_reported_across_smoke_and_full(self):
        prev = make_snapshot({}, smoke=False)
        cur = make_snapshot({}, smoke=True)
        prev["source_loc"]["fabric"] += 294
        prev["source_loc"]["total"] += 294
        cur["vs_baseline"] = compare_benches(cur, prev)
        assert cur["vs_baseline"]["source_loc_delta"] == {
            "fabric": -294, "total": -294}
        assert "(-294 vs previous: fabric -294)" in render_report(cur)

    def test_snapshots_without_a_count_still_compare(self):
        prev = make_snapshot({})
        del prev["source_loc"]
        cur = make_snapshot({})
        cur["vs_baseline"] = compare_benches(cur, prev)
        assert "source_loc_delta" not in cur["vs_baseline"]
        assert "no previous count" in render_report(cur)
