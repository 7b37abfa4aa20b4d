"""The smoke tripwire behind ``repro bench`` and the ``source_loc``
ledger.

``bench/`` (``python3 bench/run.py``, ``bench/compare.py``) is the
repo's one instrument for speed. This package keeps the two jobs that
instrument cannot do: four in-process, sub-second benches that tier 1
runs so a broken engine or interpreter fails ``pytest``
(:mod:`repro.perf.suite`), and the per-package code-line count written
into every ``BENCH_<date>.json`` snapshot with its delta against the
previous one (:mod:`repro.perf.report`; schema in
``docs/performance.md``).
"""

from .report import (
    SCHEMA,
    find_previous,
    load_bench,
    make_snapshot,
    render_report,
    source_loc,
    source_loc_delta,
    write_bench,
)
from .suite import BENCHES, run_suite

__all__ = [
    "BENCHES",
    "SCHEMA",
    "find_previous",
    "load_bench",
    "make_snapshot",
    "render_report",
    "run_suite",
    "source_loc",
    "source_loc_delta",
    "write_bench",
]
