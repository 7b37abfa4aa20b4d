"""The code-line count: :func:`~repro.perf.report.source_loc`.

Speed is measured by ``bench/`` (``python3 bench/run.py``, compared by
``bench/compare.py``) and correctness is pinned by tier 1; this package
keeps only the per-package code-line count that CHANGES.md and
ROADMAP.md quote for the code a change adds or removes.
"""

from .report import source_loc

__all__ = ["source_loc"]
