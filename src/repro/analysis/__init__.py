"""Static analysis of navigational IR programs.

The paper's transformations are legal only "without violating any
dependency conditions" (Section 2); this package decides those
conditions *statically*, before a program ever touches a fabric:

* :mod:`~repro.analysis.visitor` — the shared, exhaustive IR walker
  (one extension point for new node types);
* :mod:`~repro.analysis.summary` — per-statement access summaries
  with symbolic current-place tracking;
* :mod:`~repro.analysis.deps` — loop dependence analysis
  (flow/anti/output, carried or not) backing the transformations'
  legality gates;
* :mod:`~repro.analysis.locality` — hop-locality proofs under a
  symbolic data layout;
* :mod:`~repro.analysis.mhp` — the may-happen-in-parallel
  thread-segment graph over injection closures;
* :mod:`~repro.analysis.races` — static data-race detection (the
  runtime half lives in :mod:`repro.fabric.hb`);
* :mod:`~repro.analysis.diagnostics` — the structured findings;
* :mod:`~repro.analysis.protocol_mc` — the wait/signal model
  checker: deadlock, orphan tokens and mailbox bounds, exactly;
* :mod:`~repro.analysis.lint` — the driver behind ``repro lint``;
* :mod:`~repro.analysis.corpus` — known-bad negative controls.

See ``docs/analysis.md`` for the full story.
"""

from . import diagnostics, visitor  # noqa: F401  (import order matters)
from . import summary  # noqa: F401
from . import deps  # noqa: F401
from . import locality  # noqa: F401
from . import mhp, races  # noqa: F401
from . import corpus, lint  # noqa: F401
from .diagnostics import Diagnostic, DiagnosticReport
from .lint import lint_program, lint_registry, seed_paper_programs
from .locality import LayoutSpec, check_locality, fixed_home, key_home
from .mhp import MHPAnalysis, build_mhp
from .races import analyze_races, race_diagnostics

__all__ = [
    "visitor", "summary", "deps", "locality",
    "diagnostics", "lint", "corpus", "mhp", "races",
    "Diagnostic", "DiagnosticReport",
    "lint_program", "lint_registry", "seed_paper_programs",
    "LayoutSpec", "check_locality", "fixed_home", "key_home",
    "MHPAnalysis", "build_mhp", "analyze_races", "race_diagnostics",
]
