"""Dependence guard rails for the transformations.

"The basic idea behind the transformations is to spread out
computations ... as soon as possible *without violating any dependency
conditions*" (Section 2). Before a loop is distributed (DSC) or split
into concurrent messengers (pipelining/phase shifting), these checks
verify the conditions the matmul derivation relies on.

The checks themselves live in :mod:`repro.analysis.deps` — a real
def-use dependence analyzer shared with ``repro lint``, so the linter
and the transformations can never disagree about legality. This module
keeps the transformation-facing contract: a failed condition raises
:class:`~repro.errors.TransformError` carrying every violation's
message, and anything the analyzer cannot decide (no unique loop, an
unregistered node type) also raises rather than silently proceeding.

What the analyzer decides, conservatively, over the paradigm's
dictionary-shaped node variables — by solving each pair of key
expressions into a distance/direction vector
(:class:`~repro.analysis.distance.DependenceVector`):

* every node-variable *write* inside the loop must be provably unable
  to hit one entry from two iterations (coefficient zero on the loop
  variable, a non-affine key like ``acc[i % 2]`` with a variable
  modulus, or overlapping keys at nonzero distance all fail);
* a read aliasing another iteration's write is a carried flow/anti
  dependence with a solved distance. ``D[r-1, c]`` against ``D[r, c]``
  solves to distance ``+1``: iterations are not independent — but a
  *forward* (all-positive, exact) carried dependence is precisely what
  :func:`check_forward_carried` certifies so pipelining can turn it
  into a wait/signal handshake;
* no agent variable may be read at or before its first in-iteration
  definition (the value would carry between iterations); the DSC
  accumulator pattern, re-initialized before accumulating, passes.

(The *DSC* transformation does not need iteration independence at all
— a single migrating thread preserves program order; it only needs its
carried variables to be read-only, see :func:`check_carries_read_only`.)
"""

from __future__ import annotations

from ..analysis.deps import (
    FLOW,
    analyze_loop,
    carried_write_diagnostics,
    loop_diagnostics,
)
from ..analysis.races import race_diagnostics
from ..errors import AnalysisError, TransformError
from ..navp import ir

__all__ = ["check_loop_independent", "check_forward_carried",
           "check_carries_read_only", "check_race_free"]


def _gate(report) -> None:
    if report.errors:
        raise TransformError(
            "; ".join(d.message for d in report.errors))


def check_loop_independent(program: ir.Program, loop_var: str) -> None:
    """Raise TransformError unless iterations of the loop are independent."""
    try:
        report = loop_diagnostics(program, loop_var)
    except AnalysisError as exc:
        raise TransformError(str(exc)) from exc
    _gate(report)


def check_forward_carried(program: ir.Program, loop_var: str):
    """The pipelining legality condition.

    Concurrent per-iteration messengers can be ordered by a wait/signal
    handshake only when every carried dependence of the loop is a node
    flow dependence with an *exact positive* distance: iteration ``i``
    then depends on data some earlier iteration ``i - d`` published,
    and a wait on that iteration's key linearizes the pair. Anything
    else — a write collision, an anti dependence (a later iteration
    would overwrite what this one still reads), an agent-variable
    carry, or a distance the affine solver could not pin — has no such
    handshake and is refused.

    Returns the loop's :class:`~repro.analysis.deps.LoopAnalysis`. Its
    ``carried`` dependences, all forward flow ones, tell the
    transformation *where* the waits and signals go; they are ``()``
    exactly when :func:`check_loop_independent` passes.
    """
    try:
        analysis = analyze_loop(program, loop_var)
    except AnalysisError as exc:
        raise TransformError(str(exc)) from exc
    for dep in analysis.carried:
        ok = (dep.space == "node" and dep.kind == FLOW
              and dep.vector is not None and dep.vector.exact
              and dep.vector.distance is not None
              and dep.vector.distance > 0)
        if not ok:
            what = dep.vector.describe() if dep.vector is not None \
                else dep.detail
            raise TransformError(
                f"{program.name}: carried {dep.kind} dependence on "
                f"{dep.var!r} is not a forward flow dependence with an "
                f"exact distance ({what}); pipelining cannot "
                f"order it with a wait/signal handshake")
    return analysis


def check_carries_read_only(program: ir.Program, loop_var: str,
                            carried_names) -> None:
    """The DSC legality condition: carried node variables are read-only.

    DSC inserts hops into a *single* thread, so program order — and
    with it every dependence — is preserved; the only thing that can go
    stale is a value copied into an agent variable at the pickup point
    and then used while the node copy changes. Refuse if any carried
    source is written inside the loop.
    """
    try:
        report = carried_write_diagnostics(program, loop_var,
                                           carried_names)
    except AnalysisError as exc:
        raise TransformError(str(exc)) from exc
    _gate(report)


def check_race_free(program: ir.Program, registry=None,
                    primed=frozenset()) -> None:
    """The concurrency legality condition the loop gate cannot see.

    ``check_loop_independent`` reasons about one loop's iterations in
    isolation; once a transformation has actually *split* the program
    into concurrent messengers, the generated suite as a whole must be
    free of data races — conflicting node-variable accesses that no
    injection-order or wait/signal edge separates. This runs the static
    race analyzer (:func:`repro.analysis.races.race_diagnostics`, the
    same pass behind ``repro lint --races``) over ``program``'s
    injection closure and refuses the transformation on any finding.
    """
    try:
        report = race_diagnostics(program, registry=registry,
                                  primed=primed)
    except AnalysisError as exc:
        raise TransformError(str(exc)) from exc
    _gate(report)
