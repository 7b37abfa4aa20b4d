"""Exception hierarchy for the repro package.

Keeping all exceptions in one module lets callers catch
:class:`ReproError` for anything raised deliberately by this library,
while still being able to discriminate on the specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class TopologyError(ConfigurationError):
    """A place/coordinate does not exist in the current topology."""


class PartitionError(ConfigurationError):
    """A matrix order is not divisible as required by a partitioning."""


class FaultPlanError(ConfigurationError):
    """A fault plan is malformed (bad spec fields or invalid JSON)."""


class FabricError(ReproError):
    """Generic runtime failure inside a fabric executor."""


class ResilienceError(FabricError):
    """A checkpoint/recovery operation failed (e.g. restore of a cut
    captured on a different fabric, or a worker that exhausted its
    respawn budget)."""


class DeadlockError(FabricError):
    """The simulation or runtime can make no further progress.

    Raised when runnable work is exhausted while messengers/processes are
    still blocked on events, resources, or receives.
    """


class NonLocalEventError(FabricError):
    """An event operation targeted a place other than the current one.

    NavP events are node-local: both ``signalEvent`` and ``waitEvent``
    always act on the event table of the PE where the messenger
    currently resides (see Figures 11/13/15 of the paper).
    """


class MigrationError(FabricError):
    """A messenger could not be migrated (e.g. unpicklable state)."""


class ProtocolError(FabricError):
    """An algorithm-level invariant was violated at runtime.

    Example: an ``ACarrier`` found a B slot holding a block with a
    mismatched ``k`` index, meaning the pipeline pairing was broken.
    """


class SimulationError(FabricError):
    """The discrete-event kernel was used incorrectly."""


class ServeError(ReproError):
    """A failure in the ``repro serve`` job service or its client."""


class AdmissionError(ServeError):
    """The job service refused to queue a submission.

    The message is the rejection reason the client sees verbatim:
    unknown program, queue depth bound, per-tenant cap, a lease wider
    than the pool, or a statically detected protocol deadlock.
    """


class LedgerError(ServeError):
    """The durable job ledger hit unrecoverable corruption or misuse.

    A torn *final* record (a crash mid-write) is tolerated silently on
    replay; this error means something worse — garbage in the middle
    of a segment, a record for a job the log never admitted, or an
    operation on a ledger in the wrong state.
    """


class AnalysisError(ReproError):
    """A static analysis could not be performed on a program.

    Raised by :mod:`repro.analysis` when a walker meets an IR node type
    that has not been registered (see
    :func:`repro.analysis.visitor.register_expr_type`) or when an
    analysis's structural precondition (e.g. a unique loop over a
    variable) does not hold. Distinct from the *result* of an analysis,
    which is a list of :class:`repro.analysis.diagnostics.Diagnostic`.
    """


class TransformError(ReproError):
    """A program transformation could not be applied safely."""


class VerificationError(ReproError):
    """A computed result failed verification against the reference."""

