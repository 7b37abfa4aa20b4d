"""Structured analysis results.

Every analysis pass reports its findings as :class:`Diagnostic` values
rather than raising: a raise aborts at the first problem and loses all
the others, while a lint wants to show everything it found. The
transformations in :mod:`repro.transform` then convert *error*
diagnostics into :class:`~repro.errors.TransformError` at their
legality gates, so the linter and the transformations can never
disagree about what is legal — they consult the same analyzer.

Severities:

``error``
    The program is illegal under the checked condition (a transform
    would refuse it; ``repro lint`` exits non-zero).
``warning``
    Suspicious but not provably wrong (e.g. an injected program the
    registry lacks, or signal tokens the model checker finds left over).
``info``
    Observations that need context to judge (e.g. an unmatched wait in
    a lone component program whose peers are injected elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Diagnostic", "DiagnosticReport",
           "ERROR", "WARNING", "INFO"]

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    severity:
        ``"error"``, ``"warning"`` or ``"info"``.
    category:
        A stable machine-readable tag (``"write-collision"``,
        ``"stale-carry"``, ``"remote-access"``, ``"unmatched-wait"``,
        ``"protocol-deadlock"``, ...); tests and the corpus assert on
        this.
    program:
        Name of the program the finding is about.
    path:
        Statement path in :func:`repro.navp.ir.body_at` convention
        (final element = statement index), or ``()`` for whole-program
        findings.
    message:
        Human-readable explanation.
    """

    severity: str
    category: str
    program: str
    path: tuple = ()
    message: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        where = f"{self.program} @ {list(self.path)!r}" if self.path \
            else self.program
        return f"{self.severity}[{self.category}] {where}: {self.message}"


class DiagnosticReport(list):
    """A list of diagnostics with severity filters and rendering."""

    @property
    def errors(self) -> list:
        return [d for d in self if d.severity == ERROR]

    @property
    def warnings(self) -> list:
        return [d for d in self if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        return "\n".join(str(d) for d in self)


def error(category: str, program: str, path: tuple = (),
          message: str = "") -> Diagnostic:
    return Diagnostic(ERROR, category, program, path, message)


def warning(category: str, program: str, path: tuple = (),
            message: str = "") -> Diagnostic:
    return Diagnostic(WARNING, category, program, path, message)


def info(category: str, program: str, path: tuple = (),
         message: str = "") -> Diagnostic:
    return Diagnostic(INFO, category, program, path, message)
