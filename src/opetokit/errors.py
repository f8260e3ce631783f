"""Exception hierarchy and validation report containers.

Validators never raise on bad structure; they return a report listing every
violated rule with a witness tuple.  Operations that need a well-formed input
raise instead, using the exception types below.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class OpetokitError(Exception):
    """Base class for all domain errors."""


class DanglingId(OpetokitError):
    """An identifier was referenced that does not exist in the structure."""


class FrameMismatch(OpetokitError):
    """Boundary data does not line up (wrong slot edge, bad endpoints)."""


class ArityBoundExceeded(OpetokitError):
    """A pasting result would exceed the structure's arity bound."""


class ArityError(OpetokitError):
    """A cell has the wrong arity for the requested operation."""


class MissingEntry(OpetokitError):
    """A composition table lacks an entry it should contain."""


class MissingComposite(OpetokitError):
    """A classical composition table lacks an entry it should contain."""


class NicheMismatch(OpetokitError):
    """Two cells were expected to occupy the same niche but do not."""


class PathMismatch(OpetokitError):
    """Two bracketings were expected to parenthesise the same path."""


class InvalidInput(OpetokitError):
    """An operation's precondition failed (structure did not validate)."""


class InvalidBiasing(OpetokitError):
    """A chosen occupant does not sit in its stated niche or is not universal."""


class NoUniversalOccupant(OpetokitError):
    """A niche has no universal occupant, so no choice can be made."""


class NoSolution(OpetokitError):
    """A cell required by a unique-factorisation property does not exist."""


class NonUniqueSolution(OpetokitError):
    """A cell required to be unique by a factorisation property is not."""


class ParseError(OpetokitError):
    """A structure file could not be parsed; carries line/column if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownKind(OpetokitError):
    """A structure file declares a kind this tool does not know."""


class UsageError(OpetokitError):
    """A command-line flag, environment variable or output path is unusable."""


@dataclass(frozen=True)
class Violation:
    """One violated rule with enough context to reproduce it."""

    rule: str
    witness: tuple = ()
    message: str = ""

    def __str__(self) -> str:
        parts = [self.rule]
        if self.witness:
            parts.append(repr(self.witness))
        if self.message:
            parts.append(self.message)
        return ": ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def filter(self, rule: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.rule == rule)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


class _Collector:
    """Accumulates violations while a validator walks a structure."""

    def __init__(self):
        self.items: list[Violation] = []

    def add(self, rule: str, witness: tuple = (), message: str = ""):
        self.items.append(Violation(rule, witness, message))

    def report(self, **notes) -> ValidationReport:
        return ValidationReport(tuple(self.items), dict(notes))


def _require(report: ValidationReport, error=InvalidInput) -> None:
    """Raise ``error`` with the report's text unless the report is ok."""
    if not report.ok:
        raise error(str(report))
