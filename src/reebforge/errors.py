"""Exception types shared across modules.

Validation problems are reported as data (lists of Violation records) so a
caller can show all of them at once; everything that stops a construction
midway raises one of the exception classes below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numbers import decimal_string


@dataclass(frozen=True)
class Violation:
    """One validation failure: a stable kind tag, an index when the rule is
    positional (1-based vertex or edge index, 0 otherwise), and prose."""

    kind: str
    index: int
    message: str

    def __str__(self):
        return "%s(%d): %s" % (self.kind, self.index, self.message)


class SpecValidationError(ValueError):
    """Raised when an operation needs a valid spec but got violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class PackingFailure(RuntimeError):
    """No circle arrangement satisfying all margins could be constructed."""


class HeightFailure(RuntimeError):
    """No certified transverse height for an ellipsoid could be found."""


class MarginViolation(RuntimeError):
    """A certified clearance fell at or below the required margin."""

    def __init__(self, pair, value):
        self.pair = pair
        self.value = value
        super().__init__("clearance %s for %s"
                         % (decimal_string(value, 12), pair))


class DegenerateEvent(RuntimeError):
    """An interval predicate needed by the sweep could not be decided."""


class MissingSingularAngle(RuntimeError):
    """A vertex angle carries no tangency event, so no vertex exists there."""

    def __init__(self, vertex_index):
        self.vertex_index = vertex_index
        super().__init__("no tangency event at vertex angle %d" % vertex_index)


class CountMismatch(RuntimeError):
    """A derived count disagrees with the value demanded by the input."""


class EulerMismatch(RuntimeError):
    """The two independent Euler characteristic computations disagree."""


class ModelMismatch(RuntimeError):
    """Parts of a stored model disagree with each other on recheck."""


class ExpansionTooLarge(RuntimeError):
    """Monomial expansion would exceed the configured term budget."""


class ResolutionTooCoarse(RuntimeError):
    """The grid oracle could not separate merge events at this resolution."""


class NoFactors(ValueError):
    """A factored polynomial with no factors has no meaningful degree."""
