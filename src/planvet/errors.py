"""Exception hierarchy shared across the package.

Every structural defect raises; nothing is silently repaired at load or
validation time. Enforcement itself never raises on well-formed inputs.
"""

from __future__ import annotations


class PlanvetError(Exception):
    """Base class for all errors raised by this package."""


# -- catalog / policy validation -------------------------------------------

class PolicyValidationError(PlanvetError):
    pass


class UnknownActionReference(PolicyValidationError):
    pass


class SelfDependency(PolicyValidationError):
    pass


class CyclicPolicy(PolicyValidationError):
    """Raised when the prerequisite graph contains a cycle.

    ``cycle`` holds the offending action ids in path order, first node
    repeated at the end (e.g. ``("a", "b", "a")``).
    """

    def __init__(self, message: str, cycle: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.cycle = cycle


class DuplicateRuleId(PolicyValidationError):
    pass


class FamilyFieldMismatch(PolicyValidationError):
    pass


class CatalogError(PlanvetError):
    pass


# -- corpus loading ----------------------------------------------------------

class ParseError(PlanvetError):
    pass


class SchemaError(PlanvetError):
    pass


class IncidentNotFound(PlanvetError):
    """No package in the corpus has the requested incident id."""


# -- proposal parsing --------------------------------------------------------

class MissingField(PlanvetError):
    pass


class WrongType(PlanvetError):
    pass


# -- enforcement engine ------------------------------------------------------

class InternalBoundExceeded(PlanvetError):
    """Fixed-point iteration cap hit: always an engine bug, never data."""


# -- mapping -----------------------------------------------------------------

class UnknownActionInRule(PlanvetError):
    pass


# -- metrics -----------------------------------------------------------------

class EmptyCell(PlanvetError):
    pass


class DomainError(PlanvetError):
    pass


class IncidentMismatch(PlanvetError):
    pass


class KeyMismatch(PlanvetError):
    pass


# -- audit / pipeline --------------------------------------------------------

class ConfigIncomplete(PlanvetError):
    """A run config leaves a required input or output path unset."""


class ConfigInvalid(PlanvetError):
    """A run config is not a JSON object or holds a value the run cannot use."""


class IoError(PlanvetError):
    """An output could not be written."""


class ReleaseGateFailed(PlanvetError):
    pass


class EmptyEvaluation(PlanvetError):
    pass
