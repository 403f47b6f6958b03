"""Exception hierarchy with stable machine-readable error codes.

Every error raised by the library carries a ``code`` drawn from a fixed
vocabulary so that the CLI (and any other caller) can surface failures
deterministically:

    DOMAIN       bad or out-of-range input (poles, non-weights, wrong shapes)
    CONVERGENCE  an iteration failed to reach its tolerance
    DEGENERACY   a Hessian/denominator that must be nonzero vanished
    MEMBERSHIP   a point left the admissible domain F_{N,l}
    RESOURCE     a guarded combinatorial size was exceeded
    ACCURACY     a verified-accuracy postcondition could not be met
"""

from __future__ import annotations


class CmError(Exception):
    """Base class for all library errors; carries a stable ``code``."""

    code = "DOMAIN"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class DomainError(CmError):
    """Input outside the mathematical domain of an operation."""

    code = "DOMAIN"


class PoleError(DomainError):
    """Evaluation requested at (or numerically on) a pole or zero."""


class ConvergenceError(CmError):
    """Newton or continuation iteration failed to converge."""

    code = "CONVERGENCE"


class DegeneracyError(CmError):
    """A quantity that must be nonzero (Hessian, energy gap) vanished."""

    code = "DEGENERACY"


class MembershipError(CmError):
    """A point is outside, or an iteration left, the domain F_{N,l}."""

    code = "MEMBERSHIP"


class ResourceError(CmError):
    """A combinatorial guard (e.g. (w, f) words <= 10^6) was exceeded."""

    code = "RESOURCE"


class AccuracyError(CmError):
    """A result failed its internal accuracy validation."""

    code = "ACCURACY"
