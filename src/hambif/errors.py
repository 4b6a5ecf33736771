"""Exception and warning types shared across the package."""

from __future__ import annotations


class StructureError(ValueError):
    """A matrix fails a structural requirement (Hamiltonian, symmetric, ...)."""


class EigenvalueNotFoundError(ValueError):
    """A requested frequency is not in the spectrum within tolerance."""


class DegeneracyError(ArithmeticError):
    """An eigenvalue landed inside the zero band where a sign was needed, or a
    frequency's Morse jump disagrees with its block counts or Jordan partition.

    Callers are expected to re-pick the evaluation point, or to catch it
    where a degenerate matrix or an undecided frequency is an outcome.
    """


class DecompositionError(RuntimeError):
    """Jordan or sign-characteristic extraction failed; may carry rank-gap diagnostics."""

    def __init__(self, message, rank_gaps=None):
        super().__init__(message)
        self.rank_gaps = rank_gaps


class LevelCountError(ValueError):
    """The candidate levels m/beta <= lambda_max outnumber ``bifurcation.MAX_LEVELS``."""


class PlanarDegreeError(RuntimeError):
    """The sampled planar field nearly vanishes on the circle; shrink the radius."""


class IntegrationError(RuntimeError):
    """Trajectory integration failed (domain exit or step-size underflow)."""

    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time


class CorrectorError(RuntimeError):
    """The orbit corrector did not converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpecError(ValueError):
    """A problem description failed schema validation; carries the JSON path."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.message = message
        self.path = path


class ConsistencyError(SpecError):
    """Declared data disagrees with derived data (Hessian/gradient checks)."""


class ConditioningWarning(UserWarning):
    """A numeric rank decision was close to the cutoff; result may be fragile."""
