"""Typed error hierarchy for the solver library.

Every failure mode the solvers can hit maps to exactly one class here; the
CLI translates them to exit codes.
"""


class WarpsplitError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(WarpsplitError, ValueError):
    """Operands live in spaces of different dimensions."""


class NonFiniteEntryError(WarpsplitError, ValueError):
    """A NaN or infinity tried to enter solver state."""


class ConfigurationError(WarpsplitError, ValueError):
    """Constants, schedules or operator pairings violate a required regime."""


class UnknownOperatorError(WarpsplitError, KeyError):
    """Catalog lookup with an unregistered name."""

    def __str__(self):
        # The message itself, not KeyError's repr of it.
        return Exception.__str__(self)


class BackwardSolveError(WarpsplitError, RuntimeError):
    """The inner backward solve did not reach its residual tolerance.

    Carries the last residual so callers can report how far the solve got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleCutsError(WarpsplitError, RuntimeError):
    """Two half-space cuts have empty intersection.

    For a well-posed problem with nonempty zero set this cannot happen; its
    occurrence flags numerical corruption or an infeasible problem.
    """


class StallError(WarpsplitError, RuntimeError):
    """The iteration produced no progress for too many consecutive steps."""


class SolverCorruptionError(WarpsplitError, RuntimeError):
    """An internally impossible state was reached (e.g. sigma = 0 with theta < 0)."""


class ProblemFormatError(WarpsplitError, ValueError):
    """Problem file is malformed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            message = f"{prefix}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
