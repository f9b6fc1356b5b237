"""Exception hierarchy shared across the package."""


class FerrojetError(Exception):
    """Base class for all package errors."""


class DomainError(FerrojetError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class ParameterError(FerrojetError, ValueError):
    """Physical or numerical parameter outside its admissible range."""


class RegimeError(FerrojetError, ValueError):
    """Operation requested in the wrong surface-tension regime."""


class ExistenceError(FerrojetError, ValueError):
    """Coefficient signs rule out the requested solitary-wave solution."""


class GeometryError(FerrojetError, ValueError):
    """Free surface touches the rod: 1 + eta <= 0 somewhere."""


class GridError(FerrojetError, ValueError):
    """Mismatched or incommensurate spectral grids."""


class ConvergenceError(FerrojetError, RuntimeError):
    """An iterative scheme failed to converge (or diverged).

    A failed Newton solve passes the residual history (max norm, one entry
    per accepted iterate) and the per-step linear-solve records it reached;
    both survive pickling.
    """

    def __init__(self, message: str = "", residual_history=(), linear_solves=()):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.linear_solves = list(linear_solves)
