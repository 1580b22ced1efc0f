"""Exception types shared across the solver stack, and the three rules that
settings are checked against."""

import numbers


class NumericsError(RuntimeError):
    """A computation produced non-finite values or broke down numerically."""


class ConfigurationError(ValueError):
    """Parameters are mutually inconsistent (e.g. a step size underflowed
    because the supplied smoothness constant does not match the oracle)."""


class ConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap; ``best`` holds the best
    iterate seen so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SolverError(RuntimeError):
    """A solver run aborted; ``trace`` holds the partial run record."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def check_integer(name: str, value, minimum: int) -> None:
    """``value`` must be an integer, numpy integers included, of at least
    ``minimum``, else :class:`ValueError` naming ``name`` and the value."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")


def check_interval(name: str, value, low: float, high: float) -> None:
    """``value`` must be a real with low < value < high, so NaN fails, else
    :class:`ValueError` naming ``name`` and the value."""
    if not (isinstance(value, numbers.Real) and low < value < high):
        raise ValueError(f"{name} must lie in ({low:g}, {high:g}), "
                         f"got {value!r}")


def check_at_least(name: str, value, minimum: float) -> None:
    """``value`` must be a real of at least ``minimum``, so NaN fails, else
    :class:`ValueError` naming ``name`` and the value."""
    if not (isinstance(value, numbers.Real) and value >= minimum):
        raise ValueError(f"{name} must be a real >= {minimum:g}, "
                         f"got {value!r}")
