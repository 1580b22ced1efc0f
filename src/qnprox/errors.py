"""Exception types shared across the solver stack."""


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
