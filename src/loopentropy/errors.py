"""Exception types shared across the library."""


class LoopEntropyError(Exception):
    """Base class for all library errors."""


class InputError(LoopEntropyError, ValueError):
    """An input lies outside the range a function accepts.

    It is a ``ValueError`` too, so ``except ValueError`` still catches it.
    """


class PoleError(LoopEntropyError):
    """A special function was evaluated at one of its poles.

    Callers that need a value at (or expanded around) the pole should
    switch to the series form of the same quantity.
    """


class NonFiniteError(LoopEntropyError):
    """An operation produced a NaN or infinity."""


class NonInvertibleLeadingTermError(LoopEntropyError):
    """Division/log of a series whose leading term vanishes or carries a
    log-of-epsilon factor."""


class LogCapError(LoopEntropyError):
    """An operation would produce log-of-epsilon powers above the cap."""


class NonConvergentError(LoopEntropyError):
    """Quadrature was requested for parameters where the integral diverges."""


class ToleranceNotMetError(LoopEntropyError):
    """Adaptive quadrature could not reach the requested tolerance."""


class UnknownQuantityError(LoopEntropyError):
    """An entropy quantity name is not in the registry."""
