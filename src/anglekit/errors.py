"""Exception and warning types shared across the toolkit."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative kernel exhausted its budget before reaching tolerance."""


class BasisMismatchError(ValueError):
    """Two operators live on incompatible bases."""


class TruncationWarning(UserWarning):
    """State or operator mass leaks past the finite truncation; for a state, more than LEAK_TOL."""


LEAK_TOL = 1e-10


class QuadratureWarning(UserWarning):
    """Quadrature refinement changed the result more than the stability threshold."""
