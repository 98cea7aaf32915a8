"""Exception and warning types shared across the toolkit, and the one kept-mass rule."""

import warnings


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative kernel exhausted its budget before reaching tolerance."""


class BasisMismatchError(ValueError):
    """Two operators live on incompatible bases."""


class TruncationWarning(UserWarning):
    """Mass leaks past the finite truncation; for a state or weight, more than LEAK_TOL."""


LEAK_TOL = 1e-10


def warn_kept_mass(kept, subject, past, stacklevel):
    """Warn (TruncationWarning) when a truncation keeps less than 1 - LEAK_TOL of a unit mass.

    kept is the mass the truncated state or weight keeps; the message
    reads "{subject} leaks mass {1 - kept:.3e} past {past}".  stacklevel
    counts from the caller of this function, as in warnings.warn, so a
    private helper passes the level of its public caller's caller.
    """
    leak = 1.0 - kept
    if leak > LEAK_TOL:
        warnings.warn(f"{subject} leaks mass {leak:.3e} past {past}", TruncationWarning,
                      stacklevel=stacklevel + 1)


class QuadratureWarning(UserWarning):
    """Quadrature refinement changed the result more than the stability threshold."""
