"""Generalized factorials, their exponentials and the half-index bound.

A strictly increasing sequence x_0 = 0 < x_1 < x_2 < ... defines the
factorials x_n! = x_1 x_2 ... x_n, a generalized exponential
N(t) = sum t^n / x_n!, and the series
S_k(t) = sum_n x_{k/2+n}! / (x_n! x_{n+k}!) t^{n+k/2}.  Half-integer
indices rely on the sequence's declared interpolation of log(x_nu!).
The shipped built-in is x_n = n, whose interpolation is log Gamma(nu+1).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import SERIES_MAX_TERMS, SERIES_TOL, ln_gamma

__all__ = [
    "FactorialSequence",
    "integer_sequence",
    "generalized_exp",
    "s_k",
    "half_factorial_bound_check",
]

@dataclass(frozen=True)
class FactorialSequence:
    """Sequence x_n with a log-factorial interpolation and growth radius.

    log_factorial must accept any real index nu >= 0 where the
    half-index values are required, and on n <= 5 it must step by
    log x_n (else DomainError); radius is lim x_{n+1} (may be inf).
    """

    x: object
    log_factorial: object
    radius: float

    def __post_init__(self):
        if self.x(0) != 0:
            raise DomainError("sequence must start at x_0 = 0")
        probe = [self.x(n) for n in range(6)]
        if any(b <= a for a, b in zip(probe, probe[1:])):
            raise DomainError("sequence must be strictly increasing")
        if abs(self.log_factorial(0.0)) > 1e-14:
            raise DomainError("log_factorial(0) must be 0 (empty product)")
        steps = [self.log_factorial(float(n)) - self.log_factorial(n - 1.0) for n in range(1, 6)]
        if any(abs(s - math.log(x)) > 1e-12 for s, x in zip(steps, probe[1:])):
            raise DomainError("log_factorial(n) - log_factorial(n-1) must equal log x_n")


def integer_sequence():
    """The x_n = n case: x_n! = n!, interpolated by Gamma(nu + 1)."""
    return FactorialSequence(
        x=lambda n: float(n),
        log_factorial=lambda nu: ln_gamma(nu + 1.0) if nu > -1.0 else math.inf,
        radius=math.inf,
    )


def generalized_exp(seq, t):
    """N(t) = sum_n t^n / x_n!, for t below the convergence radius, to 1e-15 of the total."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if t >= seq.radius:
        raise DomainError(f"t={t} at or beyond the convergence radius {seq.radius}")
    total = 1.0
    for n in range(1, SERIES_MAX_TERMS):
        term = math.exp(n * math.log(t) - seq.log_factorial(float(n))) if t > 0 else 0.0
        total += term
        if term < SERIES_TOL * total:
            return total
    raise ConvergenceError("generalized exponential did not converge")


def s_k(seq, k, t):
    """S_k(t) = sum_n x_{k/2+n}! / (x_n! x_{n+k}!) t^{n+k/2}, integral k >= 0, to 1e-15 of the total."""
    if not (isinstance(k, numbers.Integral) and k >= 0):
        raise DomainError(f"k must be nonnegative and integral, got {k!r}")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if t >= seq.radius:
        raise DomainError(f"t={t} at or beyond the convergence radius {seq.radius}")
    if t == 0.0:
        return 0.0 if k > 0 else 1.0
    log_t = math.log(t)
    total = 0.0
    for n in range(SERIES_MAX_TERMS):
        term = math.exp(
            seq.log_factorial(k / 2.0 + n)
            - seq.log_factorial(float(n))
            - seq.log_factorial(float(n + k))
            + (n + k / 2.0) * log_t
        )
        total += term
        if n > 2 and term < SERIES_TOL * total:
            return total
    raise ConvergenceError(f"S_k series did not converge for k={k}, t={t}")


def half_factorial_bound_check(seq, n1, n2):
    """Cauchy-Schwarz bound x_{(n1+n2)/2}! <= sqrt(x_{n1}! x_{n2}!), in logs, elementwise.

    n1, n2: nonnegative integer arrays of one shape (else DomainError); every
    pair reads one table of log_factorial(k/2), k <= 2 max(n1, n2).
    """
    n = np.asarray([n1, n2], dtype=float)
    if not np.all(np.isfinite(n) & (n >= 0) & (n == np.floor(n))):
        raise DomainError("indices must be nonnegative integers")
    n = n.astype(np.int64)
    table = np.array([seq.log_factorial(k / 2.0) for k in range(2 * int(n.max(initial=0)) + 1)])
    rhs = 0.5 * (table[2 * n[0]] + table[2 * n[1]])
    return table[n[0] + n[1]] <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs))
