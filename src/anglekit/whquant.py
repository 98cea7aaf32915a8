"""Weyl-Heisenberg integral quantization on the truncated Fock basis.

Displacement operators are built entrywise from associated Laguerre
recurrences with running rescaling, so entries stay accurate far past
the point where factorials overflow.  Only real radii are filled, a
batch at a time; rotation covariance, D(r e^{i gamma}) =
U(gamma) D(r) U(gamma)* with U(gamma) = diag(e^{i gamma n}), supplies
the phases.  It also lets lower_symbols serve a whole angle grid from
one fill per action J, and makes the angle integral of the quantization
map exact: quantize hands the real frames D(sqrt J) rho^{1/2} to
linalg.quantize_modes, the kernel it shares with circlecs.quantize_cyl.
The action J = |z|^2 takes generalized Gauss-Laguerre rules: diagonal q
carries a factor J^{|q|/2}, so each mode goes to the alpha = 0 or 1/2
rule by the parity of |q| plus the declared half-power of its
coefficient, keeping the map polynomial-exact at t = 0.  The rules are
built in-house by linalg.gauss_rule from the Laguerre Jacobi matrix and
carry log weights, which quantize reads without leaving log space.

The weight is WeightSpec(t, diag): the Cahill-Glauber diagonal
(1-t) t^n without diag, the given density diagonal with it.
Truncation loss is judged by the one kept-mass rule,
errors.warn_kept_mass: quantize applies it to the weight diagonal on
dim rows, lower_symbols and symbol_sine_coefficients to their truncated
state.

Angle quantization enters twice: as the explicit quadrature and as the
closed-form matrix with entries i F_{nn'}(t) / (n' - n) built from
terminating hypergeometric sums.  Both normalizations follow the same
published convention; see f_coefficient for the fine print at t > 0.
"""

import cmath
import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureWarning, warn_kept_mass
from .linalg import BasisSpec, TruncatedOperator
from . import linalg
from .specfun import (
    assoc_laguerre,
    gauss_2f1_terminating,
    kummer_1f1,
    ln_gamma,
    sawtooth_fourier,
)

__all__ = [
    "WeightSpec",
    "QuadratureScheme",
    "displacement_laguerre",
    "coherent_state",
    "quantize",
    "f_coefficient",
    "angle_matrix",
    "lower_symbols",
    "d_q_cs",
    "d_q_series",
    "symbol_sine_coefficients",
    "canonical_angle_B",
    "covariance_checks",
]


@dataclass(frozen=True)
class WeightSpec:
    """Weight choice for the quantization map.

    Without diag, the Cahill-Glauber weight: the geometric diagonal
    (1-t) t^n derived from the Gaussian weight, whose parameter s <= -1
    maps to t = (s+1)/(s-1) in [0, 1).  With diag, an explicit
    nonnegative density diagonal summing to 1, which does not read t:
    a diag given with a nonzero t is rejected.
    """

    t: float = 0.0
    diag: tuple = None

    def __post_init__(self):
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must lie in [0, 1), got {self.t}")
        if self.diag is not None:
            if self.t != 0.0:
                raise DomainError(f"a density diagonal does not read t, got t={self.t}")
            d = np.asarray(self.diag, dtype=float)
            if not np.all(np.isfinite(d)):
                raise DomainError("density diagonal must be finite")
            if np.any(d < 0):
                raise DomainError("density diagonal must be nonnegative")
            if abs(d.sum() - 1.0) > 1e-12:
                raise DomainError(f"density diagonal must sum to 1, got {d.sum()}")

    def diagonal(self, dim):
        """The weight diagonal on dim rows; its callers judge the mass it drops."""
        if self.diag is not None:
            d = np.zeros(dim)
            src = np.asarray(self.diag, dtype=float)
            d[: min(dim, src.size)] = src[:dim]
            return d
        return (1.0 - self.t) * self.t ** np.arange(dim)  # 0^0 = 1: the vacuum at t = 0


@functools.lru_cache(maxsize=32)
def _radial_rule(n_points, alpha):
    """Nodes and log weights for integral_0^inf e^{-J} J^alpha g(J) dJ.

    The Laguerre Jacobi matrix has d_k = 2k + 1 + alpha and
    e_k = sqrt((k + 1)(k + 1 + alpha)), and the weight's mass is
    Gamma(alpha + 1).
    """
    k = np.arange(n_points, dtype=float)
    return linalg.gauss_rule(
        2.0 * k + 1.0 + alpha, np.sqrt(k[1:] * (k[1:] + alpha)), ln_gamma(alpha + 1.0)
    )


@dataclass(frozen=True)
class QuadratureScheme:
    """n_J-point generalized Gauss-Laguerre rule in J; angles need no rule.

    radial_rule(alpha) returns the nodes and log weights of the rule for
    the weight e^{-J} J^alpha, built by linalg.gauss_rule and cached.
    """

    n_J: int = 96

    def __post_init__(self):
        if not float(self.n_J).is_integer():
            raise DomainError(f"n_J must be an integer, got {self.n_J!r}")
        if self.n_J < 8:
            raise DomainError("quadrature needs n_J >= 8")
        if self.n_J > 160:
            raise DomainError("n_J beyond 160 loses the small radial weights")

    def radial_rule(self, alpha):
        return _radial_rule(self.n_J, alpha)

    def refined(self):
        """1.5x the nodes, at most 160; DomainError at n_J = 160, where no node can be added."""
        if self.n_J == 160:
            raise DomainError("n_J = 160 is the cap: refinement adds no node")
        return QuadratureScheme(n_J=min(160, int(math.ceil(self.n_J * 1.5))))


# Radii per _radial_fill call in quantize: bounds the (dim, batch, cols) frame block.
FILL_BATCH = 16


def _radial_fill(radii, dim, cols=None):
    """Real D(r_k)[:, :cols] for a batch of radii r_k >= 0, shape (K, dim, cols).

    Along offset a = m - n >= 0 the entry is e^{-J/2} r^a S_n with
    J = r^2 and S_n = sqrt(n!/(n+a)!) L_n^{(a)}(J).  The three-term
    recurrence for S_n runs along n for every radius and offset at once;
    each (radius, offset) pair is rescaled whenever its running magnitude
    leaves [1e-100, 1e100], so intermediate Laguerre growth never
    overflows, and entries whose log scale falls below -745 stay zero.
    Step n writes column n of the lower triangle and, by parity
    D_{mn} = (-1)^{m+n} D_{nm}, row n of the upper triangle, so the
    first cols steps fill the first cols columns (cols defaults to dim).
    The result is a view of a (dim, K, cols) array, the frame layout of
    linalg.quantize_modes.
    """
    cols = dim if cols is None else cols
    r = np.asarray(radii, dtype=float)
    J = (r * r)[:, None]
    a = np.arange(dim, dtype=float)
    sign = 1.0 - 2.0 * (np.arange(dim) % 2)
    log_r = np.log(r, out=np.full(r.size, -np.inf), where=r > 0.0)
    pref_ln = -J / 2.0 + np.multiply(  # a log r with 0 log 0 = 0: D(0) = I
        a, log_r[:, None], out=np.zeros((r.size, dim)), where=a > 0.0
    )
    lg = np.array([ln_gamma(k + 1.0) for k in range(dim)])
    s_prev = np.zeros((r.size, dim))
    s_cur = np.repeat(np.exp(-0.5 * lg)[None, :], r.size, axis=0)
    scale_ln = np.zeros((r.size, dim))
    out = np.zeros((dim, r.size, cols))
    for n in range(cols):
        live = dim - n  # offsets a < live still have a row n + a
        s_prev, s_cur, scale_ln = s_prev[:, :live], s_cur[:, :live], scale_ln[:, :live]
        val_ln = pref_ln[:, :live] + scale_ln
        col = np.where(val_ln > -745.0, s_cur * np.exp(val_ln), 0.0)
        out[n:, :, n] = col.T
        out[n, :, n:] = col[:, : cols - n] * sign[: cols - n]
        s_next = (
            (2.0 * n + 1.0 + a[:live] - J) * s_cur
            - np.sqrt(n * (n + a[:live])) * s_prev
        ) / np.sqrt((n + 1.0) * (n + 1.0 + a[:live]))
        s_prev, s_cur = s_cur, s_next
        mag = np.maximum(np.abs(s_cur), np.abs(s_prev))
        rescale = (mag > 1e100) | ((0.0 < mag) & (mag < 1e-100))
        if rescale.any():
            div = np.where(rescale, mag, 1.0)
            s_cur /= div
            s_prev /= div
            scale_ln += np.log(div)
    return out.transpose(1, 0, 2)


def _frames(radii, rho):
    """Plane frames D(r_k) rho^{1/2} on the support of the diagonal rho, shape (dim, K, cols)."""
    cols = int(np.flatnonzero(rho).max(initial=-1)) + 1
    F = _radial_fill(radii, rho.size, cols).transpose(1, 0, 2)
    F *= np.sqrt(rho[:cols])
    return F


def displacement_laguerre(z, dim):
    """Truncated displacement matrix D(z) from the Laguerre formula.

    By rotation covariance D(z) = U(arg z) D(|z|) U(arg z)* with
    U(theta) = diag(e^{i theta n}), so only the real matrix D(|z|) is
    filled (one recurrence run, upper triangle by parity, see
    _radial_fill) and linalg.rotate supplies the phases.
    The parity rule D_{mn}(z) = (-1)^{m+n} conj(D_{nm}(z)) is the
    footnote identity between L_n^{(m-n)} and L_m^{(n-m)} in disguise.
    """
    basis = BasisSpec("one_sided", dim)
    if dim < 2:
        raise DomainError(f"displacement needs dim >= 2, got {dim}")
    z = complex(z)
    D = TruncatedOperator(_radial_fill([abs(z)], dim)[0], basis)
    return linalg.rotate(D, cmath.phase(z))


def coherent_state(z, dim):
    """Normalized coherent state vector, components e^{-|z|^2/2} z^n / sqrt(n!).

    This is D(z) applied to the vacuum; unit norm forces the exponent
    |z|^2/2 (the unnormalized variant differs only there).
    """
    n = BasisSpec("one_sided", dim).labels()
    if dim < 2:
        raise DomainError(f"coherent state needs dim >= 2, got {dim}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    lg = np.array([ln_gamma(k + 1.0) for k in range(dim)])
    log_mag = -abs(z) ** 2 / 2.0 + n * math.log(abs(z)) - 0.5 * lg
    return np.exp(log_mag) * np.exp(1j * np.angle(z) * n)


def _plane_modes(fourier):
    """Map {q: c_q} to {q: (c_q, alpha of its Gauss-Laguerre rule)}.

    A pair (g, half_power) folds J^{half_power/2} into g, which then
    becomes a callable.  A bare number stays a number: linalg.quantize_modes
    integrates it on the same path as its constant callable, bit for bit.
    """
    out = {}
    for q, spec in linalg.integer_modes(fourier).items():
        g, s = spec if isinstance(spec, tuple) else (spec, 0)
        if s not in (0, 1):
            raise DomainError(f"half_power must be 0 or 1, got {s}")
        if s and (callable(g) or isinstance(g, numbers.Number)):
            g = (lambda J, g=g: (g(J) if callable(g) else g) * math.sqrt(J))
        out[q] = (g, 0.5 * ((abs(q) + s) % 2))
    return out


def quantize(fourier, weight, quad, dim, check_resolution=False):
    """Integral quantization of f(J, gamma) = sum_q c_q(J) e^{i q gamma}.

    Parameters
    ----------
    fourier : dict
        Map q -> c_q, q an integer (else DomainError), each c_q a number
        (a constant), a callable of J, or a pair (g, half_power)
        meaning c_q(J) = g(J) * J**(half_power/2).
        Declaring the half power keeps the radial rule polynomial-exact.
    weight : WeightSpec
    quad : QuadratureScheme
    dim : int
        Truncation dimension of the output operator.
    check_resolution : bool
        When True, recompute at 1.5x nodes and warn if the max-norm of
        the difference exceeds 1e-6; DomainError at n_J = 160.

    Warns once by errors.warn_kept_mass, giving the lost mass, when the
    weight diagonal on dim rows loses mass: the map of the constant 1 is
    the kept mass times the identity.
    """
    modes = _plane_modes(fourier)
    finer = quad.refined() if check_resolution else None
    rho = weight.diagonal(dim)
    warn_kept_mass(float(rho.sum()), "weight", f"dim={dim}", stacklevel=2)
    result = _quantize_once(modes, rho, quad)
    if finer is not None:
        drift = linalg.op_norm_max(_quantize_once(modes, rho, finer) - result)
        if drift > 1e-6:
            warnings.warn(
                f"quantize changed by {drift:.3e} under 1.5x refinement",
                QuadratureWarning,
                stacklevel=2,
            )
    return result


def _quantize_once(modes, rho, quad):
    dim = rho.size
    basis = BasisSpec("one_sided", dim, 0)
    out = np.zeros((dim, dim), dtype=complex)
    for alpha in (0.0, 0.5):
        group = {-q: g for q, (g, a) in modes.items() if a == alpha}  # the plane fills n' - n = q
        out += linalg.quantize_modes(group, _plane_frames(quad, alpha, rho), basis)
    return TruncatedOperator(out, basis)


def _plane_frames(quad, alpha, rho):
    """Blocks (J, w e^J J^-alpha, _frames) of the alpha Gauss-Laguerre rule, FILL_BATCH nodes each."""
    J, log_w = quad.radial_rule(alpha)  # every node is positive
    w = np.exp(log_w + J - alpha * np.log(J))
    for k in range(0, J.size, FILL_BATCH):
        block = slice(k, k + FILL_BATCH)
        yield J[block], w[block], _frames(np.sqrt(J[block]), rho)


def f_coefficient(n, n_prime, t):
    """Angle-matrix coefficient F_{nn'}(t), evaluated in the safe order.

    This is the scalar oracle: angle_matrix computes the same closed
    form for every pair at once, and the checks and tests hold it to
    this function pair by pair.

    F is symmetric under swapping n and n'; the hypergeometric sum is
    only well-conditioned when the first index is the smaller one, so
    the pair is normalized to min/max before evaluating (the swapped
    order hits a vanishing lower Pochhammer for even separations).

    Note: at t = 0 this reduces to Gamma((n+n')/2 + 1)/sqrt(n! n'!),
    which matches the quantization map exactly; for t > 0 the published
    closed form, reproduced here, carries one factor (1-t) more than
    the map itself produces (the map's matrix equals this one divided
    by (1-t)).  All contracted identities pin t = 0.
    """
    if n == n_prime:
        raise DomainError("f_coefficient is defined off the diagonal (n != n')")
    if not 0.0 <= t < 1.0:
        raise DomainError(f"t must lie in [0, 1), got {t}")
    lo, hi = (n, n_prime) if n < n_prime else (n_prime, n)
    if lo < 0:
        raise DomainError("indices must be nonnegative")
    log_mag = (
        ln_gamma((lo + hi) / 2.0 + 1.0)
        - 0.5 * (ln_gamma(lo + 1.0) + ln_gamma(hi + 1.0))
        + (1.0 + (hi - lo) / 2.0) * math.log1p(-t)
    )
    f21 = gauss_2f1_terminating(-lo, (hi - lo) / 2.0, -(lo + hi) / 2.0, t)
    return math.exp(log_mag) * f21


def angle_matrix(t, dim):
    """Closed-form angle operator: pi on the diagonal, i F_{nn'}/(n'-n) off it.

    F is f_coefficient's closed form, taken for every pair lo < hi at
    once.  The Gamma factor reads one table of lgamma(m/2 + 1), m < 2 dim.
    The sum 2F1(-lo, s/2; -lo - s/2; t), s = hi - lo, runs one grid
    recurrence over the term index k: step k multiplies the term of
    every pair with lo > k by (k - lo)(s/2 + k)/(k - lo - s/2) t/(k + 1),
    all positive, and adds it in.  Pairs are kept row by row, so the
    pairs still summing are a suffix; the steps cost O(D^3/6) elementwise
    operations in all.  Diagonal -s takes i F_{n,n+s}/s, diagonal s its
    conjugate, so the matrix is exactly Hermitian.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"t must lie in [0, 1), got {t}")
    basis = BasisSpec("one_sided", dim, 0)
    lo, hi = np.triu_indices(dim, 1)
    half_lgamma = np.array([math.lgamma(m / 2.0 + 1.0) for m in range(2 * dim)])
    b = (hi - lo) / 2.0
    log_mag = (
        half_lgamma[lo + hi]
        - 0.5 * (half_lgamma[2 * lo] + half_lgamma[2 * hi])
        + (1.0 + b) * math.log1p(-t)
    )
    f21 = np.ones(lo.size)
    if t > 0.0:
        a = -lo.astype(float)
        c = a - b
        term, ratio, buf = np.ones(lo.size), np.empty(lo.size), np.empty(lo.size)
        for k in range(dim - 2):
            live = slice((k + 1) * (2 * dim - k - 2) // 2, None)  # rows lo > k
            r, d, term_k, sum_k = ratio[live], buf[live], term[live], f21[live]
            np.add(a[live], k, out=r)
            np.add(b[live], k, out=d)
            r *= d
            np.add(c[live], k, out=d)
            r /= d
            term_k *= r
            term_k *= t / (k + 1.0)
            sum_k += term_k
    F = np.exp(log_mag) * f21
    bands = {0: math.pi}
    for s in range(1, dim):
        n = np.arange(dim - s)
        upper = 1j * F[n * (2 * dim - n - 1) // 2 + s - 1] / s  # row-major index of (n, n + s)
        bands[-s], bands[s] = upper, upper.conj()
    return TruncatedOperator(linalg.fill_diagonals(bands, basis), basis)


def _diagonal_sums(A, weight, J):
    """linalg.diagonal_sums of M = F F^T against A, F = D(sqrt J) rho^{1/2}; tr M is the kept mass."""
    if A.basis.mode != "one_sided":
        raise DomainError(f"plane symbols need a one_sided (Fock) basis, got {A.basis.mode}")
    if not (math.isfinite(J) and J >= 0):
        raise DomainError(f"J must be nonnegative and finite, got {J}")
    F = _frames([math.sqrt(J)], weight.diagonal(A.dim))[:, 0]
    warn_kept_mass(float(np.sum(F * F)), f"state at J={J}", f"dim={A.dim}", stacklevel=3)
    return linalg.diagonal_sums(F @ F.T, A.entries)


def lower_symbols(A, weight, J, gammas):
    """Covariant symbols tr(D(z) rho D(z)* A) at z = sqrt(J) e^{i gamma}, every gamma.

    Rotation covariance gives D(z) rho D(z)* = U(gamma) M U(gamma)* with
    M = D(sqrt J) rho D(sqrt J)^T real, so the symbol is
    sum_d e^{i gamma d} s_d with s_d = sum_{m-n=d} M_mn A_nm
    (linalg.diagonal_sums, linalg.rotated_traces): one radial fill of
    the columns in rho's support and one O(dim^2) pass serve the whole
    grid.  Real (to eigen accuracy) when A is Hermitian and rho a
    density.  Warns once by errors.warn_kept_mass, giving the lost mass,
    when M loses mass: tr M is the symbol of the identity.
    """
    return linalg.rotated_traces(_diagonal_sums(A, weight, J), gammas)


def d_q_cs(q, J):
    """Sine-series coefficient of the angle symbol at t = 0.

    d_q = e^{-J} J^{q/2} Gamma(q/2+1)/Gamma(q+1) 1F1(q/2+1; q+1; J),
    evaluated in log space; positive and bounded by 1.
    """
    if not (float(q).is_integer() and q >= 1):
        raise DomainError(f"q must be a positive integer, got {q}")
    if not (math.isfinite(J) and J >= 0):
        raise DomainError(f"J must be nonnegative and finite, got {J}")
    if J == 0.0:
        return 0.0
    log_pref = -J + (q / 2.0) * math.log(J) + ln_gamma(q / 2.0 + 1.0) - ln_gamma(q + 1.0)
    hyp = kummer_1f1(q / 2.0 + 1.0, q + 1.0, J)
    return math.exp(log_pref + math.log(hyp))


def d_q_series(q, J, t):
    """Reference evaluation of the published general-t symbol coefficient.

    Reproduces the triple Laguerre sum as displayed, with two repairs:
    the last partial sum starts strictly above m = q + n (as printed,
    the m = q + n term is counted twice), and the prefactor is
    (1 - t)^{q/2+2} where (1 - t^2)^{q/2+2} is printed, the convention
    of angle_matrix(t) and WeightSpec(t): this value is the printed one
    divided by (1 + t)^{q/2+2}.  So corrected, the sum matches
    symbol_sine_coefficients(angle_matrix(t, 160), WeightSpec(t=t), J, 8)
    to 1.8e-13 relative on t in {0.1, 0.3, 0.5}, J in {0.5, 2, 8, 15},
    q in {1, 4, 8}, and at t = 0 it collapses to d_q_cs.  Restricted to
    q <= 12, J <= 20, t <= 0.5 where the products stay in range.  The
    outer sum stops at 200 terms or, past n = 2J, at a term below 1e-13
    of the total.  The last partial sum stops when a tail bound falls
    below 2^-53 of its running value: |L_k^(a)(J)| <= C(k + a, k)
    e^{J/2} for a >= 0 (Abramowitz-Stegun 22.14.13) bounds its term m
    by b_m, whose ratio rho = b_{m+1} / b_m falls with m, so the terms
    past m sum to at most b_m rho / (1 - rho) once rho < 1.  On a grid
    spanning the domain (q up to 12, J up to 20, t up to 0.5) it stops
    within 98 of its 200-term cap.
    """
    if not (float(q).is_integer() and 1 <= q <= 12):
        raise DomainError(f"d_q_series supports integers 1 <= q <= 12, got {q}")
    if not 0.0 <= J <= 20.0:
        raise DomainError(f"d_q_series supports J in [0, 20], got {J}")
    if not 0.0 <= t <= 0.5:
        raise DomainError(f"d_q_series supports t in [0, 0.5], got {t}")
    if J == 0.0:
        return 0.0
    log_j = math.log(J)
    pref = (q / 2.0 + 2.0) * math.log1p(-t) - J
    total = 0.0
    for n in range(200):
        gam = ln_gamma(q / 2.0 + n + 1.0)
        f21 = gauss_2f1_terminating(-n, q / 2.0, -q / 2.0 - n, t)
        inner = 0.0
        log_fact_qn = ln_gamma(q + n + 1.0)
        log_fact_n = ln_gamma(n + 1.0)
        for m in range(0, n + 1):
            if t == 0.0 and m > 0:
                break
            log_t = m * math.log(t) if m > 0 else 0.0
            term = math.exp(
                log_t + ln_gamma(m + 1.0) - log_fact_qn - log_fact_n
                + (q / 2.0 + n - m) * log_j
            )
            inner += term * assoc_laguerre(m, n - m, J) * assoc_laguerre(m, q + n - m, J)
        if t > 0.0:
            for m in range(n + 1, q + n + 1):
                term = math.exp(m * math.log(t) - log_fact_qn + (q / 2.0) * log_j)
                inner += ((-1.0) ** (m + n)) * term * assoc_laguerre(n, m - n, J) * assoc_laguerre(m, q + n - m, J)
            for m in range(q + n + 1, q + n + 201):
                log_fact_m = ln_gamma(m + 1.0)
                log_term = m * math.log(t) - log_fact_m + (m - q / 2.0 - n) * log_j
                inner += ((-1.0) ** q) * math.exp(log_term) * assoc_laguerre(n, m - n, J) * assoc_laguerre(q + n, m - q - n, J)
                rho = t * J * (m + 1.0) / ((m + 1.0 - n) * (m + 1.0 - q - n))
                if rho < 1.0:
                    log_b = (log_term + J + 2.0 * log_fact_m - log_fact_n - ln_gamma(m - n + 1.0)
                             - log_fact_qn - ln_gamma(m - q - n + 1.0))
                    if log_b + math.log(rho / (1.0 - rho)) <= math.log(2.0 ** -53 * abs(inner) + 1e-300):
                        break
        piece = math.exp(gam) * f21 * inner
        total += piece
        if n > 2 * J and abs(piece) < 1e-13 * abs(total):
            break
    return math.exp(pref) * total


def symbol_sine_coefficients(A, weight, J, q_max):
    """Fourier-sine coefficients d_q of the symbol via the trace route; warns as lower_symbols.

    The symbol is sum_d s_d e^{i gamma d} (see lower_symbols), so with
    the symbol normalized as pi - 2 sum_q d_q sin(q gamma)/q,
    d_q = q Im((s_q + conj(s_{-q}))/2); modes q >= dim give d_q = 0.
    """
    dim = A.dim
    s_d = _diagonal_sums(A, weight, J)
    q = np.arange(1, min(q_max, dim - 1) + 1)
    out = np.zeros(q_max)
    out[: q.size] = q * ((s_d[dim - 1 + q] + s_d[dim - 1 - q].conj()) / 2.0).imag
    return out


def canonical_angle_B(dim, mode="cyclic", q_cutoff=0):
    """Canonical angle operator pi I + i sum_{1<=n<=Q} (U^n - U^{-n})/n.

    `sawtooth_fourier(Q)` filled on the basis: i/n on diagonal n, where
    U^n has its ones, and -i/n on diagonal -n, wrapped mod D in cyclic
    mode, cut at |n| >= D in two-sided mode.  Where the two coincide
    (cyclic, 2n = 0 mod D) they cancel exactly.
    """
    if mode not in ("cyclic", "two_sided"):
        raise DomainError("canonical angle needs a cyclic or two_sided basis")
    if dim < 4:
        raise DomainError(f"shift family needs dim >= 4, got {dim}")
    if not (isinstance(q_cutoff, numbers.Integral) and q_cutoff >= 0):
        raise DomainError(f"q_cutoff must be nonnegative and integral, got {q_cutoff!r}")
    basis = BasisSpec(mode, dim)
    return TruncatedOperator(linalg.fill_diagonals(sawtooth_fourier(q_cutoff), basis), basis)


def covariance_checks(z, z_prime, theta, dim):
    """Defect report for the displacement covariance identities.

    Returns max-norm defects on the top-left dim/2 block for
    (a) the addition formula D(z)D(z') = e^{(z zb' - zb z')/2} D(z+z'),
    (b) rotation covariance U(theta) D(z) U(theta)* = D(e^{i theta} z),
    (c) parity covariance P D(z) P = D(-z),
    (d) translation covariance of the map, A_{f(z - z0)} = D(z0) A_f D(z0)*
        probed with f(z) = z and z0 = z' under WeightSpec() and QuadratureScheme().
    """
    if dim < 8:
        raise DomainError("covariance checks need dim >= 8")
    half = dim // 2
    disp = lambda w: displacement_laguerre(w, dim)
    defect = lambda a, b: float(np.abs(a - b)[:half, :half].max())
    Dz, Dzp = disp(z), disp(z_prime).entries
    phase = np.exp((z * np.conj(z_prime) - np.conj(z) * z_prime) / 2.0)
    Az = quantize({1: ((lambda J: 1.0), 1)}, WeightSpec(), QuadratureScheme(), dim).entries
    return {
        "addition": defect(Dz.entries @ Dzp, phase * disp(z + z_prime).entries),
        "rotation": defect(linalg.rotate(Dz, theta).entries, disp(np.exp(1j * theta) * z).entries),
        "parity": defect(linalg.rotate(Dz, math.pi).entries, disp(-z).entries),
        # f(z) = z shifted by z0 = z' quantizes to A_z - z0
        "translation": defect(Az - z_prime * np.eye(dim), Dzp @ Az @ Dzp.conj().T),
    }
