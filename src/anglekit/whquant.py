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
coefficient, keeping the map polynomial-exact at t = 0.

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
from scipy.special import roots_genlaguerre, xlogy

from .errors import DomainError, QuadratureWarning, TruncationWarning
from .linalg import BasisSpec, TruncatedOperator
from . import linalg
from .specfun import (
    SeriesTolerance,
    assoc_laguerre,
    gauss_2f1_terminating,
    kummer_1f1,
    ln_gamma,
)

__all__ = [
    "WeightSpec",
    "PhaseSpacePoint",
    "QuadratureScheme",
    "displacement_laguerre",
    "coherent_state",
    "m_s_diagonal",
    "t_from_s",
    "quantize",
    "f_coefficient",
    "angle_matrix",
    "lower_symbols",
    "d_q_cs",
    "d_q_series",
    "symbol_sine_coefficients",
    "action_angle_commutator",
    "commutator_symbol",
    "canonical_angle_B",
    "covariance_checks",
]


def t_from_s(s):
    """Map the Gaussian weight parameter s <= -1 to t = (s+1)/(s-1) in [0, 1).

    The mapping is fixed by matching the diagonal of the weight-defined
    operator to the geometric (Boltzmann-type) density (1-t) t^n.
    """
    if s > -1.0:
        raise DomainError(f"density regime needs s <= -1, got {s}")
    return (s + 1.0) / (s - 1.0)


@dataclass(frozen=True)
class WeightSpec:
    """Weight choice for the quantization map.

    kind 'cahill_glauber' uses the geometric diagonal (1-t) t^n derived
    from the Gaussian weight; kind 'density_diagonal' takes an explicit
    nonnegative diagonal summing to 1.
    """

    kind: str = "cahill_glauber"
    t: float = 0.0
    diag: tuple = None

    def __post_init__(self):
        if self.kind not in ("cahill_glauber", "density_diagonal"):
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must lie in [0, 1), got {self.t}")
        if self.kind == "density_diagonal":
            if self.diag is None:
                raise DomainError("density_diagonal weight needs an explicit diag")
            d = np.asarray(self.diag, dtype=float)
            if np.any(d < 0):
                raise DomainError("density diagonal must be nonnegative")
            if abs(d.sum() - 1.0) > 1e-12:
                raise DomainError(f"density diagonal must sum to 1, got {d.sum()}")

    def diagonal(self, dim):
        if self.kind == "density_diagonal":
            d = np.zeros(dim)
            src = np.asarray(self.diag, dtype=float)
            d[: min(dim, src.size)] = src[:dim]
            dropped = float(src[dim:].sum())
            if dropped > 0.0:
                warnings.warn(
                    f"density diagonal drops mass {dropped:.3e} past dim={dim}",
                    TruncationWarning,
                    stacklevel=2,
                )
            return d
        n = np.arange(dim)
        if self.t == 0.0:
            d = np.zeros(dim)
            d[0] = 1.0
            return d
        return (1.0 - self.t) * self.t ** n


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Action-angle coordinates, z = sqrt(J) exp(i gamma)."""

    J: float
    gamma: float

    def __post_init__(self):
        if self.J < 0:
            raise DomainError(f"J must be nonnegative, got {self.J}")
        if not 0.0 <= self.gamma < 2.0 * math.pi:
            raise DomainError(f"gamma must lie in [0, 2 pi), got {self.gamma}")

    @property
    def z(self):
        return math.sqrt(self.J) * complex(math.cos(self.gamma), math.sin(self.gamma))


@functools.lru_cache(maxsize=32)
def _radial_rule(n_points, alpha):
    """Nodes/weights for integral_0^inf e^{-J} J^alpha g(J) dJ."""
    nodes, weights = roots_genlaguerre(n_points, alpha)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureScheme:
    """n_J-point generalized Gauss-Laguerre rule in J; angles need no rule."""

    n_J: int = 96

    def __post_init__(self):
        if self.n_J < 8:
            raise DomainError("quadrature needs n_J >= 8")
        if self.n_J > 160:
            raise DomainError("n_J beyond 160 loses the small radial weights")

    def radial_rule(self, alpha):
        return _radial_rule(self.n_J, alpha)

    def refined(self):
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
    pref_ln = -J / 2.0 + xlogy(a, r[:, None])  # D(0) = I: r^0 = 1
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
    if dim < 2:
        raise DomainError(f"displacement needs dim >= 2, got {dim}")
    z = complex(z)
    D = TruncatedOperator(_radial_fill([abs(z)], dim)[0], BasisSpec("one_sided", dim, 0))
    return linalg.rotate(D, cmath.phase(z))


def coherent_state(z, dim):
    """Normalized coherent state vector, components e^{-|z|^2/2} z^n / sqrt(n!).

    This is D(z) applied to the vacuum; unit norm forces the exponent
    |z|^2/2 (the unnormalized variant differs only there).
    """
    if dim < 2:
        raise DomainError(f"coherent state needs dim >= 2, got {dim}")
    z = complex(z)
    if z == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    n = np.arange(dim)
    lg = np.array([ln_gamma(k + 1.0) for k in range(dim)])
    log_mag = -abs(z) ** 2 / 2.0 + n * math.log(abs(z)) - 0.5 * lg
    return np.exp(log_mag) * np.exp(1j * np.angle(z) * n)


def m_s_diagonal(t, dim):
    """Geometric density rho_t = (1-t) sum t^n |e_n><e_n|, trace 1 - t^dim."""
    weight = WeightSpec(kind="cahill_glauber", t=t)
    return TruncatedOperator(
        np.diag(weight.diagonal(dim)).astype(complex), BasisSpec("one_sided", dim, 0)
    )


def _plane_modes(fourier):
    """Map {q: c_q} to {q: (callable c_q, alpha of its Gauss-Laguerre rule)}.

    A pair (g, half_power) folds J^{half_power/2} into g.  A number
    becomes a constant callable, so it takes the same path through
    linalg.quantize_modes as its callable spelling, bit for bit.
    """
    out = {}
    for q, spec in fourier.items():
        g, s = spec if isinstance(spec, tuple) else (spec, 0)
        if s not in (0, 1):
            raise DomainError(f"half_power must be 0 or 1, got {s}")
        if isinstance(g, numbers.Number):
            g = (lambda J, c=g: c)
        if s and callable(g):
            g = (lambda J, g=g: g(J) * math.sqrt(J))
        out[int(q)] = (g, 0.5 * ((abs(int(q)) + s) % 2))
    return out


def _poisson_tail_log(J, dim):
    """Log upper bound on the Poisson mass e^{-J} sum_{n >= dim} J^n/n!."""
    if J <= 0:
        return -math.inf
    if J >= dim + 1:
        return 0.0
    head = -J + dim * math.log(J) - ln_gamma(dim + 1.0)
    return head - math.log(1.0 - J / (dim + 1.0))


def quantize(fourier, weight, quad, dim, check_resolution=False):
    """Integral quantization of f(J, gamma) = sum_q c_q(J) e^{i q gamma}.

    Parameters
    ----------
    fourier : dict
        Map q -> c_q, each a number (a constant), a callable of J, or a
        pair (g, half_power) meaning c_q(J) = g(J) * J**(half_power/2).
        Declaring the half power keeps the radial rule polynomial-exact.
    weight : WeightSpec
    quad : QuadratureScheme
    dim : int
        Truncation dimension of the output operator.
    check_resolution : bool
        When True, recompute at 1.5x nodes and warn if the max-norm of
        the difference exceeds 1e-6.
    """
    modes = _plane_modes(fourier)
    result = _quantize_once(modes, weight, quad, dim)
    if check_resolution:
        refined = _quantize_once(modes, weight, quad.refined(), dim)
        drift = linalg.op_norm_max(refined - result)
        if drift > 1e-6:
            warnings.warn(
                f"quantize changed by {drift:.3e} under 1.5x refinement",
                QuadratureWarning,
                stacklevel=2,
            )
    return result


def _quantize_once(modes, weight, quad, dim):
    rho = weight.diagonal(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for alpha in (0.0, 0.5):
        group = {-q: g for q, (g, a) in modes.items() if a == alpha}  # the plane fills n' - n = q
        out += linalg.quantize_modes(group, _plane_frames(quad, alpha, rho), dim)
    return TruncatedOperator(out, BasisSpec("one_sided", dim, 0))


def _plane_frames(quad, alpha, rho):
    """Blocks (J, w e^J J^-alpha, _frames) of the alpha Gauss-Laguerre rule, FILL_BATCH nodes each.

    A node whose log weight log w + J - alpha log J exceeds 700 is
    dropped: its Laguerre weight underflowed upstream.
    """
    J, w = quad.radial_rule(alpha)  # every node and weight is positive for n_J <= 160
    log_w = np.log(w) + J - alpha * np.log(J)
    J, w = J[log_w <= 700.0], np.exp(log_w[log_w <= 700.0])
    for k in range(0, J.size, FILL_BATCH):
        block = slice(k, k + FILL_BATCH)
        yield J[block], w[block], _frames(np.sqrt(J[block]), rho)


def f_coefficient(n, n_prime, t):
    """Angle-matrix coefficient F_{nn'}(t), evaluated in the safe order.

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
    """Closed-form angle operator: pi on the diagonal, i F_{nn'}/(n'-n) off it."""
    out = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(out, math.pi)
    for n in range(dim):
        for np_ in range(n + 1, dim):
            val = 1j * f_coefficient(n, np_, t) / (np_ - n)
            out[n, np_] = val
            out[np_, n] = val.conjugate()
    return TruncatedOperator(out, BasisSpec("one_sided", dim, 0))


def _diagonal_sums(A, weight, J):
    """linalg.diagonal_sums of M = D(sqrt J) rho D(sqrt J)^T against A."""
    if J < 0:
        raise DomainError(f"J must be nonnegative, got {J}")
    F = _frames([math.sqrt(J)], weight.diagonal(A.dim))[:, 0]
    return linalg.diagonal_sums(F @ F.T, A.entries)


def lower_symbols(A, weight, J, gammas, warn_leak=True):
    """Covariant symbols tr(D(z) rho D(z)* A) at z = sqrt(J) e^{i gamma}, every gamma.

    Rotation covariance gives D(z) rho D(z)* = U(gamma) M U(gamma)* with
    M = D(sqrt J) rho D(sqrt J)^T real, so the symbol is
    sum_d e^{i gamma d} s_d with s_d = sum_{m-n=d} M_mn A_nm
    (linalg.diagonal_sums, linalg.rotated_traces): one radial fill of
    the columns in rho's support and one O(dim^2) pass serve the whole
    grid.  Real (to eigen accuracy) when A is Hermitian and rho a
    density; emits one TruncationWarning when the displaced state's Poisson tail past the
    truncation exceeds 1e-10.
    """
    dim = A.dim
    if warn_leak and _poisson_tail_log(J, dim) > math.log(1e-10):
        warnings.warn(
            f"state at J={J} leaks past truncation dim={dim}",
            TruncationWarning,
            stacklevel=2,
        )
    return linalg.rotated_traces(_diagonal_sums(A, weight, J), gammas)


def d_q_cs(q, J):
    """Sine-series coefficient of the angle symbol at t = 0.

    d_q = e^{-J} J^{q/2} Gamma(q/2+1)/Gamma(q+1) 1F1(q/2+1; q+1; J),
    evaluated in log space; positive and bounded by 1.
    """
    if q < 1:
        raise DomainError(f"q must be a positive integer, got {q}")
    if J < 0:
        raise DomainError(f"J must be nonnegative, got {J}")
    if J == 0.0:
        return 0.0
    log_pref = -J + (q / 2.0) * math.log(J) + ln_gamma(q / 2.0 + 1.0) - ln_gamma(q + 1.0)
    hyp = kummer_1f1(q / 2.0 + 1.0, q + 1.0, J,
                     tol=SeriesTolerance(abs_tol=1e-16, max_terms=200_000))
    return math.exp(log_pref + math.log(hyp))


def d_q_series(q, J, t):
    """Reference evaluation of the published general-t symbol coefficient.

    Reproduces the triple Laguerre sum as displayed, with one repair:
    the last partial sum starts strictly above m = q + n (as printed,
    the m = q + n term is counted twice).  Restricted to q <= 12,
    J <= 20, t <= 0.5 where the products stay in range.  At t = 0 this
    provably collapses to d_q_cs; for t > 0 the displayed expression is
    NOT consistent with the trace of the angle matrix against displaced
    densities (it even exceeds its stated bound of 1), so general-t
    sine coefficients should be taken from symbol_sine_coefficients,
    which is the quadrature-free trace route.  Sums stop at 200 terms or,
    past n = 2J, at an outer term below 1e-13 of the total.
    """
    if q < 1 or q > 12:
        raise DomainError(f"d_q_series supports 1 <= q <= 12, got {q}")
    if not 0.0 <= J <= 20.0:
        raise DomainError(f"d_q_series supports J in [0, 20], got {J}")
    if not 0.0 <= t <= 0.5:
        raise DomainError(f"d_q_series supports t in [0, 0.5], got {t}")
    if J == 0.0:
        return 0.0
    log_j = math.log(J)
    pref = (q / 2.0 + 2.0) * math.log1p(-t * t) - J
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
                term = math.exp(m * math.log(t) - ln_gamma(m + 1.0) + (m - q / 2.0 - n) * log_j)
                contrib = ((-1.0) ** q) * term * assoc_laguerre(n, m - n, J) * assoc_laguerre(q + n, m - q - n, J)
                inner += contrib
                if abs(contrib) < 1e-18 * (abs(inner) + 1e-300):
                    break
        piece = math.exp(gam) * f21 * inner
        total += piece
        if n > 2 * J and abs(piece) < 1e-13 * abs(total):
            break
    return math.exp(pref) * total


def symbol_sine_coefficients(A, weight, J, q_max):
    """Fourier-sine coefficients d_q of the symbol via the trace route.

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


def action_angle_commutator(t, dim):
    """Commutator [A_angle, A_J] with A_J = N + 1 (the shift drops out)."""
    A = angle_matrix(t, dim)
    AJ = TruncatedOperator(
        np.diag(np.arange(dim) + 1.0).astype(complex), BasisSpec("one_sided", dim, 0)
    )
    return linalg.commutator(A, AJ)


def commutator_symbol(point, t, dim):
    """Lower symbol of [A_angle, A_J]; approaches -i at large J away from the comb."""
    K = action_angle_commutator(t, dim)
    weight = WeightSpec(kind="cahill_glauber", t=t)
    return complex(lower_symbols(K, weight, point.J, [point.gamma])[0])


def canonical_angle_B(dim, mode="cyclic", q_cutoff=0):
    """Canonical angle operator pi I + i sum_{1<=n<=Q} (U^n - U^{-n})/n.

    U^n holds its ones at ((j + n) mod D, j) in cyclic mode and at
    (j + n, j), j < D - n, in two-sided mode; U^{-n} is its transpose.
    The ones are placed by index, O(Q D) work.  Where U^n and U^{-n}
    coincide (cyclic, 2n = 0 mod D) the term vanishes and is skipped.
    """
    if mode not in ("cyclic", "two_sided"):
        raise DomainError("canonical angle needs a cyclic or two_sided basis")
    if dim < 4:
        raise DomainError(f"shift family needs dim >= 4, got {dim}")
    offset = 0 if mode == "cyclic" else -(dim // 2)
    basis = BasisSpec(mode, dim, offset)
    out = math.pi * np.eye(dim, dtype=complex)
    cols = np.arange(dim)
    for n in range(1, q_cutoff + 1):
        if mode == "cyclic":
            if (2 * n) % dim == 0:
                continue
            j, rows = cols, (cols + n) % dim
        else:
            j = cols[: max(dim - n, 0)]
            rows = j + n
        out[rows, j] += 1j / n
        out[j, rows] -= 1j / n
    return TruncatedOperator(out, basis)


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
