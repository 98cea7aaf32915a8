"""Coherent states on the cylinder from lattice-shifted probability densities.

A width-sigma density p(J) on the line, a `DistributionSpec` (built for
the Gaussian by `gaussian_distribution`), generates the states
|J, phi> = N(J)^{-1/2} sum_n sqrt(p(J-n)) e^{-i n phi} |e_n> over the
two-sided basis.  By rotation covariance the quantization of
f(J, phi) = sum_q c_q(J) e^{i q phi} has entries
integral c_{n-n'}(J) sqrt(p(J-n) p(J-n')) dJ over one table of action
nodes: quantize_cyl fills a constant mode as c_{n-n'} g_{|n-n'|}, g the
lattice overlap profile of that table, and hands callable modes to
linalg.quantize_modes, the kernel it shares with whquant.quantize.
lower_symbols_cyl serves a whole angle grid from one amplitude vector.
cs_vector and lower_symbols_cyl judge the mass the labels keep by the
one kept-mass rule, errors.warn_kept_mass.
The overlap profile p_{0,m} = integral sqrt(p(J) p(J-m)) dJ, computed by
its own quadrature, encodes the number-angle commutator completely.
`overlap_kernel(sigma, ...)` adds the Gaussian's Poisson-resummed form.
"""

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError, TruncationWarning, warn_kept_mass
from .linalg import BasisSpec, TruncatedOperator
from .specfun import sawtooth_fourier

__all__ = [
    "DistributionSpec",
    "CylinderPoint",
    "gaussian_distribution",
    "overlap",
    "overlap_profile",
    "cs_vector",
    "quantize_cyl",
    "fourier_harmonic_defect",
    "commutator_number_angle",
    "lower_symbols_cyl",
    "d_m_sigma",
    "overlap_kernel",
    "limit_study",
]

@dataclass(frozen=True)
class CylinderPoint:
    """Cylinder coordinates: action J on the line, angle phi in [0, 2 pi)."""

    J: float
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.J):
            raise DomainError(f"J must be finite, got {self.J}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi}")


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Even, normalized density with a declared effective support radius.

    pdf maps an ndarray of actions to a finite float ndarray of the same
    shape; every lattice sum and quadrature calls it once per array.
    radius R satisfies pdf(x) < ~1e-16 for |x| > R; all quadrature
    windows and the lattice sum of `normalizer` are derived from it.
    """

    sigma: float
    pdf: object
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be positive and finite, got {self.radius}")
        grid = np.linspace(0.1 * self.radius, 0.9 * self.radius, 17) * [[1.0], [-1.0]]
        try:
            vals = self.pdf(grid)
        except Exception as exc:
            raise DomainError(f"pdf must map an ndarray to a float ndarray: {exc}") from exc
        if not (isinstance(vals, np.ndarray) and vals.shape == grid.shape
                and vals.dtype.kind == "f" and np.isfinite(vals).all()):
            raise DomainError("pdf must map an ndarray to a finite float ndarray of its shape")
        if np.any(vals < 0):
            raise DomainError("pdf must be nonnegative")
        if float(np.abs(vals[0] - vals[1]).max()) > 1e-10 * max(float(vals[0].max()), 1e-300):
            raise DomainError("pdf must be even")
        mass = _panel_integral(self.pdf, (-self.radius, self.radius), self.sigma)
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"pdf must integrate to 1, got {mass}")

    def normalizer(self, J):
        """Lattice sum N(J) = sum_n pdf(J - n) over |J - n| <= radius, by math.fsum."""
        if not math.isfinite(J):
            raise DomainError(f"J must be finite, got {J}")
        lo = int(math.floor(J - self.radius))
        hi = int(math.ceil(J + self.radius))
        return math.fsum(self.pdf(J - np.arange(lo, hi + 1)).tolist())


@functools.lru_cache(maxsize=1)
def _legendre_rule():
    """24-point Gauss-Legendre nodes and weights on [-1, 1], built on first use.

    linalg.gauss_rule on the Legendre Jacobi matrix: d_k = 0,
    e_k = (k + 1) / sqrt(4 (k + 1)^2 - 1), mass 2.
    """
    k = np.arange(1.0, 24.0)
    nodes, log_w = linalg.gauss_rule(np.zeros(24), k / np.sqrt(4.0 * k * k - 1.0), math.log(2.0))
    return nodes, np.exp(log_w)


def _gl_rule(edges):
    """24-point Gauss-Legendre nodes and weights on the panels between consecutive edges."""
    nodes, weights = _legendre_rule()
    edges = np.asarray(edges, dtype=float)
    mid = (edges[1:] + edges[:-1]) / 2.0
    rad = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + rad[:, None] * nodes).ravel(), (rad[:, None] * weights).ravel()


def _panel_integral(f, edges, scale):
    """Composite Gauss-Legendre between consecutive edges, panels sized to the density width.

    f maps the node array of one edge pair to its values; each pair is summed by math.fsum.
    """
    width = min(max(scale / 2.0, 1e-3), 2.0)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        x, w = _gl_rule(np.linspace(lo, hi, max(4, math.ceil((hi - lo) / width)) + 1))
        total += math.fsum((w * f(x)).tolist())
    return total


@functools.lru_cache(maxsize=32, typed=True)
def gaussian_distribution(sigma):
    """Gaussian density of width sigma, radius 9 sigma + 1/2.

    Memoized: the spec is frozen, so each sigma is built, and its mass
    checked, once per process.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    pref = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)

    def pdf(x):
        return pref * np.exp(-x * x / (2.0 * sigma * sigma))

    radius = 9.0 * sigma + 0.5
    return DistributionSpec(sigma=sigma, pdf=pdf, radius=radius)


def overlap(dist, m):
    """Overlap p_{0,m} = integral sqrt(pdf(J) pdf(J-m)) dJ, in [0, 1]."""
    if not (isinstance(m, numbers.Integral) and m >= 0):
        raise DomainError(f"m must be nonnegative and integral, got {m!r}")
    if m == 0:
        return 1.0
    center = m / 2.0
    lo = center - dist.radius - 1.0
    hi = center + dist.radius + 1.0
    # the support edges are panel edges, so a compact density's kinks are integrated exactly
    cuts = sorted(c for c in (m - dist.radius, dist.radius) if lo < c < hi)

    def integrand(J):
        return np.sqrt(np.maximum(dist.pdf(J), 0.0) * np.maximum(dist.pdf(J - m), 0.0))

    val = _panel_integral(integrand, [lo, *cuts, hi], dist.sigma)
    return min(max(val, 0.0), 1.0)


def overlap_profile(dist, half_bandwidth):
    """Array of `overlap` p_{0,m}, 0 <= m <= half_bandwidth: p_{n,n'} = p_{0,|n-n'|}."""
    if not isinstance(half_bandwidth, numbers.Integral):
        raise DomainError(f"half_bandwidth must be an integer, got {half_bandwidth!r}")
    return np.array([overlap(dist, m) for m in range(half_bandwidth + 1)])


def cs_vector(dist, point, basis):
    """Circle coherent state over a two-sided basis.

    Component at label n is sqrt(p(J-n)/N(J)) e^{-i n phi}, N(J) over
    the whole lattice; the squared norm is the kept mass, and
    errors.warn_kept_mass warns, giving the lost mass, when it falls short.
    """
    return _amplitudes(dist, point, basis) * np.exp(-1j * point.phi * basis.labels())


def _amplitudes(dist, point, basis):
    """Real amplitudes of cs_vector; a leak warns at the caller of cs_vector or lower_symbols_cyl."""
    if basis.mode != "two_sided":
        raise DomainError("circle coherent states need a two_sided basis")
    norm = dist.normalizer(point.J)
    if not norm > 1e-300:
        raise DomainError(f"normalizer underflow at J={point.J}")
    amps = np.sqrt(np.maximum(dist.pdf(point.J - basis.labels()), 0.0) / norm)
    warn_kept_mass(float(amps @ amps), f"density at J={point.J}", "the label window", stacklevel=3)
    return amps


def quantize_cyl(dist, basis, fourier):
    """Quantization of f(J, phi) = sum_q c_q(J) e^{i q phi} on the cylinder.

    fourier maps an integer q to c_q, a number or a callable of J: the
    contract of whquant.quantize without its (g, half_power) pair, which
    has no meaning at J < 0.  By rotation covariance mode q fills diagonal
    n - n' = q alone with integral c_q(J) sqrt(p(J-n) p(J-n')) dJ over
    the `_action_table` nodes; modes |q| >= dim drop.  The table is
    lattice covariant, so a number mode fills its diagonal with
    c_q g_|q|, g_q = sum_s sum_i w_i T[s, i] T[s + q, i] over the whole
    sqrt(p) table T (for the Gaussian, exp(-q^2 / (8 sigma^2))): exactly
    Toeplitz.  Callable modes go to linalg.quantize_modes with the
    amplitude columns sqrt(p(J-n)) of the same T as frames.
    """
    if basis.mode != "two_sided":
        raise DomainError("cylinder quantization needs a two_sided basis")
    dim = basis.dim
    modes = linalg.integer_modes(fourier)
    consts = {q: c for q, c in modes.items() if isinstance(c, numbers.Number) and abs(q) < dim}
    funcs = {q: c for q, c in modes.items() if q not in consts}
    w, T, frames = _action_table(dist, basis.labels())
    out = linalg.quantize_modes(funcs, frames, basis)
    if consts:
        T, rows = T.T.copy(), T.shape[0]  # pairwise sums along the offsets, then the nodes
        g = [((T[:, : rows - q] * T[:, q:]).sum(axis=1) * w).sum() for q in range(dim)]
        out += linalg.fill_diagonals({q: c * g[abs(q)] for q, c in consts.items()}, basis)
    return TruncatedOperator(out, basis)


def _action_table(dist, labels):
    """Weights w, sqrt(p) table T and frames of the action window of labels.

    The window is the whole unit cells covering
    [labels[0] - radius, labels[-1] + radius], anchored at its left end.
    Each cell is cut into ceil(1 / min(sigma, 1)) equal panels and at
    frac(2 radius), so every density edge n +- radius is a panel edge,
    and carries the same 24-point Gauss-Legendre nodes x and weights w.
    J - n then lands on the same cell-local nodes for every label:
    T[s + dim - 1, i] = sqrt(p(s - radius + x_i)) holds offset s = k - j
    of cell k and label j.  The frames are a generator of (J, w, F),
    F[n, i, 0] = sqrt(p(J_i - labels[n])).
    """
    dim = len(labels)
    anchor = float(labels[0]) - dist.radius
    last = math.ceil(dim - 1 + 2.0 * dist.radius)
    m = math.ceil(1.0 / min(max(dist.sigma, 1e-3), 1.0))
    x, w = _gl_rule(sorted({*(np.arange(m + 1) / m).tolist(), 2.0 * dist.radius % 1.0}))
    T = np.sqrt(np.maximum(dist.pdf(x + (np.arange(1 - dim, last) - dist.radius)[:, None]), 0.0))

    def frames():
        step = max(1, 256 // x.size)  # cells per block: at most 256 nodes x dim labels
        for k in range(0, last, step):
            cells = np.arange(k, min(k + step, last))
            J = ((anchor + cells)[:, None] + x).ravel()
            block = T[cells - np.arange(dim)[:, None] + dim - 1]  # (label, cell, node)
            yield J, np.tile(w, cells.size), block.reshape(dim, J.size, 1)

    return w, T, frames()


def fourier_harmonic_defect(dist, basis):
    """Unitarity defect of the quantized fundamental harmonic.

    Returns (defect, p10_squared): the interior max of
    |(A A*)_{nn} - p_{1,0}^2| and the squared overlap it should equal.
    """
    p10 = overlap(dist, 1)
    A = quantize_cyl(dist, basis, {1: 1.0 + 0.0j})
    window = linalg.interior_window(basis, max(1, basis.dim // 8))
    prod = linalg.window_restrict(A @ A.H, *window).entries
    defect = float(np.abs(np.real(np.diag(prod)) - p10 ** 2).max())
    return defect, p10 ** 2


def commutator_number_angle(dist, basis):
    """Number-angle commutator, matrix route against the overlap formula.

    Route (a) commutes the separable quantizations of J and the angle;
    route (b) writes i p_{0,|n-n'|} of `overlap_profile` off the
    diagonal.  Returns (commutator, max deviation between routes on the
    interior window of margin max(1, dim // 8)) and warns past 1e-10.
    """
    dim = basis.dim
    A_J = quantize_cyl(dist, basis, {0: lambda J: J})
    A_angle = quantize_cyl(dist, basis, sawtooth_fourier(dim - 1))
    K = linalg.commutator(A_J, A_angle)
    p = overlap_profile(dist, dim - 1)
    direct = linalg.fill_diagonals({q: 1j * p[abs(q)] for q in range(1 - dim, dim) if q}, basis)
    window = linalg.interior_window(basis, max(1, dim // 8))
    dev = linalg.op_norm_max(linalg.window_restrict(K - TruncatedOperator(direct, basis), *window))
    if dev > 1e-10:
        warnings.warn(
            f"commutator routes disagree by {dev:.3e}", TruncationWarning, stacklevel=2
        )
    return K, dev


def lower_symbols_cyl(A, dist, J, phis):
    """Expectations <J,phi| A |J,phi> in circle coherent states, every phi.

    |J,phi><J,phi| = U(-phi) a a^T U(-phi)* with a = cs_vector at phi = 0
    real, so one linalg.diagonal_sums pass serves the whole grid; the
    leak warning of cs_vector fires once.
    """
    amps = _amplitudes(dist, CylinderPoint(J, 0.0), A.basis)
    s_d = linalg.diagonal_sums(np.outer(amps, amps), A.entries)
    return linalg.rotated_traces(s_d, -np.asarray(phis, dtype=float))


def d_m_sigma(dist, m, J):
    """Symbol damping factor (1/N(J)) sum_r sqrt(p(J-r) p(J-m-r)) <= 1."""
    if not isinstance(m, numbers.Integral):
        raise DomainError(f"m must be an integer, got {m!r}")
    norm = dist.normalizer(J)
    lo = int(math.floor(J - dist.radius - abs(m) - 1))
    hi = int(math.ceil(J + dist.radius + 1))
    r = np.arange(lo, hi + 1)
    terms = np.sqrt(np.maximum(dist.pdf(J - r), 0.0) * np.maximum(dist.pdf(J - m - r), 0.0))
    return math.fsum(terms.tolist()) / norm


def overlap_kernel(sigma, p1, p2):
    """Overlap <J,phi|J',phi'> of width-sigma Gaussian CS, direct and Poisson-resummed.

    Returns the pair (direct, poisson).  The direct form is the inner
    product of the two `cs_vector`s on a two-sided basis that holds both
    densities; the dual form exposes the large-sigma localization in the
    angle.  The two agree within 1e-10 for sigma >= 0.1 (~1e-14 from
    0.15 up); below that, at half-integer actions, the Poisson sum cancels
    catastrophically (off by ~1e5 at sigma = 0.05): read the direct form.
    """
    dist = gaussian_distribution(sigma)
    J, Jp = p1.J, p2.J
    lo = math.floor(min(J, Jp) - dist.radius)
    basis = BasisSpec("two_sided", math.ceil(max(J, Jp) + dist.radius) - lo + 1, lo)
    direct = np.vdot(cs_vector(dist, p1, basis), cs_vector(dist, p2, basis))

    dphi = p1.phi - p2.phi
    norms = math.sqrt(dist.normalizer(J) * dist.normalizer(Jp))
    gauss_pref = math.exp(-((J - Jp) ** 2) / (8.0 * sigma * sigma))
    k_terms = int(math.ceil(9.0 / (2.0 * math.pi * sigma))) + 8
    total_p = 0.0j
    for k in range(-k_terms, k_terms + 1):
        total_p += math.exp(-sigma * sigma * (dphi - 2.0 * math.pi * k) ** 2 / 2.0) * np.exp(
            -1j * math.pi * k * (J + Jp)
        )
    poisson = gauss_pref * np.exp(0.5j * (J + Jp) * dphi) * total_p / norms
    return complex(direct), complex(poisson)


def limit_study(sigma_list, case, threshold=0.05):
    """Tabulate |<J,phi|J',phi'>| against the width-limit predictions.

    case 'small': integer actions decouple (overlap -> delta_{JJ'});
    case 'large': angles decouple (overlap -> indicator of phi = phi').
    Each row records the measured magnitude, the predicted limit and
    whether it falls within the threshold.
    """
    if case not in ("small", "large"):
        raise DomainError("case must be 'small' or 'large'")
    if case == "small":
        probes = [
            (2.0, 0.3, 3.0, 0.3, 0.0),   # distinct integer actions
            (2.0, 0.3, 2.0, 1.1, 1.0),   # same integer action, any angle
            (2.5, 0.3, 2.5, 0.3, 1.0),   # same point stays normalized
        ]
    else:
        probes = [
            (1.0, 0.5, 4.0, 0.5 + math.pi, 0.0),  # angles pi apart
            (1.0, 0.5, 4.0, 0.5, 1.0),            # equal angles, any action
            (1.0, 1.2, 1.0, 1.2, 1.0),
        ]
    rows = []
    for sigma in sigma_list:
        for J, phi, Jp, phip, predicted in probes:
            direct, _ = overlap_kernel(sigma, CylinderPoint(J, phi), CylinderPoint(Jp, phip))
            measured = abs(direct)
            ok = abs(measured - predicted) <= threshold
            rows.append(
                {
                    "sigma": sigma,
                    "J": J,
                    "phi": phi,
                    "J_prime": Jp,
                    "phi_prime": phip,
                    "abs_overlap": measured,
                    "predicted": predicted,
                    "within_threshold": ok,
                }
            )
    return rows
