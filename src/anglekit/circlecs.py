"""Coherent states on the cylinder from lattice-shifted probability densities.

A width-sigma density p(J) on the line generates states
|J, phi> = N(J)^{-1/2} sum_n sqrt(p(J-n)) e^{-i n phi} |e_n> over the
two-sided basis.  By rotation covariance the quantization of
f(J, phi) = sum_q c_q(J) e^{i q phi} has entries
integral c_{n-n'}(J) sqrt(p(J-n) p(J-n')) dJ: quantize_cyl hands the
amplitudes sqrt(p(J-n)) at one table of action nodes to
linalg.quantize_modes, the kernel it shares with whquant.quantize, and
lower_symbols_cyl serves a whole angle grid from one amplitude vector.
The overlap matrix p_{n,n'} = integral sqrt(p_n p_{n'}), computed by its
own quadrature, encodes the number-angle commutator completely.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError, TruncationWarning
from .linalg import TruncatedOperator
from .specfun import sawtooth_fourier

__all__ = [
    "DistributionSpec",
    "CylinderPoint",
    "OverlapMatrix",
    "gaussian_distribution",
    "custom_distribution",
    "overlap",
    "build_overlap_matrix",
    "cs_vector",
    "quantize_cyl",
    "fourier_harmonic_defect",
    "commutator_number_angle",
    "lower_symbols_cyl",
    "d_m_sigma",
    "overlap_kernel",
    "limit_study",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class CylinderPoint:
    """Cylinder coordinates: action J on the line, angle phi in [0, 2 pi)."""

    J: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi}")


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Even, normalized density with a declared effective support radius.

    radius R satisfies pdf(x) < ~1e-16 for |x| > R; all quadrature
    windows and the lattice sum of `normalizer` are derived from it.
    kind is 'gaussian' or 'custom'; only `overlap_kernel` reads it.
    """

    kind: str
    sigma: float
    pdf: object
    radius: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.radius <= 0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        grid = np.linspace(0.1 * self.radius, 0.9 * self.radius, 17)
        vals_pos = np.array([self.pdf(x) for x in grid])
        vals_neg = np.array([self.pdf(-x) for x in grid])
        top = max(float(vals_pos.max()), 1e-300)
        if np.any(vals_pos < 0) or np.any(vals_neg < 0):
            raise DomainError("pdf must be nonnegative")
        if float(np.abs(vals_pos - vals_neg).max()) > 1e-10 * top:
            raise DomainError("pdf must be even")
        mass = _panel_integral(self.pdf, (-self.radius, self.radius), self.sigma)
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"pdf must integrate to 1, got {mass}")

    def normalizer(self, J):
        """Lattice sum N(J) = sum_n pdf(J - n) over |J - n| <= radius, by math.fsum."""
        lo = int(math.floor(J - self.radius))
        hi = int(math.ceil(J + self.radius))
        return math.fsum(self.pdf(J - n) for n in range(lo, hi + 1))


def _gl_rule(edges):
    """24-point Gauss-Legendre nodes and weights on the panels between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    mid = (edges[1:] + edges[:-1]) / 2.0
    rad = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + rad[:, None] * _GL_NODES).ravel(), (rad[:, None] * _GL_WEIGHTS).ravel()


def _panel_integral(f, edges, scale):
    """Composite Gauss-Legendre between consecutive edges, panels sized to the density width."""
    width = min(max(scale / 2.0, 1e-3), 2.0)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        x, w = _gl_rule(np.linspace(lo, hi, max(4, math.ceil((hi - lo) / width)) + 1))
        total += math.fsum(wi * f(xi) for xi, wi in zip(x.tolist(), w.tolist()))
    return total


def gaussian_distribution(sigma):
    """Gaussian density of width sigma, radius 9 sigma + 1/2."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    pref = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)

    def pdf(x):
        return pref * math.exp(-x * x / (2.0 * sigma * sigma))

    radius = 9.0 * sigma + 0.5
    return DistributionSpec(kind="gaussian", sigma=sigma, pdf=pdf, radius=radius)


def custom_distribution(pdf, sigma, radius):
    """Wrap a user density; the constructor checks evenness and mass."""
    return DistributionSpec(kind="custom", sigma=sigma, pdf=pdf, radius=radius)


def overlap(dist, m):
    """Overlap p_{0,m} = integral sqrt(pdf(J) pdf(J-m)) dJ, in [0, 1]."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if m == 0:
        return 1.0
    center = m / 2.0
    lo = center - dist.radius - 1.0
    hi = center + dist.radius + 1.0
    # the support edges are panel edges, so a compact density's kinks are integrated exactly
    cuts = sorted(c for c in (m - dist.radius, dist.radius) if lo < c < hi)

    def integrand(J):
        return math.sqrt(max(dist.pdf(J), 0.0) * max(dist.pdf(J - m), 0.0))

    val = _panel_integral(integrand, [lo, *cuts, hi], dist.sigma)
    return min(max(val, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Band profile p_{0,m}; the full matrix is p_{n,n'} = p_{0,|n-n'|}."""

    half_bandwidth: int
    values: np.ndarray = field(repr=False)

    def value(self, separation):
        s = abs(int(separation))
        return float(self.values[s]) if s <= self.half_bandwidth else 0.0

    def band_matrix(self, dim):
        idx = np.arange(dim)
        sep = np.abs(idx[:, None] - idx[None, :])
        out = np.zeros((dim, dim))
        mask = sep <= self.half_bandwidth
        out[mask] = self.values[sep[mask]]
        return out


def build_overlap_matrix(dist, half_bandwidth):
    vals = np.array([overlap(dist, m) for m in range(half_bandwidth + 1)])
    return OverlapMatrix(half_bandwidth=half_bandwidth, values=vals)


def cs_vector(dist, point, basis):
    """Circle coherent state over a two-sided basis.

    Component at label n is sqrt(p(J-n)/N(J)) e^{-i n phi}; warns when
    the density sticks out past the label window.
    """
    if basis.mode != "two_sided":
        raise DomainError("circle coherent states need a two_sided basis")
    norm = dist.normalizer(point.J)
    if not norm > 1e-300:
        raise DomainError(f"normalizer underflow at J={point.J}")
    labels = basis.labels()
    edge_lo = point.J - labels[0]
    edge_hi = labels[-1] - point.J
    if min(edge_lo, edge_hi) < dist.radius:
        warnings.warn(
            f"density at J={point.J} leaks past the label window",
            TruncationWarning,
            stacklevel=2,
        )
    amps = np.array([math.sqrt(max(dist.pdf(point.J - n), 0.0) / norm) for n in labels])
    return amps * np.exp(-1j * point.phi * labels)


def quantize_cyl(dist, basis, fourier, j_span=None):
    """Quantization of f(J, phi) = sum_q c_q(J) e^{i q phi} on the cylinder.

    fourier maps q to c_q, a number or a callable of J: the contract of
    whquant.quantize without its (g, half_power) pair, which has no
    meaning at J < 0.  By rotation covariance the angle integral is
    exact, so mode q fills diagonal n - n' = q alone with
    integral c_q(J) sqrt(p(J-n) p(J-n')) dJ over the `_action_table`
    nodes (j_span as there), whose amplitude columns sqrt(p(J-n)) are
    the frames of linalg.quantize_modes; modes with |q| >= dim drop.
    """
    if basis.mode != "two_sided":
        raise DomainError("cylinder quantization needs a two_sided basis")
    if j_span is not None and j_span[0] >= j_span[1]:
        raise DomainError(f"empty action window [{j_span[0]}, {j_span[1]}]")
    frames = _action_table(dist, basis.labels(), j_span)
    return TruncatedOperator(linalg.quantize_modes(fourier, frames, basis.dim), basis)


def _action_table(dist, labels, j_span=None):
    """Yield frames (J, w, F) of action nodes, weights and F[n, i, 0] = sqrt(p(J_i - labels[n])).

    Unit cells anchored at labels[0] - radius are cut into
    ceil(1 / min(sigma, 1)) equal panels and at frac(2 radius), so every
    density edge n +- radius is a panel edge and J - n lands on the same
    cell-local nodes for every label: sqrt(p) is tabulated once per
    (lattice offset, local node).  The default window is the whole cells
    covering [labels[0] - radius, labels[-1] + radius]; the two end cells
    of an explicit j_span = (lo, hi) are clipped to it and evaluated directly.
    """
    r, dim = dist.radius, len(labels)
    m = math.ceil(1.0 / min(max(dist.sigma, 1e-3), 1.0))
    cuts = np.unique(np.append(np.arange(m + 1) / m, 2.0 * r % 1.0))
    x, w = _gl_rule(cuts)
    anchor = float(labels[0]) - r
    if j_span is None:
        first, last, ends = 0, math.ceil(dim - 1 + 2.0 * r), ()
    else:
        lo, hi = j_span
        first, last = math.floor(lo - anchor), math.ceil(hi - anchor)
        ends, first, last = sorted({first, last - 1}), first + 1, last - 1
    for k in ends:
        J, wk = _gl_rule(np.unique(np.clip(anchor + k + cuts, lo, hi)))
        vals = [[dist.pdf(a - n) for a in J.tolist()] for n in labels.tolist()]
        yield J, wk, np.sqrt(np.maximum(vals, 0.0)).reshape(dim, J.size, 1)
    if first < last:
        # table[s - s0, i] = sqrt(p(s - r + x_i)) at offset s = k - j of cell k and label j
        s0 = first - dim + 1
        vals = (dist.pdf(x_i + (s - r)) for s in range(s0, last) for x_i in x.tolist())
        table = np.fromiter(vals, float, x.size * (last - s0)).reshape(-1, x.size)
        table = np.sqrt(np.maximum(table, 0.0))
        step = max(1, 256 // x.size)  # cells per block: at most 256 nodes x dim labels
        for k in range(first, last, step):
            cells = np.arange(k, min(k + step, last))
            J = ((anchor + cells)[:, None] + x).ravel()
            block = table[cells - np.arange(dim)[:, None] - s0]  # (label, cell, node)
            yield J, np.tile(w, cells.size), block.reshape(dim, J.size, 1)


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


def commutator_number_angle(dist, basis, overlaps=None):
    """Number-angle commutator, matrix route against the overlap formula.

    Route (a) commutes the separable quantizations of J and the angle;
    route (b) writes i p_{0,|n-n'|} off the diagonal directly.  Returns
    (commutator, max deviation between routes on the interior window of
    margin max(1, dim // 8)) and warns when that deviation exceeds 1e-10.
    """
    dim = basis.dim
    if overlaps is None:
        overlaps = build_overlap_matrix(dist, dim - 1)
    A_J = quantize_cyl(dist, basis, {0: lambda J: J})
    A_angle = quantize_cyl(dist, basis, sawtooth_fourier(dim - 1))
    K = linalg.commutator(A_J, A_angle)
    direct = 1j * overlaps.band_matrix(dim)
    np.fill_diagonal(direct, 0.0)
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
    amps = cs_vector(dist, CylinderPoint(J, 0.0), A.basis).real
    s_d = linalg.diagonal_sums(np.outer(amps, amps), A.entries)
    return linalg.rotated_traces(s_d, -np.asarray(phis, dtype=float))


def d_m_sigma(dist, m, J):
    """Symbol damping factor (1/N(J)) sum_r sqrt(p(J-r) p(J-m-r)) <= 1."""
    norm = dist.normalizer(J)
    lo = int(math.floor(J - dist.radius - abs(m) - 1))
    hi = int(math.ceil(J + dist.radius + 1))
    total = math.fsum(
        math.sqrt(max(dist.pdf(J - r), 0.0) * max(dist.pdf(J - m - r), 0.0))
        for r in range(lo, hi + 1)
    )
    return total / norm


def overlap_kernel(dist, p1, p2):
    """Gaussian CS overlap <J,phi|J',phi'>, direct and Poisson-resummed.

    Returns the pair (direct, poisson); the two agree to ~1e-12 and the
    dual form exposes the large-sigma localization in the angle.  The
    lattice windows scale with the width so neither sum loses mass.
    """
    if dist.kind != "gaussian":
        raise DomainError("closed-form overlap kernel needs the gaussian family")
    sig = dist.sigma
    J, Jp = p1.J, p2.J
    dphi = p1.phi - p2.phi
    mid = (J + Jp) / 2.0
    norms = math.sqrt(dist.normalizer(J) * dist.normalizer(Jp))
    gauss_pref = math.exp(-((J - Jp) ** 2) / (8.0 * sig * sig))

    n_terms = int(math.ceil(9.0 * sig)) + 16
    total = 0.0j
    center = round(mid)
    for n in range(center - n_terms, center + n_terms + 1):
        total += math.exp(-((mid - n) ** 2) / (2.0 * sig * sig)) * np.exp(1j * n * dphi)
    direct = gauss_pref * total / (math.sqrt(2.0 * math.pi * sig * sig) * norms)

    k_terms = int(math.ceil(9.0 / (2.0 * math.pi * sig))) + 8
    total_p = 0.0j
    for k in range(-k_terms, k_terms + 1):
        total_p += math.exp(-sig * sig * (dphi - 2.0 * math.pi * k) ** 2 / 2.0) * np.exp(
            -1j * math.pi * k * (J + Jp)
        )
    poisson = gauss_pref * np.exp(1j * mid * dphi) * total_p / norms
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
        dist = gaussian_distribution(sigma)
        for J, phi, Jp, phip, predicted in probes:
            direct, _ = overlap_kernel(dist, CylinderPoint(J, phi), CylinderPoint(Jp, phip))
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
