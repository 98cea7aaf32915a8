"""Named invariant suites: the one registry `anglekit check` and the tests share.

`_SUITES` is the only place an invariant is measured.  Each suite lists
its thunks in report order; thunk `_x` measures invariant `x` and returns
(measured, tolerance), and the invariant passes when measured does not
exceed tolerance.  A thunk's keyword parameters are the narrowing fields
it reads, and their defaults are the sizes it runs at.  `measure` passes
a thunk only the keywords it takes and rejects a field that no suite
reads; a value that is given is used as given.  So
`run_suite("halfcircle", dim=32)` narrows the thunks that take `dim` and
leaves the pinned ones as they are.  `run_suite` and the acceptance tests
go through `measure`.  Suites run serially.  Anything random is seeded,
so repeated runs produce identical reports.
"""

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import circlecs, halfcircle, linalg, moments, specfun, whquant
from .errors import DomainError
from .linalg import BasisSpec, TruncatedOperator

__all__ = ["CheckResult", "suite_names", "fields_read", "measure", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    invariant: str
    status: str
    measured: float
    tolerance: float

    @property
    def passed(self):
        return self.status == "pass"


def _seeded_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return TruncatedOperator((raw + raw.conj().T) / 2.0, BasisSpec("one_sided", dim, 0))


# ---------------------------------------------------------------- specfun


def _gamma_ratio_bound():
    worst = -math.inf
    for n in range(0, 201, 8):
        for npr in range(n, 201, 8):
            log_ratio = specfun.ln_gamma((n + npr) / 2.0 + 1.0) - 0.5 * (
                specfun.ln_gamma(n + 1.0) + specfun.ln_gamma(npr + 1.0)
            )
            worst = max(worst, math.exp(log_ratio) - 1.0)
    return worst, 1e-12


def _laguerre_reflection():
    """Both sides of n! L_n^{(m-n)}(t) = m! (-t)^{n-m} L_m^{(n-m)}(t) against the exact value.

    The left side takes `assoc_laguerre`'s reflection branch and the right
    side its recurrence.  The exact value is the finite sum
    sum_{k=n-m}^{n} C(m, n-k) n!/k! (-t)^k, added in integers over t's
    dyadic denominator q and correctly rounded by one int / int division.
    """
    worst = 0.0
    for t in (0.1, 1.0, 5.0):
        p, q = t.as_integer_ratio()
        for n in range(0, 31, 3):
            for m in range(0, n + 1, 3):
                exact = sum(
                    math.comb(m, n - k) * (math.factorial(n) // math.factorial(k))
                    * (-p) ** k * q ** (n - k)
                    for k in range(n - m, n + 1)
                ) / q ** n
                lhs = math.exp(specfun.ln_gamma(n + 1.0)) * specfun.assoc_laguerre(n, m - n, t)
                rhs = (
                    math.exp(specfun.ln_gamma(m + 1.0))
                    * (-t) ** (n - m)
                    * specfun.assoc_laguerre(m, n - m, t)
                )
                worst = max(worst, abs(lhs - exact) / abs(exact), abs(rhs - exact) / abs(exact))
    return worst, 1e-10


def _theta_form_equality():
    worst = 0.0
    for sigma in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        dist = circlecs.gaussian_distribution(sigma)
        for J in np.linspace(-3.0, 3.0, 13):
            worst = max(worst, abs(dist.normalizer(J) - specfun.theta3_normalizer(J, sigma)))
    return worst, 1e-11


def _gauss_summation_at_one():
    worst = 0.0
    for n in (1, 2, 3, 5, 8):
        for b in (0.25, 1.5, 3.0):
            for c in (4.5, 7.25, 12.0):
                a = -float(n)  # c - a - b >= 2.5 on this grid
                lhs = specfun.gauss_2f1_terminating(-n, b, c, 1.0)
                rhs = math.exp(
                    specfun.ln_gamma(c)
                    + specfun.ln_gamma(c - a - b)
                    - specfun.ln_gamma(c - a)
                    - specfun.ln_gamma(c - b)
                )
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst, 1e-10


# ----------------------------------------------------------------- linalg


def _eig_reconstruction():
    worst = 0.0
    for dim, seed in ((24, 11), (64, 12), (128, 13)):
        op = _seeded_hermitian(dim, seed)
        es = linalg.hermitian_eig(op)
        recon = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        worst = max(
            worst,
            float(np.abs(recon - op.entries).max()) / linalg.op_norm_max(op),
        )
    return worst, 1e-10


def _spectral_composition():
    op = _seeded_hermitian(48, 21)
    op = TruncatedOperator(op.entries, op.basis, linalg.hermitian_eig(op))  # solved once
    g = lambda lam: lam / (1.0 + abs(lam))  # monotone
    f = lambda lam: lam ** 3 + 0.5 * lam
    direct = linalg.spectral_function(op, lambda lam: f(g(lam)))
    nested = linalg.spectral_function(linalg.spectral_function(op, g), f)
    return linalg.op_norm_max(direct - nested), 1e-9


def _sign_part_contract():
    op = _seeded_hermitian(48, 22)
    sig = linalg.sign_part(op)
    herm = linalg.op_norm_max(sig - sig.H)
    cube = linalg.op_norm_max(sig @ sig @ sig - sig)
    return max(herm, cube), 1e-10


def _exp_inverse():
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    G = TruncatedOperator((raw - raw.conj().T) / 2.0, BasisSpec("one_sided", 40, 0))
    U = linalg.anti_hermitian_exp(G)
    Uinv = linalg.anti_hermitian_exp(-1.0 * G)
    eye = np.eye(40)
    return float(np.abs((U @ Uinv).entries - eye).max()), 1e-10


def _chiral_spectrum():
    """The chiral route on the cyclic canonical B against its circulant spectrum.

    B = pi I + i sum_{n <= Q} (U^n - U^{-n})/n has, at DFT node k, the
    eigenvalue pi + sum_{n <= Q, 2n != 0 mod D} 2 sin(2 pi k n/D)/n.  The
    route reads B - pi I, whose diagonal is exactly 0, so the values it
    returns are the offsets from pi, which must mirror exactly.
    """
    worst = 0.0
    for dim, cutoff in ((64, 31), (65, 32)):
        B = whquant.canonical_angle_B(dim, mode="cyclic", q_cutoff=cutoff)
        n = np.array([m for m in range(1, cutoff + 1) if (2 * m) % dim])
        kn = np.outer(np.arange(dim), n) % dim
        oracle = np.sort((2.0 * np.sin(2.0 * math.pi * kn / dim) / n).sum(axis=1))
        offsets = linalg.chiral_eigenvalues(linalg.from_matrix(B.entries - math.pi * np.eye(dim)))
        worst = max(worst, float(np.abs(offsets - oracle).max()),
                    float(np.abs(offsets + offsets[::-1]).max()))
    return worst, 1e-12


# -------------------------------------------------------------- halfcircle


def _eig_residual(op):
    """max|A V - V Lambda| / max|A| of the eigensystem `hermitian_eig` gives op.

    The shift family's systems are attached in closed form, so this
    measures them against the assembled matrix instead of trusting them.
    """
    es = linalg.hermitian_eig(op)
    dev = op.entries @ es.eigenvectors - es.eigenvectors * es.eigenvalues
    return float(np.abs(dev).max()) / linalg.op_norm_max(op)


def _angle_support(dim=64, mode=None):
    worst = 0.0
    modes = (mode,) if mode is not None else ("cyclic", "two_sided", "one_sided")
    for mode in modes:
        fam = halfcircle.build_shift_family(BasisSpec(mode, dim))
        A = halfcircle.full_angle(fam)
        herm = linalg.op_norm_max(A - A.H)
        eig = linalg.hermitian_eig(A)
        low = max(0.0, -float(eig.eigenvalues[0]))
        high = max(0.0, float(eig.eigenvalues[-1]) - 2.0 * math.pi)
        # the full angle is built from the system of C, so both are measured
        resid = max(_eig_residual(A), _eig_residual(fam.C))
        worst = max(worst, herm, low, high, resid)
    return worst, 1e-9


def _series_vs_spectral():
    dim = 32
    fam = halfcircle.build_shift_family(BasisSpec("cyclic", dim, 0))
    eig = fam.C.eig
    a_series = halfcircle.angle_upper_series(fam.C)
    a_spectral = halfcircle.angle_upper(fam.C)
    keep = np.abs(np.abs(eig.eigenvalues) - 1.0) > 1e-8
    proj = eig.eigenvectors[:, keep] @ eig.eigenvectors[:, keep].conj().T
    diff = proj @ (a_series.entries - a_spectral.entries) @ proj
    return float(np.abs(diff).max()), 50 * halfcircle.SERIES_TERM_TOL


def _contraction_norms(dim=96):
    fam = halfcircle.build_shift_family(BasisSpec("two_sided", dim))
    worst = 0.0
    for op in (fam.C, fam.S):
        eig = linalg.hermitian_eig(op)
        worst = max(worst, float(np.abs(eig.eigenvalues).max()) - 1.0, _eig_residual(op))
    return worst, 1e-12


def _power_commutator_identity():
    dim = 128
    fam = halfcircle.build_shift_family(BasisSpec("two_sided", dim))
    lo, hi = linalg.interior_window(fam.basis, 32)
    worst = 0.0
    Cn = TruncatedOperator(np.eye(dim, dtype=complex), fam.basis)
    for n in range(1, 9):
        rhs = 1j * n * (Cn @ fam.S)  # Cn is C^{n-1} here
        Cn = Cn @ fam.C
        dev = linalg.window_restrict(linalg.commutator(fam.N, Cn) - rhs, lo, hi)
        worst = max(worst, linalg.op_norm_max(dev))
    return worst, 1e-9


def _cyclic_exact_relations(dim=48):
    fam = halfcircle.build_shift_family(BasisSpec("cyclic", dim, 0))
    eye = np.eye(dim)
    comm = linalg.op_norm_max(linalg.commutator(fam.C, fam.S))
    pyth = float(np.abs((fam.C @ fam.C + fam.S @ fam.S).entries - eye).max())
    return max(comm, pyth), 1e-12


# ---------------------------------------------------------------- whquant


def _ccr_from_quantization(t=None):
    quad = whquant.QuadratureScheme(n_J=96)
    dim, block = 96, 48
    worst = 0.0
    t_values = (t,) if t is not None else (0.0, 0.3, 0.6)
    for t in t_values:
        Az = whquant.quantize({1: ((lambda J: 1.0), 1)}, whquant.WeightSpec(t=t), quad, dim)
        K = linalg.commutator(Az, Az.H)  # quantize maps z-bar to the adjoint, bit for bit
        worst = max(worst, float(np.abs(K.entries - np.eye(dim))[:block, :block].max()))
    return worst, 1e-5


def _angle_matrix_structure(dim=48, t=0.25):
    A = whquant.angle_matrix(t, dim)
    herm = linalg.op_norm_max(A - A.H)
    diag = float(np.abs(np.real(np.diag(A.entries)) - math.pi).max())
    return max(herm, diag), 1e-12


def _angle_covariance_symbol_shift():
    dim, J, theta = 128, 50.0, 1.0
    A = whquant.angle_matrix(0.0, dim)
    weight = whquant.WeightSpec(t=0.0)
    conj = linalg.rotate(A, theta)
    # phase pattern on the off-diagonals is exact
    expected = A.entries * np.exp(
        1j * theta * (np.arange(dim)[:, None] - np.arange(dim)[None, :])
    )
    worst = float(np.abs(conj.entries - expected).max())
    # conjugating by e^{i n theta} drags the symbol backwards in the angle
    gammas = np.array([2.0, 3.5, 5.0])
    shifted = whquant.lower_symbols(conj, weight, J, gammas).real
    base = whquant.lower_symbols(A, weight, J, (gammas - theta) % (2 * math.pi)).real
    worst = max(worst, float(np.abs(shifted - base).max()))
    return worst, 1e-3


def _f_swap_deviation(step):
    """max |F_{nn'}(t) - F_{n'n}(t)| over odd n' - n, 0 <= n < n' <= 40 on a grid of this step.

    F_{nn'} is `f_coefficient`; F_{n'n} is the published formula read in
    the order it avoids, its 2F1 summed in Fractions: an even n' - n hits
    the vanishing Pochhammer, and a float sum cancels (1.2e-5 off at n = 0,
    n' = 31, t = 0.75).  The Gamma ratio is formed in f_coefficient's order.
    """
    worst = 0.0
    for t in (0.0, 0.25, 0.5, 0.75):
        for n in range(0, 41, step):
            for npr in range(n + 1, 41, step):
                if (npr - n) % 2 == 0:
                    continue
                b, c, x = Fraction(n - npr, 2), Fraction(-(n + npr), 2), Fraction(t)
                term = f21 = Fraction(1)
                for k in range(npr):
                    term *= (k - npr) * (b + k) / ((c + k) * (k + 1)) * x
                    f21 += term
                log_mag = (specfun.ln_gamma((n + npr) / 2.0 + 1.0)
                           - 0.5 * (specfun.ln_gamma(n + 1.0) + specfun.ln_gamma(npr + 1.0))
                           + (1.0 + (n - npr) / 2.0) * math.log1p(-t))
                swapped = math.exp(log_mag) * float(f21)
                worst = max(worst, abs(whquant.f_coefficient(n, npr, t) - swapped))
    return worst


def _f_symmetry():
    return _f_swap_deviation(5), 1e-10


def _d_q_bound():
    worst = 0.0
    for q in (1, 2, 5, 10, 25, 50):
        for J in (0.5, 2.0, 10.0, 50.0, 120.0, 200.0):
            d = whquant.d_q_cs(q, J)
            worst = max(worst, -d, d - 1.0)
    return worst, 1e-12


def _wh_resolution_identity():
    quad = whquant.QuadratureScheme(n_J=80)
    weight = whquant.WeightSpec(t=0.3)
    A = whquant.quantize({0: ((lambda J: 1.0), 0)}, weight, quad, 64)
    dev = np.abs(A.entries - np.eye(64))[:16, :16].max()
    return float(dev), 1e-6


def _fourier_taylor_bridge():
    # partial sums of the odd-harmonic cosine series against |theta|
    worst = 0.0
    Q = 400
    for theta in np.linspace(-math.pi + 0.3, math.pi - 0.3, 9):
        acc = math.pi / 2.0
        for n in range(Q):
            acc -= (4.0 / math.pi) * math.cos((2 * n + 1) * theta) / (2 * n + 1) ** 2
        worst = max(worst, abs(acc - abs(theta)))
    return worst, 1.0 / Q


def _boltzmann_diagonal():
    t, dim = 0.5, 32
    diag = whquant.WeightSpec(t=t).diagonal(dim)
    nonneg = max(0.0, -float(diag.min()))
    decreasing = max(0.0, float(np.max(np.diff(diag))))
    trace_dev = abs(float(diag.sum()) - (1.0 - t ** dim))
    return max(nonneg, decreasing, trace_dev), 1e-12


def _angle_grid_vs_scalar(t=0.25):
    # angle_matrix's grid recurrence against the scalar oracle, pair by pair
    dim = 48
    A = whquant.angle_matrix(t, dim).entries
    worst = 0.0
    for n in range(dim):
        for npr in range(n + 1, dim):
            scalar = 1j * whquant.f_coefficient(n, npr, t) / (npr - n)
            worst = max(worst, abs(A[n, npr] - scalar) / abs(scalar))
    return worst, 1e-13


# ---------------------------------------------------------------- circlecs


def _circle_resolution_identity():
    dim = 64
    basis = BasisSpec("two_sided", dim)
    dist = circlecs.gaussian_distribution(1.0)
    # a callable mode takes quantize_modes' per-node path, not the overlap profile
    one = circlecs.quantize_cyl(dist, basis, {0: lambda J: 1.0})
    return float(np.abs(one.entries - np.eye(dim)).max()), 1e-6


def _state_normalization(dim=64, sigma=1.0):
    dist = circlecs.gaussian_distribution(sigma)
    basis = BasisSpec("two_sided", dim)
    worst = 0.0
    for J in (-7.3, 0.0, 2.5, 11.0):
        for phi in (0.0, 1.1):
            vec = circlecs.cs_vector(dist, circlecs.CylinderPoint(J, phi), basis)
            worst = max(worst, abs(float(np.linalg.norm(vec)) - 1.0))
    return worst, 1e-12


def _action_is_number(dim=48, sigma=1.0):
    dist = circlecs.gaussian_distribution(sigma)
    basis = BasisSpec("two_sided", dim)
    A = circlecs.quantize_cyl(dist, basis, {0: lambda J: J})
    return (
        float(np.abs(A.entries - np.diag(basis.labels().astype(complex))).max()),
        1e-9,
    )


def _circle_covariance_shift():
    sigma, dim, theta = 10.0, 200, 1.0
    dist = circlecs.gaussian_distribution(sigma)
    basis = BasisSpec("two_sided", dim)
    A = circlecs.quantize_cyl(dist, basis, specfun.sawtooth_fourier(dim - 1))
    labels = basis.labels()
    conj = linalg.rotate(A, theta)
    expected = A.entries * np.exp(1j * theta * (labels[:, None] - labels[None, :]))
    worst = float(np.abs(conj.entries - expected).max())
    # circle states carry e^{-i n phi}, so the symbol moves forwards in the angle
    phis = np.array([2.0, 4.0])
    shifted = circlecs.lower_symbols_cyl(conj, dist, 0.0, phis).real
    base = circlecs.lower_symbols_cyl(A, dist, 0.0, (phis + theta) % (2 * math.pi)).real
    worst = max(worst, float(np.abs(shifted - base).max()))
    return worst, 1e-2


def _d_m_bound():
    worst = 0.0
    for sigma in (0.5, 1.0, 5.0):
        dist = circlecs.gaussian_distribution(sigma)
        for m in (1, 2, 5):
            for J in (0.0, 0.4, 3.7):
                d = circlecs.d_m_sigma(dist, m, J)
                worst = max(worst, d - 1.0, -d)
    return worst, 1e-12


def _overlap_symmetry_spot():
    dist = circlecs.gaussian_distribution(1.0)
    worst = 0.0
    for n, npr in np.random.default_rng(31).integers(-8, 9, size=(5, 2)).tolist():
        sep = abs(n - npr)

        def integrand(J):
            return np.sqrt(np.maximum(dist.pdf(J - n), 0.0) * np.maximum(dist.pdf(J - npr), 0.0))

        direct = circlecs._panel_integral(
            integrand, (min(n, npr) - dist.radius, max(n, npr) + dist.radius), dist.sigma
        )
        worst = max(worst, abs(direct - circlecs.overlap(dist, sep)))
    return worst, 1e-10


def _overlap_kernel_forms():
    worst = 0.0
    for (J, phi, Jp, phip) in (
        (0.0, 0.0, 0.0, 1.0),
        (1.3, 0.4, -0.9, 2.2),
        (4.0, 5.9, 4.5, 0.3),
    ):
        d, p = circlecs.overlap_kernel(
            0.8, circlecs.CylinderPoint(J, phi), circlecs.CylinderPoint(Jp, phip)
        )
        worst = max(worst, abs(d - p))
    return worst, 1e-10


def _harmonic_trend():
    values = []
    basis = BasisSpec("two_sided", 48)
    worst = 0.0
    for sigma in (1.0, 2.0, 5.0, 10.0):
        dist = circlecs.gaussian_distribution(sigma)
        defect, p2 = circlecs.fourier_harmonic_defect(dist, basis)
        worst = max(worst, defect)
        values.append(p2)
    increasing = all(b > a for a, b in zip(values, values[1:]))
    trend_violation = 0.0 if (increasing and values[-1] > 0.99) else 1.0
    return max(worst, trend_violation), 1e-10


# ----------------------------------------------------------------- moments


def _s_k_bounded():
    seq = moments.integer_sequence()
    worst = -math.inf
    for k in range(0, 11):
        for t in (0.1, 1.0, 5.0, 10.0):
            bound = moments.generalized_exp(seq, t)
            worst = max(worst, (moments.s_k(seq, k, t) - bound) / bound)
    # equality holds at k = 0, so only rounding slack is allowed
    return worst, 1e-13


def _factorial_inequality():
    n1, n2 = np.random.default_rng(41).integers(0, 301, size=(10_000, 2)).T
    holds = moments.half_factorial_bound_check(moments.integer_sequence(), n1, n2)
    return float(np.count_nonzero(~holds)), 0.0


# each suite's thunks in report order; thunk _x measures invariant x
_SUITES = {
    "specfun": [_gamma_ratio_bound, _laguerre_reflection, _theta_form_equality,
                _gauss_summation_at_one],
    "linalg": [_eig_reconstruction, _spectral_composition, _sign_part_contract, _exp_inverse,
               _chiral_spectrum],
    "halfcircle": [_angle_support, _series_vs_spectral, _contraction_norms,
                   _power_commutator_identity, _cyclic_exact_relations],
    "whquant": [_ccr_from_quantization, _angle_matrix_structure, _angle_covariance_symbol_shift,
                _f_symmetry, _d_q_bound, _wh_resolution_identity, _fourier_taylor_bridge,
                _boltzmann_diagonal, _angle_grid_vs_scalar],
    "circlecs": [_circle_resolution_identity, _state_normalization, _action_is_number,
                 _circle_covariance_shift, _d_m_bound, _overlap_symmetry_spot,
                 _overlap_kernel_forms, _harmonic_trend],
    "moments": [_s_k_bounded, _factorial_inequality],
}


def suite_names():
    return list(_SUITES)


def _suite(name):
    if name not in _SUITES:
        raise DomainError(f"unknown check suite {name!r}; choose from {sorted(_SUITES)}")
    return _SUITES[name]


def fields_read(names):
    """The narrowing fields that a thunk of at least one of the named suites takes."""
    return {field for name in names for thunk in _suite(name)
            for field in inspect.signature(thunk).parameters}


_FIELDS = fields_read(_SUITES)


def measure(suite, invariant, **narrowing):
    """Measure one registered invariant, passing its thunk the fields it takes.

    DomainError for an unknown suite or invariant, or a field no suite reads.
    """
    thunk = {thunk.__name__[1:]: thunk for thunk in _suite(suite)}.get(invariant)
    if thunk is None:
        raise DomainError(f"suite {suite!r} has no invariant {invariant!r}")
    if narrowing.keys() - _FIELDS:
        raise DomainError(f"no check suite reads {', '.join(sorted(narrowing.keys() - _FIELDS))}")
    taken = inspect.signature(thunk).parameters
    measured, tolerance = thunk(**{key: value for key, value in narrowing.items() if key in taken})
    status = "pass" if measured <= tolerance else "fail"
    return CheckResult(suite, invariant, status, float(measured), float(tolerance))


def run_suite(name, **narrowing):
    return [measure(name, thunk.__name__[1:], **narrowing) for thunk in _suite(name)]
