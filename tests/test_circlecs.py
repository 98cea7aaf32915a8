import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import circlecs, linalg
from anglekit.errors import LEAK_TOL, DomainError, TruncationWarning
from anglekit.circlecs import (
    CylinderPoint,
    DistributionSpec,
    commutator_number_angle,
    cs_vector,
    d_m_sigma,
    fourier_harmonic_defect,
    gaussian_distribution,
    limit_study,
    lower_symbols_cyl,
    overlap,
    overlap_kernel,
    overlap_profile,
    quantize_cyl,
)
from anglekit.linalg import BasisSpec, op_norm_max
from anglekit.specfun import sawtooth_fourier


def test_legendre_rule_matches_numpy_leggauss():
    # numpy's rule is an eigvalsh (LAPACK) call plus one Newton step; the
    # in-house rule differs from it by 1.1e-16 in nodes and 1.4e-15 in weights
    nodes, weights = circlecs._legendre_rule()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(24)
    assert np.abs(nodes - ref_nodes).max() <= 1e-15
    assert np.abs(weights - ref_weights).max() <= 1e-14
    assert np.array_equal(nodes, -nodes[::-1])


def test_gaussian_distribution_is_built_once_per_sigma():
    assert gaussian_distribution(1.0) is gaussian_distribution(1.0)
    assert gaussian_distribution(1.0) is not gaussian_distribution(2.0)
    with pytest.raises(DomainError):
        gaussian_distribution(0.0)


def two_sided(dim):
    return BasisSpec("two_sided", dim, -dim // 2)


# -------------------------------------------------------- distributions

def test_gaussian_distribution_roundtrip():
    dist = gaussian_distribution(1.0)
    assert dist.pdf(0.3) == pytest.approx(dist.pdf(-0.3), rel=1e-14)
    assert dist.normalizer(0.25) > 0


def test_distribution_rejects_odd_pdf():
    skew = lambda x: np.maximum(0.0, np.exp(-((x - 0.3) ** 2)))
    with pytest.raises(DomainError, match="even"):
        DistributionSpec(sigma=1.0, pdf=skew, radius=8.0)


def test_distribution_rejects_bad_mass():
    half = lambda x: 0.5 / math.sqrt(2 * math.pi) * np.exp(-x * x / 2.0)
    with pytest.raises(DomainError, match="integrate to 1"):
        DistributionSpec(sigma=1.0, pdf=half, radius=9.5)


def test_custom_distribution_accepts_sech_profile():
    # p(J) = 1/(4a) sech^2(J/(2a)) integrates to 1 and is even
    a = 0.7
    pdf = lambda x: 1.0 / (4.0 * a * np.cosh(x / (2.0 * a)) ** 2)
    dist = DistributionSpec(sigma=a, pdf=pdf, radius=60.0 * a)
    assert 0.0 < overlap(dist, 2) < 1.0


@pytest.mark.parametrize("pdf", [
    lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
    lambda x: 0.1,
    lambda x: np.full(x.shape, np.nan),
], ids=["scalar_only", "not_an_array", "not_finite"])
def test_distribution_rejects_pdf_off_the_array_contract(pdf):
    with pytest.raises(DomainError, match="pdf must map an ndarray"):
        DistributionSpec(sigma=1.0, pdf=pdf, radius=9.5)


def scalar_gaussian(sigma):
    pref = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    return lambda x: pref * math.exp(-x * x / (2.0 * sigma * sigma))


def scalar_normalizer(pdf, radius, J):
    return math.fsum(pdf(J - n) for n in range(math.floor(J - radius), math.ceil(J + radius) + 1))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 10.0])
def test_vectorized_density_matches_scalar_oracle(sigma):
    # one math.exp call per node, summed in the same order, pins every array
    # evaluation of the density to the ulp-level difference of np.exp
    dist, p = gaussian_distribution(sigma), scalar_gaussian(sigma)
    close = lambda got, ref: np.all(np.abs(np.subtract(got, ref)) <= 1e-14 * np.abs(ref))
    basis = two_sided(2 * math.ceil(dist.radius) + 8)
    for J in (-0.75, 0.0, 0.45, 2.5):
        norm = scalar_normalizer(p, dist.radius, J)
        assert close(dist.normalizer(J), norm)
        amps = [math.sqrt(p(J - n) / norm) for n in basis.labels().tolist()]
        assert close(cs_vector(dist, CylinderPoint(J, 0.0), basis).real, amps)
        for m in (1, 2, 5):
            r = range(math.floor(J - dist.radius - m - 1), math.ceil(J + dist.radius + 1) + 1)
            ref = math.fsum(math.sqrt(p(J - k) * p(J - m - k)) for k in r) / norm
            assert close(d_m_sigma(dist, m, J), ref)
    for m in range(1, 7):
        lo, hi = m / 2.0 - dist.radius - 1.0, m / 2.0 + dist.radius + 1.0
        edges = [lo, *sorted(c for c in (m - dist.radius, dist.radius) if lo < c < hi), hi]
        width, ref = min(max(sigma / 2.0, 1e-3), 2.0), 0.0
        for a, b in zip(edges, edges[1:]):
            x, w = circlecs._gl_rule(np.linspace(a, b, max(4, math.ceil((b - a) / width)) + 1))
            ref += math.fsum(wi * math.sqrt(p(xi) * p(xi - m)) for xi, wi in zip(x.tolist(), w.tolist()))
        assert close(overlap(dist, m), ref)


# -------------------------------------------------------------- overlaps

def test_overlap_at_zero_separation():
    assert overlap(gaussian_distribution(2.3), 0) == 1.0


def test_overlap_gaussian_closed_form():
    # product of shifted Gaussians integrates to exp(-m^2 / (8 sigma^2))
    for sigma in (0.5, 1.0, 3.0):
        dist = gaussian_distribution(sigma)
        for m in (1, 2, 5):
            assert overlap(dist, m) == pytest.approx(
                math.exp(-(m ** 2) / (8.0 * sigma * sigma)), abs=1e-11
            )


def test_overlap_decays_at_large_separation():
    assert overlap(gaussian_distribution(1.0), 40) <= 1e-12


def raised_cosine(a):
    """p(x) = (1 + cos(pi x / a)) / (2a) on |x| <= a, zero beyond."""
    pdf = lambda x: np.where(np.abs(x) <= a, (1.0 + np.cos(np.pi * x / a)) / (2.0 * a), 0.0)
    return DistributionSpec(sigma=a * math.sqrt(1.0 / 3.0 - 2.0 / math.pi ** 2), pdf=pdf, radius=a)


def raised_cosine_overlap(a, m):
    # integral of cos(pi x / 2a) cos(pi (x - m) / 2a) / a over [m - a, a]
    if m >= 2.0 * a:
        return 0.0
    u = math.pi * m / (2.0 * a)
    return math.sin(u) / math.pi + (1.0 - m / (2.0 * a)) * math.cos(u)


@pytest.mark.parametrize("a", [0.7, 1.3, 1.5])
def test_overlap_compact_density_closed_form(a):
    # the support edges m - a and a are panel edges, so the kinks are integrated exactly
    dist = raised_cosine(a)
    for m in range(1, 5):
        assert abs(overlap(dist, m) - raised_cosine_overlap(a, m)) <= 1e-14


def test_overlap_profile():
    dist = gaussian_distribution(1.0)
    p = overlap_profile(dist, 4)
    assert p.shape == (5,) and p[0] == 1.0
    assert np.array_equal(p[1:], [overlap(dist, m) for m in range(1, 5)])
    assert np.all(np.diff(p) < 0)


# --------------------------------------------------------------- states

def test_cs_vector_norm_and_phase_covariance():
    dist = gaussian_distribution(1.0)
    basis = two_sided(64)
    vec = cs_vector(dist, CylinderPoint(2.5, 0.7), basis)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
    theta = 0.9
    shifted = cs_vector(dist, CylinderPoint(2.5, (0.7 - theta) % (2 * math.pi)), basis)
    phases = np.exp(1j * theta * basis.labels())
    assert np.abs(shifted - phases * vec).max() <= 1e-12


@pytest.mark.parametrize("a", [0.7, 1.3, 3.0])
def test_cs_vector_of_compact_density_has_unit_norm(a):
    # the lattice sum of `normalizer` over |J - n| <= radius serves any density
    basis = two_sided(32)
    for J in (-2.6, 0.0, 0.5, 4.25):
        vec = cs_vector(raised_cosine(a), CylinderPoint(J, 1.1), basis)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


def test_cs_vector_small_width_pins_to_basis_state():
    dist = gaussian_distribution(0.05)
    basis = two_sided(32)
    vec = cs_vector(dist, CylinderPoint(3.0, 1.2), basis)
    peak = np.argmax(np.abs(vec))
    assert basis.labels()[peak] == 3
    assert abs(abs(vec[peak]) - 1.0) <= 1e-10


def test_cs_vector_warns_when_density_leaks():
    dist = gaussian_distribution(1.0)
    with pytest.warns(TruncationWarning):
        cs_vector(dist, CylinderPoint(14.0, 0.0), two_sided(32))


def test_leak_warning_reads_the_mass_the_labels_keep():
    # the density reaches past label 31 at J = 25, but the lost lattice tail
    # is 9.1e-12, below LEAK_TOL; the symbol of the identity is the kept mass
    dist = gaussian_distribution(1.0)
    eye = linalg.TruncatedOperator(np.eye(64, dtype=complex), two_sided(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = lower_symbols_cyl(eye, dist, 25.0, [0.0])[0].real
    tail = math.fsum(dist.pdf(25.0 - np.arange(32, 60)).tolist()) / dist.normalizer(25.0)
    assert 1.0 - kept == pytest.approx(tail, rel=1e-3)
    assert 0.0 < tail < LEAK_TOL


def test_both_circle_paths_warn_at_the_caller_with_the_mass():
    dist = gaussian_distribution(1.0)
    eye = linalg.TruncatedOperator(np.eye(32, dtype=complex), two_sided(32))
    for call in (lambda: cs_vector(dist, CylinderPoint(14.0, 0.0), two_sided(32)),
                 lambda: lower_symbols_cyl(eye, dist, 14.0, [0.0])):
        with pytest.warns(TruncationWarning) as record:
            call()
        assert [(str(w.message), w.filename) for w in record] == [
            ("density at J=14.0 leaks mass 5.856e-02 past the label window", __file__)
        ]


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_quantum_probabilities_sum_to_one(J):
    dist = gaussian_distribution(1.0)
    norm = dist.normalizer(J)
    total = math.fsum(dist.pdf(J - n) for n in range(-40, 41)) / norm
    assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------- quantization

def test_action_quantizes_to_number_operator():
    dist = gaussian_distribution(1.0)
    basis = two_sided(48)
    A = quantize_cyl(dist, basis, {0: lambda J: J})
    assert np.abs(A.entries - np.diag(basis.labels().astype(complex))).max() <= 1e-9


@pytest.mark.parametrize("a", [0.7, 1.3, 1.5, 2.0])
def test_compact_density_quantization_closed_forms(a):
    # every density edge n +- a is a panel edge of the action table
    dist, basis = raised_cosine(a), two_sided(16)
    A_J = quantize_cyl(dist, basis, {0: lambda J: J})
    assert np.abs(A_J.entries - np.diag(basis.labels().astype(complex))).max() <= 1e-12
    for q in (1, 2, 3):
        diag = np.diag(quantize_cyl(dist, basis, {q: 1}).entries, -q)
        assert np.abs(diag - raised_cosine_overlap(a, q)).max() <= 1e-12


@pytest.mark.parametrize("dim", [64, 65])
def test_compact_density_angle_spectrum_closed_form(dim):
    # at a = 1 the overlap is 1/pi at m = 1 and 0 beyond, so the sawtooth is the
    # tridiagonal Toeplitz pi I +- i/pi; frac(2 radius) = 0 falls on a cell cut
    A = quantize_cyl(raised_cosine(1.0), two_sided(dim), sawtooth_fourier(dim - 1))
    band = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) <= 1
    assert np.all(A.entries[~band] == 0.0)
    assert abs(abs(A.entries[1, 0]) - 1.0 / math.pi) <= 1e-15
    k = np.arange(dim, 0, -1)
    expected = math.pi + (2.0 / math.pi) * np.cos(k * math.pi / (dim + 1))
    assert np.abs(linalg.chiral_eigenvalues(A) - expected).max() <= 1e-14


def test_angle_band_matrix_formula():
    dist = gaussian_distribution(1.0)
    basis = two_sided(24)
    p = overlap_profile(dist, 23)
    A = quantize_cyl(dist, basis, sawtooth_fourier(23))
    assert np.allclose(np.diag(A.entries).real, math.pi)
    for n, npr in ((0, 1), (3, 7), (10, 11)):
        expected = 1j * p[abs(npr - n)] / (n - npr)
        assert A.entries[n, npr] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 10.0])
def test_angle_matrix_is_toeplitz_and_persymmetric(sigma):
    # on the default window a number mode fills its diagonal with one value,
    # c_q times the overlap profile g_q = exp(-q^2 / (8 sigma^2)) of the Gaussian
    dim = 64
    dist, basis = gaussian_distribution(sigma), two_sided(dim)
    A = quantize_cyl(dist, basis, sawtooth_fourier(dim - 1)).entries
    for q in range(1 - dim, dim):
        diag = np.diag(A, -q)
        assert np.all(diag == diag[0]), q
    K = A.imag
    assert np.array_equal(K[::-1, ::-1], -K)
    profile = quantize_cyl(dist, basis, dict.fromkeys(range(dim), 1.0)).entries[:, 0]
    q = np.arange(dim)
    assert np.abs(profile - np.exp(-q * q / (8.0 * sigma * sigma))).max() <= 1.5e-15


def test_mixed_map_tabulates_sqrt_p_once(monkeypatch):
    # the number modes' profile and the callable modes' frames read one sqrt(p) table
    calls = []
    action_table = circlecs._action_table
    monkeypatch.setattr(circlecs, "_action_table",
                        lambda dist, labels: calls.append(labels) or action_table(dist, labels))
    quantize_cyl(gaussian_distribution(1.0), two_sided(128), {0: lambda J: J, 1: 1.0, -1: 1.0})
    assert len(calls) == 1


def test_fundamental_harmonic_is_weighted_shift():
    dist = gaussian_distribution(1.0)
    basis = two_sided(16)
    A = quantize_cyl(dist, basis, {1: 1.0 + 0.0j})
    p10 = overlap(dist, 1)
    expected = p10 * np.diag(np.ones(15), -1)
    assert np.abs(A.entries - expected).max() <= 1e-12


def test_general_product_function_against_dense_oracle():
    # independent oracle: dense trapezoid in J for each entry of the
    # non-separable f = J^2 e^{i phi} + cos(J) e^{-i phi} + 1, whose
    # mode n - n' = q carries integral c_q(J) sqrt(p(J-n) p(J-n')) dJ
    dist = gaussian_distribution(1.0)
    basis = two_sided(12)
    fourier = {1: lambda J: J * J, -1: math.cos, 0: 1}
    A = quantize_cyl(dist, basis, fourier)
    labels = basis.labels()
    Js = np.linspace(-16.0, 16.0, 6401)
    root_p = lambda n: np.sqrt(np.maximum([dist.pdf(J - n) for J in Js], 0.0))
    for row, col in ((0, 1), (2, 1), (3, 2), (5, 5), (7, 7), (4, 6), (9, 8)):
        q = row - col
        if q in fourier:
            c = fourier[q]
            cvals = np.array([c(J) for J in Js]) if callable(c) else c
            oracle = np.trapezoid(root_p(labels[row]) * root_p(labels[col]) * cvals, Js)
        else:
            oracle = 0.0
        assert A.entries[row, col] == pytest.approx(oracle, rel=1e-6, abs=1e-9)


def test_product_mode_past_truncation_is_zero():
    # modes +-40 have no diagonal in a 16-label window, constant or not
    A = quantize_cyl(gaussian_distribution(5.0), two_sided(16), {40: 1, -40: lambda J: J})
    assert np.count_nonzero(A.entries) == 0


def test_grid_resolution_of_identity():
    dist = gaussian_distribution(1.0)
    basis = two_sided(48)
    one = quantize_cyl(dist, basis, {0: lambda J: 1.0})
    assert np.abs(one.entries - np.eye(48)).max() <= 1e-6


def test_quantize_cyl_rejects_coefficient_of_unknown_form():
    # the WH (g, half_power) pair has no meaning on the cylinder, where J < 0
    with pytest.raises(DomainError):
        quantize_cyl(gaussian_distribution(1.0), two_sided(8), {1: (lambda J: J, 1)})


# ------------------------------------------------------------ harmonics

def test_harmonic_unitarity_defect_and_value():
    dist = gaussian_distribution(1.0)
    defect, p2 = fourier_harmonic_defect(dist, two_sided(32))
    assert defect <= 1e-10
    assert p2 == pytest.approx(math.exp(-0.25), abs=1e-10)


def test_harmonic_defect_trend_toward_unitarity():
    values = []
    for sigma in (1.0, 2.0, 5.0, 10.0):
        defect, p2 = fourier_harmonic_defect(gaussian_distribution(sigma), two_sided(48))
        assert defect <= 1e-10
        values.append(p2)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(math.exp(-1.0 / 400.0), abs=1e-10)


# ----------------------------------------------------------- commutator

def test_commutator_routes_agree_and_encode_overlaps():
    dist = gaussian_distribution(1.0)
    basis = two_sided(32)
    p = overlap_profile(dist, 31)
    K, dev = commutator_number_angle(dist, basis)
    assert dev <= 1e-10
    assert op_norm_max(K + K.H) <= 1e-10
    for n, npr in ((10, 11), (12, 18), (20, 15)):
        expected = 1j * p[abs(npr - n)] if n != npr else 0.0
        assert K.entries[n, npr] == pytest.approx(expected, abs=1e-10)
    assert np.abs(np.diag(K.entries)).max() <= 1e-12


def test_commutator_with_general_angle_function():
    # [A_J, A_f] entries are (n - n') p_{n,n'} c_{n-n'} for f = cos(phi)
    dist = gaussian_distribution(1.0)
    basis = two_sided(20)
    fourier = {1: 0.5 + 0j, -1: 0.5 + 0j}
    A_J = quantize_cyl(dist, basis, {0: lambda J: J})
    A_f = quantize_cyl(dist, basis, fourier)
    K = linalg.commutator(A_J, A_f)
    p = overlap_profile(dist, 1)
    for n in range(3, 16):
        expected = 1.0 * p[1] * 0.5  # (n - n') = 1 times c_1
        assert K.entries[n, n - 1] == pytest.approx(expected, abs=1e-10)


# --------------------------------------------------------- lower symbols

def test_symbol_of_identity_is_one():
    dist = gaussian_distribution(1.0)
    basis = two_sided(32)
    eye = linalg.TruncatedOperator(np.eye(32, dtype=complex), basis)
    val = lower_symbols_cyl(eye, dist, 1.3, [0.4])[0]
    assert val.real == pytest.approx(1.0, abs=1e-12)


def test_symbol_grid_matches_coherent_state_expectations():
    # dim 200 holds every density below in the label window
    basis = two_sided(200)
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    A = linalg.TruncatedOperator(raw, basis)
    phis = 2.0 * math.pi * np.arange(32) / 32
    for sigma in (0.5, 1.0, 10.0):
        dist = gaussian_distribution(sigma)
        for J in (-3.3, 0.2, 7.9):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = lower_symbols_cyl(A, dist, J, phis)
            for phi, val in zip(phis.tolist(), grid):
                vec = cs_vector(dist, CylinderPoint(J, phi), basis)
                assert abs(val - vec.conj() @ raw @ vec) <= 1e-13


def test_symbol_grid_warns_once_on_leak():
    dist = gaussian_distribution(1.0)
    eye = linalg.TruncatedOperator(np.eye(32, dtype=complex), two_sided(32))
    with pytest.warns(TruncationWarning) as record:
        lower_symbols_cyl(eye, dist, 14.0, np.linspace(0.0, 6.0, 32))
    assert len(record) == 1


def test_d_m_vanishing_separation_is_exact_unity():
    dist = gaussian_distribution(1.5)
    assert d_m_sigma(dist, 0, 0.7) == pytest.approx(1.0, abs=1e-12)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.5, 1.0, 4.0]),
)
def test_d_m_bounded_by_one(m, J, sigma):
    val = d_m_sigma(gaussian_distribution(sigma), m, J)
    assert 0.0 < val <= 1.0 + 1e-12


def test_symbol_fourier_route_matches_trace_route():
    # band-matrix symbol via d_m p_{0,m} c_m against the direct expectation
    dist = gaussian_distribution(1.0)
    basis = two_sided(48)
    p = overlap_profile(dist, 47)
    A = quantize_cyl(dist, basis, sawtooth_fourier(47))
    J0, phi0 = 0.4, 2.1
    direct = lower_symbols_cyl(A, dist, J0, [phi0])[0].real
    series = math.pi
    for m in range(1, 30):
        series += (
            2.0
            * d_m_sigma(dist, m, J0)
            * p[m]
            * (1.0 / m)
            * -math.sin(m * phi0)
        )
    assert direct == pytest.approx(series, abs=1e-8)


# -------------------------------------------------------------- kernels

def test_overlap_kernel_normalization_and_duality():
    p = CylinderPoint(1.2, 0.5)
    direct, poisson = overlap_kernel(0.8, p, p)
    assert direct == pytest.approx(1.0, abs=1e-12)
    assert abs(direct - poisson) <= 1e-12
    q = CylinderPoint(0.4, 2.8)
    d2, p2 = overlap_kernel(0.8, p, q)
    assert abs(d2 - p2) <= 1e-10


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.8, 50.0])
def test_overlap_kernel_forms_agree_in_documented_range(sigma):
    # the direct form's cs_vector basis holds both densities: no leak warning
    actions = (-2.0, -0.5, 0.0, 0.45, 1.5, 3.0)
    worst = 0.0
    for J in actions:
        for Jp in actions:
            for phi in (0.0, 0.7, 2.9, 5.8):
                d, p = overlap_kernel(sigma, CylinderPoint(J, phi), CylinderPoint(Jp, 0.7))
                worst = max(worst, abs(d - p))
    assert worst <= 1e-10


def test_small_width_orthogonality_between_integer_actions():
    d, _ = overlap_kernel(0.05, CylinderPoint(2.0, 0.3), CylinderPoint(3.0, 0.3))
    assert abs(d) <= 0.05


def test_large_width_angle_localization():
    apart, _ = overlap_kernel(50.0, CylinderPoint(1.0, 0.5), CylinderPoint(4.0, 0.5 + math.pi))
    same, _ = overlap_kernel(50.0, CylinderPoint(1.0, 0.5), CylinderPoint(4.0, 0.5))
    assert abs(apart) <= 0.05
    assert abs(same) >= 0.95


def test_limit_study_tables():
    for sigmas, case in (((0.05,), "small"), ((50.0,), "large")):
        rows = limit_study(sigmas, case)
        assert rows and all(r["within_threshold"] for r in rows)
    with pytest.raises(DomainError):
        limit_study((1.0,), "medium")


def test_quantize_cyl_rejects_non_integer_mode():
    with pytest.raises(DomainError, match="not an integer"):
        quantize_cyl(gaussian_distribution(1.0), BasisSpec("two_sided", 8), {0.5: 1.0})
    # integral keys, numpy integers included, keep their meaning
    dist, basis = gaussian_distribution(1.0), BasisSpec("two_sided", 8)
    assert np.array_equal(quantize_cyl(dist, basis, {np.int64(1): 1.0, 2.0: 0.5}).entries,
                          quantize_cyl(dist, basis, {1: 1.0, 2: 0.5}).entries)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: CylinderPoint(J=0.0, phi=2.0 * math.pi),
                 "phi must lie", id="phi-2pi"),
    pytest.param(lambda: CylinderPoint(J=math.nan, phi=0.0),
                 "J must be finite", id="cylinder-nan-J"),
    pytest.param(lambda: CylinderPoint(J=-math.inf, phi=0.0),
                 "J must be finite", id="cylinder-inf-J"),
    pytest.param(lambda: DistributionSpec(0.0, np.ones_like, 1.0),
                 "sigma must be positive", id="zero-sigma"),
    pytest.param(lambda: DistributionSpec(math.nan, np.ones_like, 1.0),
                 "sigma must be positive and finite", id="nan-sigma"),
    pytest.param(lambda: DistributionSpec(math.inf, np.ones_like, 1.0),
                 "sigma must be positive and finite", id="inf-sigma"),
    pytest.param(lambda: DistributionSpec(1.0, np.ones_like, 0.0),
                 "radius must be positive", id="zero-radius"),
    pytest.param(lambda: DistributionSpec(1.0, np.ones_like, math.nan),
                 "radius must be positive and finite", id="nan-radius"),
    pytest.param(lambda: DistributionSpec(1.0, np.ones_like, math.inf),
                 "radius must be positive and finite", id="inf-radius"),
    pytest.param(lambda: gaussian_distribution(math.nan),
                 "sigma must be positive and finite", id="gaussian-nan-sigma"),
    pytest.param(lambda: gaussian_distribution(-1.0),
                 "sigma must be positive", id="gaussian-negative-sigma"),
    pytest.param(lambda: DistributionSpec(0.5, lambda x: -np.ones_like(x), 0.5),
                 "pdf must be nonnegative", id="negative-pdf"),
    pytest.param(lambda: overlap(gaussian_distribution(1.0), -1),
                 "m must be nonnegative", id="overlap-negative-m"),
    pytest.param(lambda: overlap(gaussian_distribution(1.0), 0.5),
                 "m must be nonnegative and integral", id="overlap-m-0.5"),
    pytest.param(lambda: d_m_sigma(gaussian_distribution(1.0), 0.5, 0.0),
                 "m must be an integer", id="d-m-sigma-m-0.5"),
    pytest.param(lambda: gaussian_distribution(1.0).normalizer(math.nan),
                 "J must be finite", id="normalizer-nan-J"),
    pytest.param(lambda: gaussian_distribution(1.0).normalizer(math.inf),
                 "J must be finite", id="normalizer-inf-J"),
    pytest.param(lambda: d_m_sigma(gaussian_distribution(1.0), 1, math.nan),
                 "J must be finite", id="d-m-sigma-nan-J"),
    pytest.param(lambda: overlap_profile(gaussian_distribution(1.0), 2.5),
                 "half_bandwidth must be an integer", id="overlap-profile-2.5"),
    pytest.param(lambda: cs_vector(gaussian_distribution(1.0), CylinderPoint(0.0, 0.0),
                                    BasisSpec("one_sided", 8, 0)),
                 "two_sided basis", id="cs-vector-one-sided"),
    pytest.param(lambda: quantize_cyl(gaussian_distribution(1.0), BasisSpec("cyclic", 8), {0: 1.0}),
                 "two_sided basis", id="quantize-cyl-cyclic"),
])
def test_rejects_inputs_outside_the_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()
