import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

from anglekit import linalg, whquant
from anglekit.errors import DomainError, QuadratureWarning, TruncationWarning
from anglekit.linalg import from_matrix, hermitian_eig, op_norm_max
from anglekit.specfun import ln_gamma, sawtooth_fourier
from anglekit.whquant import (
    PhaseSpacePoint,
    QuadratureScheme,
    WeightSpec,
    action_angle_commutator,
    angle_matrix,
    canonical_angle_B,
    coherent_state,
    commutator_symbol,
    covariance_checks,
    d_q_cs,
    d_q_series,
    displacement_laguerre,
    f_coefficient,
    lower_symbols,
    m_s_diagonal,
    quantize,
    symbol_sine_coefficients,
    t_from_s,
)

GAMMA_3_2 = math.gamma(1.5)


# ------------------------------------------------------ weights & maps

def test_weight_validation():
    with pytest.raises(DomainError):
        WeightSpec(t=1.0)
    with pytest.raises(DomainError):
        WeightSpec(kind="density_diagonal")
    with pytest.raises(DomainError):
        WeightSpec(kind="density_diagonal", diag=(0.4, 0.4))
    w = WeightSpec(kind="density_diagonal", diag=(0.25, 0.75))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(w.diagonal(4), [0.25, 0.75, 0.0, 0.0])


def test_density_diagonal_truncation_warns():
    w = WeightSpec(kind="density_diagonal", diag=(0.25,) * 4)
    with pytest.warns(TruncationWarning, match=r"5\.000e-01 past dim=2"):
        d = w.diagonal(2)
    assert np.array_equal(d, [0.25, 0.25])


def test_t_from_s_endpoints():
    assert t_from_s(-1.0) == 0.0
    assert t_from_s(-3.0) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        t_from_s(0.0)


@given(st.floats(min_value=0.05, max_value=5.0))
def test_t_from_s_matches_geometric_parameter(x):
    # s = -coth(x/2) corresponds to the geometric ratio e^{-x}
    s = -1.0 / math.tanh(x / 2.0)
    assert t_from_s(s) == pytest.approx(math.exp(-x), rel=1e-12)


def test_phase_space_point():
    p = PhaseSpacePoint(4.0, math.pi)
    assert p.z == pytest.approx(-2.0 + 0.0j)
    with pytest.raises(DomainError):
        PhaseSpacePoint(-1.0, 0.0)
    with pytest.raises(DomainError):
        PhaseSpacePoint(1.0, 7.0)


# --------------------------------------------------------- displacement

def test_displacement_vacuum_amplitude():
    D = displacement_laguerre(1.0, 16).entries
    assert D[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_displacement_at_zero_is_identity():
    D = displacement_laguerre(0.0, 8).entries
    assert np.array_equal(D, np.eye(8))


def test_displacement_matches_matrix_exponential():
    # independent route: exponentiate z a+ - conj(z) a- spectrally
    dim = 64
    z = 0.7 + 0.3j
    a_plus = np.diag(np.sqrt(np.arange(1.0, dim)), -1).astype(complex)
    G = from_matrix(z * a_plus - np.conj(z) * a_plus.conj().T)
    via_exp = linalg.anti_hermitian_exp(G).entries
    via_laguerre = displacement_laguerre(z, dim).entries
    assert np.abs(via_exp - via_laguerre)[:32, :32].max() <= 1e-8


def test_displacement_reflection_over_whole_matrix():
    # D(-z) = D(z)^H ties the parity-built upper triangle to the lower one
    # through the rotation phases of z and -z, including offsets >= 100
    for z in (0.7 + 0.3j, 3 - 4j, 8.5j, -6.1, 17.0):
        D = displacement_laguerre(z, 160).entries
        D_neg = displacement_laguerre(-z, 160).entries
        assert np.abs(D_neg - D.conj().T).max() <= 1e-13


def _fill_lower_triangle(z, dim):
    """Entries on and below the diagonal of D(z) via scaled recurrences.

    Along offset a = m - n >= 0 the entry is e^{-J/2} z^a S_n with
    S_n = sqrt(n!/(n+a)!) L_n^{(a)}(J); the three-term recurrence for
    S_n is rescaled whenever its running magnitude leaves [1e-100, 1e100]
    so intermediate Laguerre growth never overflows.
    """
    J = abs(z) ** 2
    out = np.zeros((dim, dim), dtype=complex)
    if z == 0:
        np.fill_diagonal(out, 1.0)
        return out
    log_abs_z = math.log(abs(z))
    unit = z / abs(z)
    for a in range(dim):
        pref_ln = -J / 2.0 + a * log_abs_z
        phase = unit ** a
        s_prev = 0.0
        s_cur = math.exp(-0.5 * ln_gamma(a + 1.0))
        scale_ln = 0.0
        for n in range(dim - a):
            val_ln = pref_ln + scale_ln
            if val_ln > -745.0:
                out[n + a, n] = (s_cur * math.exp(val_ln)) * phase
            s_next = (
                (2.0 * n + 1.0 + a - J) * s_cur
                - math.sqrt(n * (n + a)) * s_prev
            ) / math.sqrt((n + 1.0) * (n + 1.0 + a))
            s_prev, s_cur = s_cur, s_next
            mag = max(abs(s_cur), abs(s_prev))
            if mag > 1e100 or (0.0 < mag < 1e-100):
                s_cur /= mag
                s_prev /= mag
                scale_ln += math.log(mag)
    return out


class _BranchCounter:
    """Stands in for `math` inside the scalar reference and counts its branches.

    The reference calls log once per fill plus once per rescaling, and exp
    once per offset plus once per entry that escapes the -745 cut.
    """

    sqrt = staticmethod(math.sqrt)

    def __init__(self):
        self.logs = 0
        self.exps = 0
        self._log, self._exp = math.log, math.exp

    def log(self, x):
        self.logs += 1
        return self._log(x)

    def exp(self, x):
        self.exps += 1
        return self._exp(x)


def test_radial_fill_matches_scalar_reference(monkeypatch):
    # every Gauss-Laguerre node quantize uses at n_J = 96, plus r = 1e-3,
    # whose offsets a >= 108 fall under the -745 cut at D = 160 (no node
    # of either rule does)
    radii = np.concatenate(
        [np.sqrt(roots_genlaguerre(96, alpha)[0]) for alpha in (0.0, 0.5)] + [[1e-3]]
    )
    counter = _BranchCounter()
    monkeypatch.setitem(_fill_lower_triangle.__globals__, "math", counter)
    rescales = cut = 0
    for dim in (24, 96, 160):
        m, n = np.indices((dim, dim))
        sign = 1.0 - 2.0 * ((m + n) % 2)
        batches = [
            whquant._radial_fill(radii[i : i + whquant.FILL_BATCH], dim)
            for i in range(0, radii.size, whquant.FILL_BATCH)
        ]
        filled = np.concatenate(batches)
        assert filled.dtype == np.float64 and filled.shape == (radii.size, dim, dim)
        for r, got in zip(radii, filled):
            logs, exps = counter.logs, counter.exps
            lower = _fill_lower_triangle(complex(r), dim)
            rescales += counter.logs - logs - 1
            cut += dim * (dim + 1) // 2 - (counter.exps - exps - dim)
            ref = np.where(m >= n, lower, sign * lower.T)
            assert np.abs(got - ref).max() <= 1e-13
    assert rescales > 0 and cut > 0


def test_displacement_block_unitarity():
    worst = 0.0
    for z in (0.5, 2.0j, 1.4 - 1.4j):
        D = displacement_laguerre(z, 128).entries
        worst = max(worst, np.abs(D.conj().T @ D - np.eye(128))[:32, :32].max())
    assert worst <= 1e-8


def test_displacement_first_column_is_coherent_state():
    z = 1.1 - 0.4j
    D = displacement_laguerre(z, 48).entries
    assert np.abs(D[:, 0] - coherent_state(z, 48)).max() <= 1e-10


# ------------------------------------------------------- coherent states

def test_coherent_state_vacuum():
    v = coherent_state(0.0, 8)
    assert v[0] == 1.0 and np.abs(v[1:]).max() == 0.0


def test_coherent_state_norm():
    v = coherent_state(2.0 * np.exp(0.3j), 64)  # |z|^2 = 4
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


# ------------------------------------------------------- density diagonal

def test_density_diagonal_limits():
    rho0 = m_s_diagonal(0.0, 8).entries
    assert rho0[0, 0] == 1.0 and np.abs(rho0).sum() == 1.0
    rho = m_s_diagonal(0.5, 32).entries
    diag = np.real(np.diag(rho))
    assert np.allclose(diag[:3], [0.5, 0.25, 0.125])
    assert diag.sum() == pytest.approx(1.0 - 2.0 ** -32, rel=1e-14)
    assert np.all(np.diff(diag) < 0.0)


# ---------------------------------------------------------- quantization

def test_resolution_of_identity():
    quad = QuadratureScheme(n_J=80)
    for t in (0.0, 0.3):
        A = quantize({0: ((lambda J: 1.0), 0)}, WeightSpec(t=t), quad, 64)
        assert np.abs(A.entries - np.eye(64))[:16, :16].max() <= 1e-6


def test_quantize_annihilation_symbol():
    quad = QuadratureScheme(n_J=96)
    A = quantize({1: ((lambda J: 1.0), 1)}, WeightSpec(t=0.0), quad, 48)
    a_minus = np.diag(np.sqrt(np.arange(1.0, 48)), 1)
    assert np.abs(A.entries - a_minus)[:24, :24].max() <= 1e-6


def test_quantize_angle_entry_and_matrix_cross_check():
    quad = QuadratureScheme(n_J=96)
    A = quantize(sawtooth_fourier(40), WeightSpec(t=0.0), quad, 32)
    assert A.entries[0, 1] == pytest.approx(1j * GAMMA_3_2, abs=1e-6)
    closed = angle_matrix(0.0, 32)
    assert np.abs(A.entries - closed.entries)[:16, :16].max() <= 1e-6


def test_quantize_hermitian_for_real_symbol():
    quad = QuadratureScheme(n_J=64)
    A = quantize(sawtooth_fourier(12), WeightSpec(t=0.25), quad, 24)
    assert op_norm_max(A - A.H) <= 1e-10


def test_quantize_under_resolution_warns():
    quad = QuadratureScheme(n_J=8)
    with pytest.warns(QuadratureWarning):
        quantize(
            sawtooth_fourier(3),
            WeightSpec(t=0.5),
            quad,
            24,
            check_resolution=True,
        )


def test_quantized_sawtooth_is_angle_matrix_over_one_minus_t():
    # f_coefficient: at t > 0 the map's off-diagonals are angle_matrix(t)/(1-t)
    quad = QuadratureScheme(n_J=96)
    off = ~np.eye(12, dtype=bool)
    for t in (0.25, 0.5):
        A = quantize(sawtooth_fourier(23), WeightSpec(t=t), quad, 24).entries[:12, :12]
        closed = angle_matrix(t, 24).entries[:12, :12]
        ratio = A[off] / closed[off]
        assert np.abs(ratio - 1.0 / (1.0 - t)).max() <= 1e-6


def test_canonical_commutation_from_map():
    quad = QuadratureScheme(n_J=96)
    for t in (0.0, 0.6):
        Az = quantize({1: ((lambda J: 1.0), 1)}, WeightSpec(t=t), quad, 48)
        Azb = quantize({-1: ((lambda J: 1.0), 1)}, WeightSpec(t=t), quad, 48)
        K = linalg.commutator(Az, Azb)
        assert np.abs(K.entries - np.eye(48))[:24, :24].max() <= 1e-5


def test_quantize_drops_modes_past_truncation():
    # modes 97..200 have no diagonal at dim 32; none may leak onto one
    quad = QuadratureScheme(n_J=96)
    A = quantize(sawtooth_fourier(200), WeightSpec(t=0.0), quad, 32)
    closed = angle_matrix(0.0, 32)
    assert np.abs(A.entries - closed.entries)[:16, :16].max() <= 1e-6


def test_quantize_mode_fills_only_its_diagonal():
    quad = QuadratureScheme(n_J=96)
    dim = 128
    Az = quantize({1: ((lambda J: 1.0), 1)}, WeightSpec(t=0.0), quad, dim)
    Azb = quantize({-1: ((lambda J: 1.0), 1)}, WeightSpec(t=0.0), quad, dim)
    off = Az.entries.copy()
    off[np.arange(dim - 1), np.arange(1, dim)] = 0.0
    assert np.count_nonzero(off) == 0
    K = linalg.commutator(Az, Azb)
    assert np.abs(K.entries - np.eye(dim))[:64, :64].max() <= 1e-10


# -------------------------------------------------------- F coefficients

def test_f_first_values_at_zero_temperature():
    assert f_coefficient(0, 1, 0.0) == pytest.approx(GAMMA_3_2, abs=1e-10)
    assert f_coefficient(1, 2, 0.0) == pytest.approx(
        math.gamma(2.5) / math.sqrt(2.0), abs=1e-10
    )


def test_f_symmetry_contract():
    worst = max(
        abs(f_coefficient(n, npr, t) - f_coefficient(npr, n, t))
        for t in (0.0, 0.25, 0.5, 0.75)
        for n in range(0, 41, 4)
        for npr in range(n + 1, 41, 4)
    )
    assert worst <= 1e-10


def test_f_symmetry_direct_both_orders():
    # evaluate the hypergeometric sum in both index orders where the
    # swapped order is well conditioned (small separations, n >= 1)
    from anglekit.specfun import gauss_2f1_terminating, ln_gamma

    def direct(n, npr, t):
        log_mag = (
            ln_gamma((n + npr) / 2.0 + 1.0)
            - 0.5 * (ln_gamma(n + 1.0) + ln_gamma(npr + 1.0))
            + (1.0 + (npr - n) / 2.0) * math.log1p(-t)
        )
        return math.exp(log_mag) * gauss_2f1_terminating(
            -n, (npr - n) / 2.0, -(n + npr) / 2.0, t
        )

    # the identity is a polynomial one only for odd n+n'; for even sums
    # the lower parameter degenerates to a negative integer and the
    # swapped-order truncated sum is not the analytic continuation
    worst = max(
        abs(direct(n, npr, t) - direct(npr, n, t))
        for t in (0.25, 0.5)
        for n in range(1, 12)
        for npr in range(n + 1, 13)
        if (n + npr) % 2 == 1
    )
    assert worst <= 1e-10


def test_f_rejects_diagonal():
    with pytest.raises(DomainError):
        f_coefficient(3, 3, 0.2)


# --------------------------------------------------------- angle matrix

def test_angle_matrix_diagonal_is_pi():
    A = angle_matrix(0.4, 24).entries
    assert np.array_equal(np.real(np.diag(A)), np.full(24, math.pi))
    assert np.abs(A - A.conj().T).max() == 0.0


def test_angle_matrix_entry_value():
    A = angle_matrix(0.0, 8).entries
    assert A[0, 1] == pytest.approx(1j * GAMMA_3_2, abs=1e-12)


def test_angle_matrix_small_spectrum_support():
    vals = hermitian_eig(angle_matrix(0.0, 8)).eigenvalues
    assert vals[0] >= -0.2 and vals[-1] <= 2.0 * math.pi + 0.2


# --------------------------------------------------------- lower symbols

def test_symbol_of_identity():
    eye = from_matrix(np.eye(32))
    val = lower_symbols(eye, WeightSpec(t=0.0), 2.0, [1.0])[0]
    assert val.real == pytest.approx(1.0, abs=1e-10)
    assert abs(val.imag) <= 1e-12


def test_symbol_at_gamma_pi_is_exactly_pi():
    A = angle_matrix(0.0, 64)
    val = lower_symbols(A, WeightSpec(t=0.0), 6.0, [math.pi])[0]
    assert val.real == pytest.approx(math.pi, abs=1e-9)


def test_symbol_tracks_sawtooth_at_large_action():
    A = angle_matrix(0.0, 128)
    val = lower_symbols(A, WeightSpec(t=0.0), 100.0, [2.0], warn_leak=False)[0]
    assert abs(val.real - 2.0) <= 0.05


def test_symbol_general_weight_is_real_for_hermitian():
    A = angle_matrix(0.5, 48)
    val = lower_symbols(A, WeightSpec(t=0.5), 3.0, [2.2])[0]
    assert abs(val.imag) <= 1e-9


def test_symbol_warns_on_truncation_leak():
    A = from_matrix(np.eye(24))
    with pytest.warns(TruncationWarning):
        lower_symbols(A, WeightSpec(t=0.0), 40.0, [1.0])


def test_symbol_grid_matches_direct_trace():
    dim = 64
    gammas = 2.0 * math.pi * np.arange(32) / 32
    for t in (0.0, 0.3, 0.5):
        A = angle_matrix(t, dim)
        weight = WeightSpec(t=t)
        rho = weight.diagonal(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = lower_symbols(A, weight, 9.0, gammas)
        for gamma, val in zip(gammas, grid):
            Dz = displacement_laguerre(PhaseSpacePoint(9.0, gamma).z, dim).entries
            direct = np.trace((Dz * rho) @ Dz.conj().T @ A.entries)
            assert abs(val - direct) <= 1e-12
    with pytest.warns(TruncationWarning) as record:
        lower_symbols(A, weight, 50.0, gammas)
    assert len(record) == 1


def test_quantize_memory_stays_bounded():
    # quantize fills at most FILL_BATCH radial nodes at once
    quad = QuadratureScheme(96)
    tracemalloc.start()
    try:
        quantize({1: ((lambda J: 1.0), 1)}, WeightSpec(t=0.3), quad, 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# --------------------------------------------------- symbol coefficients

def test_d_q_vanishes_at_origin():
    assert d_q_cs(3, 0.0) == 0.0


def test_d_q_bounded_and_growing_toward_one():
    vals = [d_q_cs(1, J) for J in (1.0, 10.0, 100.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_d_q_against_trace_route():
    A = angle_matrix(0.0, 96)
    trace_route = symbol_sine_coefficients(A, WeightSpec(t=0.0), 4.0, q_max=40)
    closed = np.array([d_q_cs(q, 4.0) for q in range(1, 41)])
    assert np.abs(trace_route - closed).max() <= 1e-4


def test_sine_coefficients_match_fft_of_symbol_grid():
    t, dim, J, q_max = 0.3, 160, 25.0, 60
    A = angle_matrix(t, dim)
    weight = WeightSpec(t=t)
    n = 4 * dim
    grid = 2.0 * math.pi * np.arange(n) / n
    spectrum = np.fft.rfft(lower_symbols(A, weight, J, grid, warn_leak=False).real) / n
    fft_route = np.arange(1, q_max + 1) * spectrum[1 : q_max + 1].imag
    exact = symbol_sine_coefficients(A, weight, J, q_max)
    assert np.abs(exact - fft_route).max() <= 1e-12


def test_sine_coefficients_vanish_past_truncation():
    A = angle_matrix(0.0, 8)
    coeffs = symbol_sine_coefficients(A, WeightSpec(t=0.0), 2.0, q_max=12)
    assert coeffs.shape == (12,)
    assert np.all(coeffs[7:] == 0.0)
    assert np.all(coeffs[:7] > 0.0)


def test_d_q_series_reduces_to_closed_form_at_zero_temperature():
    for q in (1, 2, 5, 9):
        for J in (0.5, 4.0, 17.0):
            assert d_q_series(q, J, 0.0) == pytest.approx(d_q_cs(q, J), abs=1e-12)


def test_d_q_series_at_positive_temperature():
    # the displayed general-t sum exceeds its stated bound of 1 ...
    assert d_q_series(1, 8.0, 0.3) > 1.0
    # ... and still tends to the t = 0 closed form as t -> 0
    assert d_q_series(3, 5.0, 1e-9) == pytest.approx(d_q_cs(3, 5.0), rel=1e-8)


def test_d_q_series_domain_guards():
    with pytest.raises(DomainError):
        d_q_series(13, 1.0, 0.1)
    with pytest.raises(DomainError):
        d_q_series(2, 25.0, 0.1)
    with pytest.raises(DomainError):
        d_q_series(2, 1.0, 0.7)


# ----------------------------------------------------------- commutator

def test_commutator_entries_at_zero_temperature():
    from anglekit.specfun import ln_gamma

    K = action_angle_commutator(0.0, 12).entries
    for n, npr in ((0, 1), (2, 5), (7, 10)):
        oracle = math.exp(
            ln_gamma((n + npr) / 2.0 + 1.0)
            - 0.5 * (ln_gamma(n + 1.0) + ln_gamma(npr + 1.0))
        )
        assert abs(K[n, npr]) == pytest.approx(oracle, rel=1e-10)
    assert np.abs(K + K.conj().T).max() <= 1e-10


def test_commutator_symbol_is_canonical_at_large_action():
    # the 1e-10 leak threshold fires at J=100, dim=160 (tail ~ 2e-7);
    # harmless at the 0.05 tolerance of this limit
    with pytest.warns(TruncationWarning):
        val = commutator_symbol(PhaseSpacePoint(100.0, 3.0), 0.0, 160)
    assert abs(val - (-1j)) <= 0.05


# ------------------------------------------------------ canonical angle

def test_canonical_angle_zero_cutoff():
    B = canonical_angle_B(16, mode="cyclic", q_cutoff=0)
    assert np.array_equal(B.entries, math.pi * np.eye(16))


def test_canonical_angle_index_build_matches_matmul_powers():
    # reference: U^n by repeated dense products, as the operator is written
    for mode in ("cyclic", "two_sided"):
        for dim in (16, 24):
            U = np.eye(dim, k=-1, dtype=complex)
            if mode == "cyclic":
                U[0, dim - 1] = 1.0
            ref = math.pi * np.eye(dim, dtype=complex)
            Upow = np.eye(dim, dtype=complex)
            Udag_pow = np.eye(dim, dtype=complex)
            for q in range(1, dim + 3):
                Upow = Upow @ U
                Udag_pow = Udag_pow @ U.conj().T
                ref += (1j / q) * (Upow - Udag_pow)
                B = canonical_angle_B(dim, mode=mode, q_cutoff=q)
                assert np.array_equal(B.entries, ref), (mode, dim, q)


def test_sawtooth_fourier_data():
    four = sawtooth_fourier(3)
    assert sorted(four) == [-3, -2, -1, 0, 1, 2, 3]
    assert four[0] == math.pi and four[2] == 0.5j and four[-2] == -0.5j
    # a plain number is a constant coefficient of half-power 0
    quad = QuadratureScheme(n_J=64)
    as_callables = {q: ((lambda J, c=c: c), 0) for q, c in four.items()}
    assert np.array_equal(
        quantize(four, WeightSpec(t=0.25), quad, 16).entries,
        quantize(as_callables, WeightSpec(t=0.25), quad, 16).entries,
    )


def test_canonical_angle_matches_circulant_oracle():
    dim, cutoff = 64, 31
    B = canonical_angle_B(dim, mode="cyclic", q_cutoff=cutoff)
    assert op_norm_max(B - B.H) <= 1e-12
    # circulant oracle: eigenvalue at mode k is pi + 2 sum_n sin(2 pi k n/dim)/n
    ks = np.arange(dim)
    oracle = np.sort(
        [
            math.pi
            + 2.0 * sum(math.sin(2.0 * math.pi * k * n / dim) / n for n in range(1, cutoff + 1))
            for k in ks
        ]
    )
    got = hermitian_eig(B).eigenvalues
    assert np.abs(got - oracle).max() <= 1e-10
    # interior eigenvalues sit near the uniform angle grid; the ends
    # overshoot [0, 2 pi] by the usual truncated-series amount (reported)
    uniform = np.sort((math.pi + 2.0 * math.pi * np.arange(dim) / dim) % (2.0 * math.pi))
    interior = slice(dim // 8, -dim // 8)
    assert np.abs(got[interior] - uniform[interior]).max() <= 0.25


# ------------------------------------------------------ covariance report

def test_covariance_trivial_cases():
    rep = covariance_checks(0.8, 0.0, 2.0 * math.pi, 16)
    assert rep["addition"] <= 1e-12
    assert rep["rotation"] <= 1e-12


def test_covariance_defects_within_contract():
    rep = covariance_checks(0.5, 0.3j, 0.7, 64)
    assert rep["addition"] <= 1e-8
    assert rep["rotation"] <= 1e-7
    assert rep["parity"] <= 1e-12
    assert rep["translation"] <= 1e-7
