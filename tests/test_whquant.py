import math
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import roots_genlaguerre

from anglekit import circlecs, linalg, whquant
from anglekit.errors import DomainError, QuadratureWarning, TruncationWarning
from anglekit.linalg import from_matrix, hermitian_eig, op_norm_max
from anglekit.specfun import ln_gamma, sawtooth_fourier
from anglekit.whquant import (
    QuadratureScheme,
    WeightSpec,
    angle_matrix,
    canonical_angle_B,
    coherent_state,
    covariance_checks,
    d_q_cs,
    d_q_series,
    displacement_laguerre,
    f_coefficient,
    lower_symbols,
    quantize,
    symbol_sine_coefficients,
)

GAMMA_3_2 = math.gamma(1.5)


# ------------------------------------------------------ weights & maps

def test_weight_validation():
    with pytest.raises(DomainError):
        WeightSpec(t=1.0)
    with pytest.raises(DomainError):
        WeightSpec(diag=(0.4, 0.4))
    with pytest.raises(DomainError, match="does not read t"):
        WeightSpec(t=0.3, diag=(1.0,))
    w = WeightSpec(diag=(0.25, 0.75))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(w.diagonal(4), [0.25, 0.75, 0.0, 0.0])


def test_density_diagonal_truncation_warns():
    # the diagonal only cuts; the map and the symbols judge what the cut drops
    w = WeightSpec(diag=(0.25,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = w.diagonal(2)
    assert np.array_equal(d, [0.25, 0.25])
    with pytest.warns(TruncationWarning, match=r"weight leaks mass 5\.000e-01 past dim=2"):
        quantize({0: 1.0}, w, QuadratureScheme(), 2)
    with pytest.warns(TruncationWarning, match=r"5\.000e-01 past dim=2"):
        lower_symbols(from_matrix(np.eye(2)), w, 0.0, [0.0])


def test_quantize_warns_with_the_mass_the_weight_loses():
    # the map of the constant 1 is the kept mass 1 - t^dim times the identity
    dim, t = 64, 0.99
    with pytest.warns(TruncationWarning) as record:
        A = quantize({0: 1.0}, WeightSpec(t=t), QuadratureScheme(96), dim)
    assert [(str(w.message), w.filename) for w in record] == [
        (f"weight leaks mass 5.256e-01 past dim={dim}", __file__)
    ]
    kept = WeightSpec(t=t).diagonal(dim).sum()
    assert np.abs(A.entries - kept * np.eye(dim)).max() <= 1e-14


# --------------------------------------------------------- displacement

def test_displacement_vacuum_amplitude():
    D = displacement_laguerre(1.0, 16).entries
    assert D[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_displacement_at_zero_is_identity():
    D = displacement_laguerre(0.0, 8).entries
    assert np.array_equal(D, np.eye(8))


def test_radial_fill_at_zero_radius_is_warning_free():
    # 0 log 0 = 0 must come without a divide-by-zero or invalid-value warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = whquant._radial_fill([0.0, 1e-3], 24)
        D = displacement_laguerre(0, 16).entries
    assert np.array_equal(F[0], np.eye(24))
    assert np.array_equal(D, np.eye(16))


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
        [np.sqrt(QuadratureScheme(n_J=96).radial_rule(alpha)[0]) for alpha in (0.0, 0.5)] + [[1e-3]]
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
    rho0 = WeightSpec(t=0.0).diagonal(8)
    assert rho0[0] == 1.0 and np.abs(rho0).sum() == 1.0
    diag = WeightSpec(t=0.5).diagonal(32)
    assert np.allclose(diag[:3], [0.5, 0.25, 0.125])
    assert diag.sum() == pytest.approx(1.0 - 2.0 ** -32, rel=1e-14)
    assert np.all(np.diff(diag) < 0.0)


# ---------------------------------------------------------- quantization

@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_radial_weights_positive_at_node_cap(alpha):
    # quantize reads every node of the rule, so none may underflow or overflow at the cap
    J, log_w = QuadratureScheme(n_J=160).radial_rule(alpha)
    w = np.exp(log_w)
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    scaled = np.exp(log_w + J - alpha * np.log(J))
    assert np.all(np.isfinite(scaled)) and np.all(scaled > 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("n_J", [8, 24, 96, 144, 160])
def test_radial_rule_matches_scipy_oracle(n_J, alpha):
    # Against 40-digit Newton/Christoffel references the in-house rule is
    # off by <= 2.5e-13 relative in its nodes and <= 2.8e-13 in its log
    # weights at n_J <= 160; scipy's nodes are off by ~1e-16 and its log
    # weights by up to 2.5e-12.  The bounds leave 4x over the worst gap
    # seen between the two (2.5e-13 and 2.5e-12, both at n_J = 160).
    J, log_w = QuadratureScheme(n_J=n_J).radial_rule(alpha)
    ref_J, ref_w = roots_genlaguerre(n_J, alpha)
    assert np.all(np.diff(J) > 0.0)
    assert np.abs(J / ref_J - 1.0).max() <= 1e-12
    scaled = np.exp(log_w + J - alpha * np.log(J))  # what quantize reads
    ref_scaled = ref_w * np.exp(ref_J) * ref_J**-alpha
    assert np.abs(scaled / ref_scaled - 1.0).max() <= 1e-11


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
    # the weight is measured once per call, not once per rule
    quad = QuadratureScheme(n_J=8)
    with pytest.warns((QuadratureWarning, TruncationWarning)) as record:
        quantize(
            sawtooth_fourier(3),
            WeightSpec(t=0.5),
            quad,
            24,
            check_resolution=True,
        )
    assert [w.category for w in record] == [TruncationWarning, QuadratureWarning]
    assert "5.960e-08" in str(record[0].message)  # t^24


def test_refinement_at_node_cap_is_an_error():
    # at the cap the refined rule would be the rule itself and could never warn
    assert QuadratureScheme(n_J=107).refined().n_J == 160
    with pytest.raises(DomainError, match="cap"):
        QuadratureScheme(n_J=160).refined()
    with pytest.raises(DomainError, match="cap"):
        quantize({0: 1.0}, WeightSpec(), QuadratureScheme(n_J=160), 8, check_resolution=True)


def test_quantized_sawtooth_is_angle_matrix_over_one_minus_t():
    # f_coefficient: at t > 0 the map's off-diagonals are angle_matrix(t)/(1-t)
    quad = QuadratureScheme(n_J=96)
    off = ~np.eye(12, dtype=bool)
    for t in (0.25, 0.5):
        lost = pytest.warns(TruncationWarning, match=r"5\.960e-08") if t == 0.5 else nullcontext()
        with lost:  # t^24
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


@pytest.mark.parametrize("t", [0.0, 0.3, 0.75, 0.99])
@pytest.mark.parametrize("dim", [1, 2, 3, 65, 256])
def test_angle_grid_matches_scalar_oracle(dim, t):
    A = angle_matrix(t, dim)
    assert np.array_equal(A.entries, A.H.entries)
    assert np.array_equal(np.diag(A.entries), np.full(dim, math.pi + 0j))
    worst = 0.0
    for n in range(dim):
        for npr in range(n + 1, dim):
            scalar = 1j * f_coefficient(n, npr, t) / (npr - n)
            worst = max(worst, abs(A.entries[n, npr] - scalar) / abs(scalar))
    assert worst <= 1e-13


@pytest.mark.parametrize("t", [-0.1, 1.0])
@pytest.mark.parametrize("dim", [1, 2, 48])
def test_angle_matrix_rejects_t_outside_unit_interval(dim, t):
    with pytest.raises(DomainError):
        angle_matrix(t, dim)


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
    with pytest.warns(TruncationWarning):  # Poisson tail ~4e-3 past dim 128
        val = lower_symbols(A, WeightSpec(t=0.0), 100.0, [2.0])[0]
    assert abs(val.real - 2.0) <= 0.05


def test_symbol_general_weight_is_real_for_hermitian():
    A = angle_matrix(0.5, 48)
    with pytest.warns(TruncationWarning, match=r"1\.165e-09"):  # t^48 and rows past dim 48
        val = lower_symbols(A, WeightSpec(t=0.5), 3.0, [2.2])[0]
    assert abs(val.imag) <= 1e-9


def test_symbol_warns_on_truncation_leak():
    A = from_matrix(np.eye(24))
    with pytest.warns(TruncationWarning):
        lower_symbols(A, WeightSpec(t=0.0), 40.0, [1.0])


def test_symbol_warning_gives_the_mass_the_state_loses():
    # the symbol of the identity is the kept mass; the oracle displaces the
    # thermal weight on 200 rows by the matrix exponential of z a+ - z a-
    dim, J, t = 64, 5.0, 0.9
    with pytest.warns(TruncationWarning) as record:
        kept = lower_symbols(from_matrix(np.eye(dim)), WeightSpec(t=t), J, [0.0])[0].real
    assert [str(w.message) for w in record] == [f"state at J={J} leaks mass 8.765e-03 past dim={dim}"]
    assert f"{1.0 - kept:.3e}" == "8.765e-03"
    a_plus = np.diag(np.sqrt(np.arange(1.0, 200)), -1)
    D = expm(math.sqrt(J) * (a_plus - a_plus.T))[:dim, :dim]
    assert abs(kept - ((D * D) @ ((1 - t) * t ** np.arange(dim))).sum()) <= 1e-13


def test_both_symbol_paths_warn_once_at_the_caller_with_the_mass():
    A = angle_matrix(0.0, 8)
    for call in (lambda: lower_symbols(A, WeightSpec(), 2.0, [0.0, 1.0]),
                 lambda: symbol_sine_coefficients(A, WeightSpec(), 2.0, 3)):
        with pytest.warns(TruncationWarning) as record:
            call()
        assert [(str(w.message), w.filename) for w in record] == [
            ("state at J=2.0 leaks mass 1.097e-03 past dim=8", __file__)
        ]


def test_symbol_grid_matches_direct_trace():
    dim = 64
    gammas = 2.0 * math.pi * np.arange(32) / 32
    for t in (0.0, 0.3, 0.5):
        A = angle_matrix(t, dim)
        weight = WeightSpec(t=t)
        rho = weight.diagonal(dim)
        if t < 0.5:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = lower_symbols(A, weight, 9.0, gammas)
        else:  # t^64 and the rows past dim 64 lose 4.2e-9
            with pytest.warns(TruncationWarning, match=r"4\.238e-09") as record:
                grid = lower_symbols(A, weight, 9.0, gammas)
            assert len(record) == 1
        for gamma, val in zip(gammas, grid):
            Dz = displacement_laguerre(3.0 * complex(math.cos(gamma), math.sin(gamma)), dim).entries
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
    spectrum = np.fft.rfft(lower_symbols(A, weight, J, grid).real) / n
    fft_route = np.arange(1, q_max + 1) * spectrum[1 : q_max + 1].imag
    exact = symbol_sine_coefficients(A, weight, J, q_max)
    assert np.abs(exact - fft_route).max() <= 1e-12


def test_sine_coefficients_vanish_past_truncation():
    A = angle_matrix(0.0, 8)
    with pytest.warns(TruncationWarning, match=r"1\.097e-03"):  # rows past dim 8
        coeffs = symbol_sine_coefficients(A, WeightSpec(t=0.0), 2.0, q_max=12)
    assert coeffs.shape == (12,)
    assert np.all(coeffs[7:] == 0.0)
    assert np.all(coeffs[:7] > 0.0)


def test_d_q_series_reduces_to_closed_form_at_zero_temperature():
    for q in (1, 2, 5, 9):
        for J in (0.5, 4.0, 17.0):
            assert d_q_series(q, J, 0.0) == pytest.approx(d_q_cs(q, J), abs=1e-12)


def test_d_q_series_at_positive_temperature():
    # the corrected series is the trace route's sine coefficient; at (q, J, t) =
    # (1, 2, 0.5) a stop on one small term of the last partial sum misses by 1.7e-2
    for t in (0.1, 0.3, 0.5):
        ref = symbol_sine_coefficients(angle_matrix(t, 160), WeightSpec(t=t), 2.0, 8)
        for q in (1, 4, 8):
            assert d_q_series(q, 2.0, t) == pytest.approx(ref[q - 1], rel=1e-12)
    ref = symbol_sine_coefficients(angle_matrix(0.3, 160), WeightSpec(t=0.3), 8.0, 1)
    assert d_q_series(1, 8.0, 0.3) == pytest.approx(ref[0], rel=1e-12)
    # ... and it tends to the t = 0 closed form as t -> 0
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

    K = linalg.commutator(angle_matrix(0.0, 12), from_matrix(np.diag(np.arange(12) + 1.0))).entries
    for n, npr in ((0, 1), (2, 5), (7, 10)):
        oracle = math.exp(
            ln_gamma((n + npr) / 2.0 + 1.0)
            - 0.5 * (ln_gamma(n + 1.0) + ln_gamma(npr + 1.0))
        )
        assert abs(K[n, npr]) == pytest.approx(oracle, rel=1e-10)
    assert np.abs(K + K.conj().T).max() <= 1e-10


def test_symbol_of_the_commutator_is_canonical_at_large_action():
    # the symbol of [A_angle, N + 1]; the 1e-10 leak threshold fires at
    # J=100, dim=160 (tail ~ 2e-8), harmless at the 0.05 tolerance of this limit
    K = linalg.commutator(angle_matrix(0.0, 160), from_matrix(np.diag(np.arange(160) + 1.0)))
    with pytest.warns(TruncationWarning):
        val = lower_symbols(K, WeightSpec(t=0.0), 100.0, [3.0])[0]
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


@pytest.mark.parametrize("dim", [64, 65])
def test_canonical_angle_shares_the_circle_two_sided_basis(dim):
    # every two-sided basis in the package starts at -dim // 2, odd dims included
    basis = linalg.BasisSpec("two_sided", dim, -dim // 2)
    circle = circlecs.quantize_cyl(
        circlecs.gaussian_distribution(1.0), basis, sawtooth_fourier(dim - 1)
    )
    diff = canonical_angle_B(dim, mode="two_sided", q_cutoff=dim - 1) - circle
    assert diff.basis == basis
    assert op_norm_max(diff - diff.H) <= 1e-12


def test_sawtooth_fourier_data():
    four = sawtooth_fourier(3)
    assert sorted(four) == [-3, -2, -1, 0, 1, 2, 3]
    assert four[0] == math.pi and four[2] == 0.5j and four[-2] == -0.5j
    # a plain number is a constant coefficient of half-power 0
    quad = QuadratureScheme(n_J=64)
    as_callables = {q: ((lambda J, c=c: c), 0) for q, c in four.items()}
    with pytest.warns(TruncationWarning, match=r"2\.328e-10") as record:  # t^16, once per call
        assert np.array_equal(
            quantize(four, WeightSpec(t=0.25), quad, 16).entries,
            quantize(as_callables, WeightSpec(t=0.25), quad, 16).entries,
        )
    assert len(record) == 2


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


def test_quantize_maps_z_bar_to_the_adjoint_exactly():
    # diagonals q and -q come from the same products in swapped order, so
    # the quantized z-bar is the adjoint of the quantized z to the bit
    quad = QuadratureScheme()
    for t in (0.0, 0.3):
        w = WeightSpec(t=t)
        lost = pytest.warns(TruncationWarning, match=r"4\.305e-09") if t else nullcontext()
        with lost:  # t^16
            z = quantize({1: ((lambda J: 1.0), 1)}, w, quad, 16)
            z_bar = quantize({-1: ((lambda J: 1.0), 1)}, w, quad, 16)
        assert np.array_equal(z_bar.entries, z.H.entries)


def test_quantize_rejects_non_integer_mode():
    with pytest.raises(DomainError, match="not an integer"):
        quantize({1.7: 1.0}, WeightSpec(), QuadratureScheme(), 6)
    # integral keys, numpy integers included, keep their meaning
    quad = QuadratureScheme()
    assert np.array_equal(quantize({np.int64(1): 1.0, -2.0: 0.5}, WeightSpec(), quad, 6).entries,
                          quantize({1: 1.0, -2: 0.5}, WeightSpec(), quad, 6).entries)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: WeightSpec(diag=(1.5, -0.5)),
                 "must be nonnegative", id="negative-diag"),
    pytest.param(lambda: WeightSpec(diag=(math.nan, 1.0)),
                 "must be finite", id="nan-diag"),
    pytest.param(lambda: QuadratureScheme(n_J=8.5),
                 "n_J must be an integer", id="n_J-8.5"),
    pytest.param(lambda: QuadratureScheme(n_J=7),
                 "n_J >= 8", id="n_J-7"),
    pytest.param(lambda: QuadratureScheme(n_J=161),
                 "beyond 160", id="n_J-161"),
    pytest.param(lambda: displacement_laguerre(0.5, 1),
                 "dim >= 2", id="displacement-dim-1"),
    pytest.param(lambda: coherent_state(0.5, 1),
                 "dim >= 2", id="coherent-dim-1"),
    pytest.param(lambda: displacement_laguerre(0.5, 8.0),
                 "dim must be an integer", id="displacement-dim-8.0"),
    pytest.param(lambda: coherent_state(0.5, 8.0),
                 "dim must be an integer", id="coherent-dim-8.0"),
    pytest.param(lambda: coherent_state(math.nan, 4),
                 "z must be finite", id="coherent-nan-z"),
    pytest.param(lambda: quantize({1: ((lambda J: 1.0), 2)}, WeightSpec(), QuadratureScheme(), 8),
                 "half_power must be 0 or 1", id="half-power-2"),
    pytest.param(lambda: f_coefficient(0, 1, 1.0),
                 r"t must lie in \[0, 1\)", id="f-t-1"),
    pytest.param(lambda: f_coefficient(-1, 2, 0.0),
                 "indices must be nonnegative", id="f-negative-index"),
    pytest.param(lambda: lower_symbols(angle_matrix(0.0, 8), WeightSpec(), -1.0, [0.0]),
                 "J must be nonnegative", id="lower-symbols-negative-J"),
    pytest.param(lambda: lower_symbols(angle_matrix(0.0, 8), WeightSpec(), math.nan, [0.0]),
                 "J must be nonnegative and finite", id="lower-symbols-nan-J"),
    pytest.param(lambda: lower_symbols(angle_matrix(0.0, 8), WeightSpec(), math.inf, [0.0]),
                 "J must be nonnegative and finite", id="lower-symbols-inf-J"),
    pytest.param(lambda: lower_symbols(canonical_angle_B(64, "cyclic", 31), WeightSpec(), 5.0,
                                       [1.0]),
                 "one_sided", id="lower-symbols-cyclic-basis"),
    pytest.param(lambda: symbol_sine_coefficients(canonical_angle_B(16, "two_sided"),
                                                  WeightSpec(), 5.0, 3),
                 "one_sided", id="sine-coefficients-two-sided-basis"),
    pytest.param(lambda: d_q_cs(0, 1.0),
                 "positive integer", id="d_q_cs-q-0"),
    pytest.param(lambda: d_q_cs(2.5, 1.0),
                 "positive integer", id="d_q_cs-q-2.5"),
    pytest.param(lambda: d_q_series(2.5, 1.0, 0.1),
                 "supports integers", id="d_q_series-q-2.5"),
    pytest.param(lambda: d_q_cs(1, -1.0),
                 "J must be nonnegative", id="d_q_cs-negative-J"),
    pytest.param(lambda: d_q_cs(1, math.nan),
                 "J must be nonnegative and finite", id="d_q_cs-nan-J"),
    pytest.param(lambda: canonical_angle_B(8, mode="one_sided"),
                 "cyclic or two_sided", id="canonical-one-sided"),
    pytest.param(lambda: canonical_angle_B(3),
                 "dim >= 4", id="canonical-dim-3"),
    pytest.param(lambda: canonical_angle_B(8, q_cutoff=-3),
                 "q_cutoff must be nonnegative", id="canonical-negative-cutoff"),
    pytest.param(lambda: canonical_angle_B(16, "cyclic", 2.5),
                 "q_cutoff must be nonnegative and integral", id="canonical-cutoff-2.5"),
    pytest.param(lambda: covariance_checks(0.1, 0.2, 0.3, 7),
                 "dim >= 8", id="covariance-dim-7"),
])
def test_rejects_inputs_outside_the_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()
