import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import specfun
from anglekit.circlecs import gaussian_distribution
from anglekit.errors import ConvergenceError, DomainError
from anglekit.specfun import (
    arccos_coefficient,
    assoc_laguerre,
    gauss_2f1_terminating,
    kummer_1f1,
    ln_gamma,
    theta3_normalizer,
)


# ------------------------------------------------------------- oracles

def pochhammer_frac(a, k):
    """Exact rising factorial over the rationals."""
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def gauss_2f1_frac(n, b, c, x):
    """Exact terminating 2F1 with rational parameters.

    Stops once the numerator Pochhammer vanishes; every later term
    carries the same zero factor.
    """
    term = total = Fraction(1)
    for k in range(n):
        num = (k - n) * (b + k)
        if num == 0:
            break
        term *= num / ((c + k) * (k + 1)) * x
        total += term
    return total


def laguerre_frac(n, alpha, x):
    """Exact monomial expansion sum_k (-1)^k binom(n+alpha, n-k) x^k / k!."""
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(1)
        for j in range(n - k):
            binom *= (alpha + k + 1 + j)
        binom /= math.factorial(n - k)
        total += (-1) ** k * binom * x ** k / math.factorial(k)
    return total


# ------------------------------------------------------------ ln_gamma

def test_ln_gamma_at_one_is_zero():
    assert abs(ln_gamma(1.0)) < 1e-14


def test_ln_gamma_half():
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)


def test_ln_gamma_eleven_factorial_oracle():
    oracle = math.fsum(math.log(k) for k in range(1, 11))  # ln(10!)
    assert oracle == pytest.approx(15.104412573075516, rel=1e-14)
    assert ln_gamma(11.0) == pytest.approx(oracle, rel=1e-13)


@given(st.floats(min_value=1e-3, max_value=500.0))
def test_ln_gamma_matches_libm(x):
    assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.2)


def test_gamma_ratio_never_exceeds_one():
    worst = max(
        math.exp(
            ln_gamma((n + npr) / 2.0 + 1.0)
            - 0.5 * (ln_gamma(n + 1.0) + ln_gamma(npr + 1.0))
        )
        for n in range(0, 201, 5)
        for npr in range(n, 201, 5)
    )
    assert worst <= 1.0 + 1e-12


# ----------------------------------------------------- terminating 2F1

def test_2f1_zero_order_is_one():
    assert gauss_2f1_terminating(0, 2.7, -1.3, 0.9) == 1.0


def test_2f1_two_term_sum():
    assert gauss_2f1_terminating(-1, 2.0, 4.0, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_2f1_four_term_rational_oracle():
    exact = gauss_2f1_frac(3, Fraction(1, 2), Fraction(-5, 2), Fraction(1, 5))
    assert exact == Fraction(144, 125)
    val = gauss_2f1_terminating(-3, 0.5, -2.5, 0.2)
    assert val == pytest.approx(float(exact), rel=1e-14)


def test_2f1_gauss_summation_at_unit_argument():
    n, b, c = 4, 1.25, 8.5
    lhs = gauss_2f1_terminating(-n, b, c, 1.0)
    rhs = math.exp(
        ln_gamma(c) + ln_gamma(c + n - b) - ln_gamma(c + n) - ln_gamma(c - b)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_2f1_denominator_degeneracy_raises():
    # c a nonpositive integer reached before the numerator terminates
    with pytest.raises(DomainError):
        gauss_2f1_terminating(-6, 0.7, -3.0, 0.25)


def test_2f1_numerator_zero_stops_before_denominator_pole():
    # b hits zero first, so the sum terminates cleanly (the swapped-order
    # angle coefficient relies on exactly this)
    val = gauss_2f1_terminating(-9, (3 - 9) / 2.0, -(3 + 9) / 2.0, 0.4)
    oracle = gauss_2f1_frac(9, Fraction(-3), Fraction(-6), Fraction(2, 5))
    assert val == pytest.approx(float(oracle), rel=1e-12)


@pytest.mark.parametrize("t", [0.9, 0.99])
def test_2f1_angle_coefficient_sums_near_unit_argument(t):
    # 2F1(-n, s/2; -(2n+s)/2; t) of f_coefficient, whose terms grow large
    # and cancel near t = 1
    worst = 0.0
    for n in (40, 128, 255):
        for sep in (1, 2, 30, 64):
            b, c = Fraction(sep, 2), Fraction(-(2 * n + sep), 2)
            exact = float(gauss_2f1_frac(n, b, c, Fraction(t)))
            val = gauss_2f1_terminating(-n, sep / 2.0, -(2 * n + sep) / 2.0, t)
            worst = max(worst, abs(val - exact) / abs(exact))
    assert worst <= 1e-14


# -------------------------------------------------------------- 1F1

def test_1f1_at_zero():
    assert kummer_1f1(3.7, 1.9, 0.0) == 1.0


def test_1f1_exponential_identity():
    assert kummer_1f1(1.0, 1.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)


def test_1f1_fifty_term_rational_oracle():
    a, b, x = Fraction(2), Fraction(3), Fraction(3, 2)
    total = Fraction(0)
    for k in range(50):
        total += pochhammer_frac(a, k) * x ** k / (pochhammer_frac(b, k) * math.factorial(k))
    assert kummer_1f1(2.0, 3.0, 1.5) == pytest.approx(float(total), rel=1e-12)


def test_1f1_rejects_nonpositive_integer_b():
    with pytest.raises(DomainError):
        kummer_1f1(1.0, -2.0, 0.5)


def test_1f1_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(specfun, "KUMMER_MAX_TERMS", 10)
    with pytest.raises(ConvergenceError):
        kummer_1f1(5.0, 2.0, 250.0)


# ----------------------------------------------------------- Laguerre

def test_laguerre_order_zero_and_one():
    assert assoc_laguerre(0, 4.2, 1.3) == 1.0
    assert assoc_laguerre(1, 4.2, 1.3) == pytest.approx(1.0 + 4.2 - 1.3, abs=1e-15)


def test_laguerre_rational_oracle():
    exact = laguerre_frac(5, Fraction(2), Fraction(37, 10))
    assert assoc_laguerre(5, 2.0, 3.7) == pytest.approx(float(exact), rel=1e-12)


def test_laguerre_negative_alpha_rational_oracle():
    # the factored route for alpha = -k, n >= k must match the monomials
    for n, alpha in ((5, -2), (9, -9), (12, -4)):
        exact = laguerre_frac(n, Fraction(alpha), Fraction(1, 10))
        assert assoc_laguerre(n, float(alpha), 0.1) == pytest.approx(
            float(exact), rel=1e-12, abs=1e-18
        )


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.sampled_from([0.1, 1.0, 5.0]),
)
def test_laguerre_reflection_identity(n, m, t):
    lhs = math.factorial(n) * assoc_laguerre(n, m - n, t)
    rhs = math.factorial(m) * (-t) ** (n - m) * assoc_laguerre(m, n - m, t)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    assert abs(lhs - rhs) / scale < 1e-10


# -------------------------------------------------------------- theta
# the direct lattice sum is the Gaussian density's own normalizer


def test_theta_large_sigma_flattens_to_one():
    for sigma in (4.0, 7.0, 12.0):
        dist = gaussian_distribution(sigma)
        for J in (0.0, 0.37, 0.5):
            assert dist.normalizer(J) == pytest.approx(1.0, abs=1e-10)


def test_theta_small_sigma_dirac_comb_gap():
    assert gaussian_distribution(0.05).normalizer(0.5) < 1e-15


def test_theta_forms_agree_at_origin():
    d = gaussian_distribution(1.0).normalizer(0.0)
    p = theta3_normalizer(0.0, 1.0)
    assert d == pytest.approx(p, abs=1e-12)


@given(
    st.floats(min_value=0.2, max_value=10.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_theta_poisson_duality(sigma, J):
    d = gaussian_distribution(sigma).normalizer(J)
    p = theta3_normalizer(J, sigma)
    assert abs(d - p) < 1e-11


# ------------------------------------------------- ArcCos coefficients

def test_arccos_coefficient_first_values():
    assert arccos_coefficient(0) == 1.0
    assert arccos_coefficient(1) == pytest.approx(Fraction(2, 12), rel=1e-14)
    # hand expansion: 4!/(2^4 (2!)^2 5) = 24/320
    assert arccos_coefficient(2) == pytest.approx(24.0 / 320.0, rel=1e-14)


def test_arccos_partial_sums_climb_to_half_pi():
    partials = []
    total = 0.0
    for n in range(20000):
        total += arccos_coefficient(n)
        if n in (10, 100, 1000, 19999):
            partials.append(total)
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert all(p < math.pi / 2.0 for p in partials)
    # tail of the series at z = 1 scales like 1/sqrt(N)
    assert math.pi / 2.0 - partials[-1] < 2.0 / math.sqrt(20000)


# ----------------------------------------------------- input rejection

@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gauss_2f1_terminating(-0.5, 1.0, 1.0, 0.5),
                 "nonpositive integer", id="2f1-half-integer-a"),
    pytest.param(lambda: gauss_2f1_terminating(2, 1.0, 1.0, 0.5),
                 "nonpositive integer", id="2f1-positive-a"),
    pytest.param(lambda: kummer_1f1(1.0, 1.0, -0.5),
                 "x >= 0", id="1f1-negative-x"),
    pytest.param(lambda: assoc_laguerre(-1, 0.0, 0.5),
                 "n >= 0", id="laguerre-negative-n"),
    pytest.param(lambda: theta3_normalizer(0.3, 0.0),
                 "sigma must be positive", id="theta3-zero-sigma"),
    pytest.param(lambda: theta3_normalizer(math.nan, 1.0),
                 "J must be finite", id="theta3-nan-J"),
    pytest.param(lambda: arccos_coefficient(-1),
                 "n >= 0", id="arccos-negative-n"),
])
def test_rejects_inputs_outside_the_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()
