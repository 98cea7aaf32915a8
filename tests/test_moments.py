import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.errors import DomainError
from anglekit.moments import (
    FactorialSequence,
    generalized_exp,
    half_factorial_bound_check,
    integer_sequence,
    s_k,
)
from anglekit.specfun import ln_gamma


def test_sequence_validation():
    with pytest.raises(DomainError):
        FactorialSequence(x=lambda n: n + 1.0, log_factorial=lambda nu: 0.0, radius=1.0)
    with pytest.raises(DomainError):
        FactorialSequence(x=lambda n: -float(n), log_factorial=lambda nu: 0.0, radius=1.0)


def test_generalized_exp_is_exponential_for_integers():
    seq = integer_sequence()
    assert generalized_exp(seq, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert generalized_exp(seq, 0.0) == 1.0
    assert generalized_exp(seq, 5.0) == pytest.approx(math.exp(5.0), rel=1e-12)


def test_generalized_exp_respects_radius():
    bounded = FactorialSequence(
        x=lambda n: n / (n + 1.0) if n else 0.0,
        log_factorial=lambda nu: sum(
            math.log(k / (k + 1.0)) for k in range(1, int(nu) + 1)
        ),
        radius=1.0,
    )
    with pytest.raises(DomainError):
        generalized_exp(bounded, 1.0)


def test_s_k_sixty_term_rational_oracle():
    # x_n = n, k = 2, t = 1: sum_n (n+1)!/(n! (n+2)!) = sum (n+1)/(n+2)!
    oracle = sum(Fraction(n + 1, math.factorial(n + 2)) for n in range(60))
    seq = integer_sequence()
    value = s_k(seq, 2, 1.0)
    assert value == pytest.approx(float(oracle), rel=1e-12)
    assert value <= generalized_exp(seq, 1.0)
    # the telescoping limit of the series is exactly 1
    assert value == pytest.approx(1.0, abs=1e-12)


def test_s_k_base_cases():
    seq = integer_sequence()
    assert s_k(seq, 3, 0.0) == 0.0
    assert s_k(seq, 0, 0.0) == 1.0


@given(
    st.integers(min_value=0, max_value=10),
    st.sampled_from([0.1, 1.0, 5.0, 10.0]),
)
def test_s_k_never_exceeds_generalized_exp(k, t):
    seq = integer_sequence()
    assert s_k(seq, k, t) <= generalized_exp(seq, t) * (1.0 + 1e-13)


def test_half_factorial_bound_dense_integer_grid():
    n1, n2 = np.meshgrid(np.arange(0, 201, 3), np.arange(0, 201, 3))
    assert half_factorial_bound_check(integer_sequence(), n1, n2).all()


def test_half_factorial_bound_table_matches_scalar_formula():
    # the table read against three direct log_factorial reads per pair, on
    # every pair n1, n2 <= 300; the bumped interpolation fails at odd n1 + n2
    bumped = FactorialSequence(
        x=lambda n: float(n),
        log_factorial=lambda nu: ln_gamma(nu + 1.0) + 5.0 * math.sin(math.pi * nu) ** 2,
        radius=math.inf,
    )
    n1, n2 = np.meshgrid(np.arange(301), np.arange(301), indexing="ij")
    for seq in (integer_sequence(), bumped):
        lf = seq.log_factorial

        def scalar(a, b):
            rhs = 0.5 * (lf(float(a)) + lf(float(b)))
            return lf((a + b) / 2.0) <= rhs + 1e-12 * max(1.0, abs(rhs))

        expected = [[scalar(a, b) for b in range(301)] for a in range(301)]
        assert np.array_equal(half_factorial_bound_check(seq, n1, n2), expected)
    assert not half_factorial_bound_check(bumped, 0, 1)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_half_factorial_bound_random_pairs(n1, n2):
    assert half_factorial_bound_check(integer_sequence(), n1, n2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FactorialSequence(x=lambda n: float(n), log_factorial=lambda nu: 1.0,
                                           radius=math.inf),
                 r"log_factorial\(0\)", id="log-factorial-at-0"),
    pytest.param(lambda: FactorialSequence(x=lambda n: 2.0 * n,
                                           log_factorial=lambda nu: ln_gamma(nu + 1.0),
                                           radius=math.inf),
                 "must equal log x_n", id="log-factorial-ignores-x"),
    pytest.param(lambda: half_factorial_bound_check(integer_sequence(), [1, -2], [3, 4]),
                 "nonnegative integers", id="bound-negative-index"),
    pytest.param(lambda: half_factorial_bound_check(integer_sequence(), 1.5, 2),
                 "nonnegative integers", id="bound-half-index"),
    pytest.param(lambda: generalized_exp(integer_sequence(), -0.5),
                 "t must be nonnegative", id="exp-negative-t"),
    pytest.param(lambda: s_k(integer_sequence(), -1, 0.5),
                 "k must be nonnegative", id="s_k-negative-k"),
    pytest.param(lambda: s_k(integer_sequence(), 1, -0.5),
                 "t must be nonnegative", id="s_k-negative-t"),
    pytest.param(lambda: generalized_exp(integer_sequence(), math.nan),
                 "t must be finite", id="exp-nan-t"),
    pytest.param(lambda: generalized_exp(integer_sequence(), math.inf),
                 "t must be finite", id="exp-inf-t"),
    pytest.param(lambda: s_k(integer_sequence(), 2, math.nan),
                 "t must be finite", id="s_k-nan-t"),
    pytest.param(lambda: s_k(integer_sequence(), 1.5, 1.0),
                 "k must be nonnegative and integral", id="s_k-k-1.5"),
    pytest.param(lambda: s_k(integer_sequence(), 2.0, 1.0),
                 "k must be nonnegative and integral", id="s_k-k-2.0"),
])
def test_rejects_inputs_outside_the_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()
