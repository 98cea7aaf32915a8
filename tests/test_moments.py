import math
from fractions import Fraction

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
    seq = integer_sequence()
    assert all(
        half_factorial_bound_check(seq, n1, n2)
        for n1 in range(0, 201, 3)
        for n2 in range(0, 201, 3)
    )


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_half_factorial_bound_random_pairs(n1, n2):
    assert half_factorial_bound_check(integer_sequence(), n1, n2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FactorialSequence(x=lambda n: float(n), log_factorial=lambda nu: 1.0,
                                           radius=math.inf),
                 r"log_factorial\(0\)", id="log-factorial-at-0"),
    pytest.param(lambda: generalized_exp(integer_sequence(), -0.5),
                 "t must be nonnegative", id="exp-negative-t"),
    pytest.param(lambda: s_k(integer_sequence(), -1, 0.5),
                 "k must be nonnegative", id="s_k-negative-k"),
    pytest.param(lambda: s_k(integer_sequence(), 1, -0.5),
                 "t must be nonnegative", id="s_k-negative-t"),
])
def test_rejects_inputs_outside_the_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()
