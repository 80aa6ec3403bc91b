import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmann.sequences import (
    builtin_example_schedule,
    builtin_linear_schedule,
    ceil_reciprocal,
    oracle_cauchy_modulus,
    oracle_convergence_rate,
    oracle_product_rate,
    psi0,
    schedule_from_tables,
    validate_schedule_moduli,
)


def test_example_schedule_values():
    sch = builtin_example_schedule(0.5)
    assert sch.beta(0) == 0.0
    assert sch.beta(1) == pytest.approx(0.5)
    assert sch.beta(2) == pytest.approx(2.0 / 3.0)
    assert sch.lam(17) == 0.5
    assert sch.gamma(0) == 2.0
    assert (sch.Lambda_cap, sch.N_Lambda, sch.Gamma_cap, sch.N_Gamma) == (2, 0, 1, 0)


def test_linear_schedule_values():
    sch = builtin_linear_schedule(0.5)
    assert sch.beta(0) == 0.0
    assert sch.beta(1) == pytest.approx(1.0 / 3.0)
    assert sch.beta(2) == pytest.approx(0.5)
    # successive differences match their closed forms
    for n in range(20):
        assert sch.beta(n + 1) - sch.beta(n) == pytest.approx(2.0 / ((n + 2) * (n + 3)))
        assert abs(sch.gamma(n + 1) - sch.gamma(n)) == pytest.approx(1.0 / ((n + 2) * (n + 3)))


def test_example_product_telescopes():
    sch = builtin_example_schedule(0.5)
    prod = 1.0
    for n in range(30):
        prod *= sch.beta(n + 1)
        assert prod == pytest.approx(1.0 / (n + 2))


def test_example_beta_difference_partial_sums():
    sch = builtin_example_schedule(0.5)
    total = 0.0
    for n in range(30):
        total += abs(sch.beta(n + 1) - sch.beta(n))
        assert total == pytest.approx(1.0 - 1.0 / (n + 2))


def test_linear_product_telescopes():
    sch = builtin_linear_schedule(0.5)
    prod = 1.0
    for n in range(30):
        prod *= sch.beta(n + 1)
        assert prod == pytest.approx(2.0 / ((n + 2) * (n + 3)))


def test_ceil_reciprocal_robust():
    assert ceil_reciprocal(0.5) == 2
    assert ceil_reciprocal(1.0 / 3.0) == 3
    assert ceil_reciprocal(1.0 / 7.0) == 7
    assert ceil_reciprocal(0.4) == 3
    with pytest.raises(ValueError):
        ceil_reciprocal(0.0)


def test_cauchy_oracle_example_series():
    sch = builtin_example_schedule(0.5)
    terms = [abs(sch.beta(i + 1) - sch.beta(i)) for i in range(10_001)]
    table = oracle_cauchy_modulus(terms, k_max=5, horizon=10_000)
    # window-at-n tails are 1/(n+1), so the minimal index at level k is k
    assert table.minimal[3] == 3
    assert table.minimal == (0, 1, 2, 3, 4, 5)
    assert all(table.conclusive)
    assert table.validate(sch.chi_beta).all_pass


def test_cauchy_oracle_trivial_series():
    zero = oracle_cauchy_modulus([0.0] * 101, k_max=4, horizon=100)
    assert zero.minimal == (0, 0, 0, 0, 0)
    geom = oracle_cauchy_modulus([0.5 ** (i + 1) for i in range(101)], k_max=0, horizon=100)
    assert geom.minimal[0] == 0


def test_cauchy_oracle_window_conventions():
    # 1, 0, 0, ... : the window at index 0 sees the spike, the window after
    # index 0 does not
    terms = [1.0] + [0.0] * 100
    at = oracle_cauchy_modulus(terms, k_max=1, horizon=100, include_start=True)
    after = oracle_cauchy_modulus(terms, k_max=1, horizon=100, include_start=False)
    assert at.minimal[1] == 1
    assert after.minimal[1] == 0


def test_cauchy_oracle_rejects_negative_terms():
    with pytest.raises(ValueError):
        oracle_cauchy_modulus([1.0, -0.5], k_max=0, horizon=1)


def test_product_oracle_example_schedule():
    sch = builtin_example_schedule(0.5)
    table = oracle_product_rate(sch.beta, k_max=6, horizon=5000)
    # running product is 1/(N+2): level k is first reached at N = max(k-1, 0)
    assert table.minimal == (0, 0, 1, 2, 3, 4, 5)
    assert table.validate(sch.sigma_beta).all_pass


def test_product_oracle_zero_schedule():
    table = oracle_product_rate(lambda n: 0.0, k_max=3, horizon=100)
    assert table.minimal == (0, 0, 0, 0)


def test_product_oracle_log_space_matches_direct():
    beta = lambda n: 1.0 - 1.0 / (n + 1)
    direct = oracle_product_rate(beta, k_max=8, horizon=9_000)
    logged = oracle_product_rate(beta, k_max=8, horizon=11_000)
    assert direct.minimal == logged.minimal


def test_convergence_oracle_reciprocal_decay():
    values = [1.0 - 1.0 / (n + 1) for n in range(2001)]
    table = oracle_convergence_rate(values, limit=1.0, k_max=5, horizon=2000)
    # |a_n - 1| = 1/(n+1) <= 1/(k+1) exactly from n = k on
    assert table.minimal == (0, 1, 2, 3, 4, 5)
    assert table.validate(lambda k: k).all_pass


def test_psi0_trivial_cases():
    ones = schedule_from_tables(
        "ones", beta=[1.0], lam=[0.5], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )
    assert psi0(ones, lambda k: 5, 0) == 1
    halves = schedule_from_tables(
        "halves", beta=[0.5], lam=[0.5], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )
    assert psi0(halves, lambda k: 2, 7) == 8  # product over 3 factors = 1/8


def test_psi0_minimality_invariant():
    sch = builtin_example_schedule(0.5)
    chi = lambda k: 8 * (k + 1) - 1
    for k in range(6):
        value = psi0(sch, chi, k)
        product = math.prod(sch.beta(n + 1) for n in range(chi(3 * k + 2) + 1))
        assert 1.0 / value <= product
        assert value == 1 or 1.0 / (value - 1) > product


def test_psi0_rejects_zero_factor():
    sch = schedule_from_tables(
        "zero_start", beta=[0.0, 0.0, 1.0], lam=[0.5], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )
    with pytest.raises(ValueError, match="not positive"):
        psi0(sch, lambda k: 2, 0)


def test_psi0_log_space_overflow_path():
    halves = schedule_from_tables(
        "halves", beta=[0.5], lam=[0.5], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )
    upper = 100_000
    value = psi0(halves, lambda k: upper, 0)  # product = 2^-(upper+1)
    assert math.log(value) == pytest.approx((upper + 1) * math.log(2.0), rel=1e-9)


def test_schedule_validation_quick():
    for sch in (builtin_example_schedule(0.5), builtin_linear_schedule(1.0 / 3.0)):
        report = validate_schedule_moduli(sch, k_max=10, horizon=20_000)
        assert report.all_pass, report.summary()


def test_schedule_validation_catches_bad_modulus():
    bad = schedule_from_tables(
        "bad",
        beta=[1.0 - 1.0 / (n + 1) for n in range(2000)],
        lam=[0.5],
        sigma_beta=[0],  # claims the product is below 1/(k+1) immediately: false
        chi_beta=[0],
        chi_lambda=[0],
        sigma=[0],
        Lambda_cap=2,
        N_Lambda=0,
    )
    report = validate_schedule_moduli(bad, k_max=5, horizon=1000)
    assert not report.no_failure


def test_table_schedule_extends_last_entry():
    sch = schedule_from_tables(
        "tbl", beta=[0.0, 0.25, 0.5], lam=[0.5], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )
    assert sch.beta(2) == 0.5
    assert sch.beta(100) == 0.5
    assert sch.lam(100) == 0.5


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(st.floats(min_value=0.0, max_value=0.3, allow_nan=False), min_size=2, max_size=40),
    k=st.integers(min_value=0, max_value=5),
)
def test_cauchy_oracle_minimal_is_valid_and_minimal(terms, k):
    horizon = len(terms) - 1
    table = oracle_cauchy_modulus(terms, k_max=k, horizon=horizon)
    m = table.minimal[k]
    thr = 1.0 / (k + 1) * (1 + 1e-9)
    if m is None:
        assert sum(terms) > thr
    else:
        assert sum(terms[m:]) <= thr
        if m > 0:
            assert sum(terms[m - 1 :]) > thr


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=40),
    k=st.integers(min_value=0, max_value=5),
)
def test_product_oracle_minimal_is_valid_and_minimal(factors, k):
    horizon = len(factors) - 2
    if horizon < 0:
        return
    table = oracle_product_rate(factors, k_max=k, horizon=horizon)
    m = table.minimal[k]
    thr = 1.0 / (k + 1) * (1 + 1e-9)
    prods = np.cumprod(factors[1:])
    if m is None:
        assert prods[horizon] > thr
    else:
        assert prods[m] <= thr
        if m > 0:
            assert prods[m - 1] > thr
