import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmann.rates import general_rates
from tmann.sequences import (
    _int_ceil,
    builtin_example_schedule,
    builtin_linear_schedule,
    ceil_reciprocal,
    oracle_cauchy_modulus,
    oracle_convergence_rate,
    oracle_product_rate,
    product_tree,
    psi0,
    schedule_from_tables,
    terms,
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
    # the reciprocal of the least subnormal overflows to inf
    with pytest.raises(ValueError, match="lambda"):
        ceil_reciprocal(5e-324)


def test_int_ceil_snaps_only_float_noise():
    assert _int_ceil(3.0000000000000004) == 3
    # a relative guard of 1e-12 took a whole unit off these
    assert ceil_reciprocal(1e-13) == 10**13
    assert [_int_ceil(v) for v in (1e12, 2.5e12, 1e15, 1e18)] == [
        10**12, 25 * 10**11, 10**15, 10**18
    ]


near_integers = st.builds(
    lambda n, ulps: float(n) + ulps * math.ulp(float(n)),
    st.integers(min_value=-(10**16), max_value=10**16),
    st.integers(min_value=-64, max_value=64),
)


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(st.floats(min_value=-1e18, max_value=1e18, allow_nan=False), near_integers))
def test_int_ceil_is_the_ceiling_up_to_the_snap(v):
    assert math.ceil(v) >= _int_ceil(v) >= v - min(32 * math.ulp(v), 1e-12)


def test_cauchy_oracle_example_series():
    sch = builtin_example_schedule(0.5)
    terms = [abs(sch.beta(i + 1) - sch.beta(i)) for i in range(10_001)]
    table = oracle_cauchy_modulus(terms, k_max=5, horizon=10_000)
    # window-at-n tails are 1/(n+1), so the minimal index at level k is k
    assert table.minimal[3] == 3
    assert table.minimal == (0, 1, 2, 3, 4, 5)
    assert all(table.conclusive)
    assert set(table.validate(sch.chi_beta)) == {"pass"}


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
    table = oracle_product_rate(terms(sch.beta, np.arange(5002)), k_max=6, horizon=5000)
    # running product is 1/(N+2): level k is first reached at N = max(k-1, 0)
    assert table.minimal == (0, 0, 1, 2, 3, 4, 5)
    assert set(table.validate(sch.sigma_beta)) == {"pass"}


def test_product_oracle_zero_schedule():
    table = oracle_product_rate([0.0] * 102, k_max=3, horizon=100)
    assert table.minimal == (0, 0, 0, 0)


def test_product_oracle_log_space_matches_direct():
    beta = 1.0 - 1.0 / (np.arange(11_002) + 1)
    direct = oracle_product_rate(beta, k_max=8, horizon=9_000)
    logged = oracle_product_rate(beta, k_max=8, horizon=11_000)
    assert direct.minimal == logged.minimal


def test_convergence_oracle_reciprocal_decay():
    values = [1.0 - 1.0 / (n + 1) for n in range(2001)]
    table = oracle_convergence_rate(values, limit=1.0, k_max=5, horizon=2000)
    # |a_n - 1| = 1/(n+1) <= 1/(k+1) exactly from n = k on
    assert table.minimal == (0, 1, 2, 3, 4, 5)
    assert set(table.validate(lambda k: k)) == {"pass"}


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


def halves_table(chi_beta=(0,)):
    return schedule_from_tables(
        "halves", beta=[0.5], lam=[0.5], sigma_beta=[0], chi_beta=list(chi_beta),
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )


@pytest.mark.parametrize("upper", [1_022, 1_023, 1_100, 9_998, 20_000, 100_000])
def test_psi0_of_halves_is_an_exact_power_of_two(upper):
    # the product is 2^-(upper+1), far below the smallest double past upper 1,073
    assert psi0(halves_table(), lambda k: upper, 0) == 2 ** (upper + 1)


def test_minimal_general_rates_on_a_halving_table_return():
    bundle = general_rates(halves_table([2000]), 1, lambda k: 0, psi0=psi0)
    # psi0(0) = 2^2001 and sigma_beta = 0, so Sigma(0) = (chi(2) + 1) + 1
    assert bundle.Sigma(0) == 2000 + 1 + 1


@pytest.mark.parametrize(
    "make,closed",
    [
        (builtin_example_schedule, lambda N: N + 2),
        (builtin_linear_schedule, lambda N: (N + 2) * (N + 3) // 2),
    ],
)
def test_psi0_of_builtin_schedules_is_the_telescoped_product(make, closed):
    schedule = make(0.5)
    for upper in [*range(9_999), 10**4, 5 * 10**4, 10**5]:
        assert psi0(schedule, lambda k: upper, 0) == closed(upper)


def test_builtin_inverse_products_equal_the_exact_products():
    example, linear = builtin_example_schedule(0.5), builtin_linear_schedule(0.5)
    example_product = linear_product = Fraction(1)
    for N in range(2_001):
        example_product *= Fraction(N + 1, N + 2)
        linear_product *= Fraction(N + 1, N + 3)
        assert example.inverse_product(N) == math.ceil(1 / example_product)
        assert linear.inverse_product(N) == math.ceil(1 / linear_product)


@given(
    entries=st.lists(
        st.one_of(st.sampled_from([0.5, 1.0]), st.floats(min_value=1e-3, max_value=1.0)),
        min_size=1,
        max_size=5,
    ),
    upper=st.integers(0, 300),
)
def test_psi0_of_a_table_is_the_least_exact_bound(entries, upper):
    schedule = schedule_from_tables(
        "t", beta=entries, lam=[0.5], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=2, N_Lambda=0,
    )
    product = math.prod(Fraction(schedule.beta(n + 1)) for n in range(upper + 1))
    value = psi0(schedule, lambda k: upper, 0)
    assert Fraction(1, value) <= product
    assert value == 1 or Fraction(1, value - 1) > product


def test_hand_built_schedule_gets_the_exact_product_of_its_terms():
    example = builtin_example_schedule(0.5)
    hand_built = dataclasses.replace(example, inverse_product=None)
    for upper in (0, 1, 143, 2_000):
        # the float terms 1 - 1/(n+1) are not n/(n+1); psi0 reads them as they are
        product = math.prod(Fraction(example.beta(n + 1)) for n in range(upper + 1))
        assert psi0(hand_built, lambda k: upper, 0) == math.ceil(1 / product)


def test_hand_built_psi0_over_thirty_thousand_terms():
    example = builtin_example_schedule(0.5)
    hand_built = dataclasses.replace(example, inverse_product=None)
    upper = 30_000
    with localcontext() as ctx:
        ctx.prec = 80  # each float term is exact in Decimal; the product is good to 1e-75
        product = math.prod(Decimal(example.beta(n + 1)) for n in range(upper + 1))
        least = math.ceil(1 / product)
    # the float terms 1 - 1/(n+1) round so that their product falls just below
    # 1/(N + 2): 1/product is N + 2 + 4.6e-10
    assert least == upper + 3
    assert psi0(hand_built, lambda k: upper, 0) == least


@given(ratios=st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1, max_size=60))
def test_product_tree_equals_a_running_product(ratios):
    for part in zip(*(r.as_integer_ratio() for r in ratios)):
        assert product_tree(part) == math.prod(part)


def test_schedule_validation_quick():
    for sch in (builtin_example_schedule(0.5), builtin_linear_schedule(1.0 / 3.0)):
        report = validate_schedule_moduli(sch, k_max=10, horizon=20_000)
        statuses = {s for levels in report.moduli.values() for s in levels}
        assert report.status == "pass" and statuses == {"pass"}, report.summary()


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
    assert report.status == "fail"


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


def _scan_from_end(ok: list) -> int | None:
    """Plain reference scan: the least n with ok[m] for every m >= n."""
    first = None
    for n in range(len(ok) - 1, -1, -1):
        if not ok[n]:
            break
        first = n
    return first


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.just(float("nan"))),
        min_size=1,
        max_size=40,
    ),
    limit=st.floats(min_value=-1.0, max_value=1.0),
    k_max=st.integers(min_value=0, max_value=6),
)
def test_convergence_oracle_matches_a_plain_scan(values, limit, k_max):
    table = oracle_convergence_rate(values, limit, k_max=k_max, horizon=len(values) - 1)
    expected = tuple(
        _scan_from_end([abs(v - limit) <= (1.0 / (k + 1)) * (1.0 + 1e-9) for v in values])
        for k in range(k_max + 1)
    )
    assert table.minimal == expected


def _table_schedule_with_gamma():
    return schedule_from_tables(
        "tbl", beta=[0.0, 0.25, 0.5, 1.0 / 3.0], lam=[0.5, 0.7, 0.1], sigma_beta=[0],
        chi_beta=[0], chi_lambda=[0], sigma=[0], Lambda_cap=10, N_Lambda=0,
        gamma=[2.0, 1.0 / 7.0], chi_gamma=[0], Gamma_cap=7, N_Gamma=0,
    )


SCHEDULES = {
    "example": lambda: builtin_example_schedule(0.5),
    "example_third": lambda: builtin_example_schedule(1.0 / 3.0),
    "linear": lambda: builtin_linear_schedule(0.3),
    "table": _table_schedule_with_gamma,
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedule_arrays_equal_scalar_terms(name):
    sch = SCHEDULES[name]()
    # past the table's last entry, and the large indices a long oracle reads
    ns = np.concatenate([np.arange(60), np.arange(99_990, 100_010), [2**40 + 7]])
    for seq in (sch.beta, sch.lam, sch.gamma):
        scalars = [seq(int(n)) for n in ns]
        assert all(type(v) is float for v in scalars)  # reprs stay plain floats
        array = terms(seq, ns)
        assert array.dtype == np.float64 and array.shape == ns.shape
        assert [v.hex() for v in array.tolist()] == [v.hex() for v in scalars]


def test_terms_of_a_plain_callable_calls_it_per_index():
    seen = []

    def beta(n):
        seen.append(n)
        return 0.5 if n < 3 else 1.0  # written for one index at a time

    assert terms(beta, np.arange(5)).tolist() == [0.5, 0.5, 0.5, 1.0, 1.0]
    assert seen == [0, 1, 2, 3, 4] and all(type(n) is int for n in seen)
