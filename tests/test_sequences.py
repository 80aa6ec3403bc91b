import dataclasses
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmann.rates import general_rates
from tmann.sequences import (
    int_ceil,
    _levels,
    builtin_example_schedule,
    builtin_linear_schedule,
    ceil_reciprocal,
    oracle_cauchy_modulus,
    oracle_convergence_rate,
    oracle_product_rate,
    product_tree,
    psi0,
    terms,
    validate_schedule_moduli,
)

from conftest import first_indices


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


@pytest.mark.parametrize("make", [builtin_example_schedule, builtin_linear_schedule])
@pytest.mark.parametrize(
    "lam", [0.0, 1.0, -0.25, math.nan], ids=["zero", "one", "negative", "nan"]
)
def test_builtin_schedule_refuses_lambda_outside_the_open_unit_interval(make, lam):
    with pytest.raises(ValueError, match=r"lambda must lie in \(0, 1\)"):
        make(lam)


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
    assert int_ceil(3.0000000000000004) == 3
    # a relative guard of 1e-12 took a whole unit off these
    assert ceil_reciprocal(1e-13) == 10**13
    assert [int_ceil(v) for v in (1e12, 2.5e12, 1e15, 1e18)] == [
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
    assert math.ceil(v) >= int_ceil(v) >= v - min(32 * math.ulp(v), 1e-12)


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


@pytest.mark.parametrize("factor", [-0.5, 1.5])
def test_product_oracle_rejects_beta_outside_the_unit_interval(factor):
    with pytest.raises(ValueError, match=r"beta values must lie in \[0, 1\]"):
        oracle_product_rate([1.0, 0.5, factor, 0.5], k_max=2, horizon=2)


def test_oracle_search_needs_one_term_per_index():
    # the horizon 10 needs the 12 values beta_0 .. beta_11, so 11 factors
    with pytest.raises(ValueError, match="horizon 10 needs 11 terms, got 4"):
        oracle_product_rate([1.0, 0.5, 0.5, 0.5, 0.5], k_max=2, horizon=10)


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


def hand_built(beta, **fields):
    """The builtin linear schedule with the sequence ``beta``, a plain
    callable, and no declared ``inverse_product``: ``psi0`` then takes the
    exact product of its terms."""
    return dataclasses.replace(
        builtin_linear_schedule(0.5), beta=beta, inverse_product=None, **fields
    )


def repeat_last(entries):
    """The sequence of ``entries`` that repeats its last entry."""
    return lambda n: entries[min(n, len(entries) - 1)]


def test_psi0_trivial_cases():
    assert psi0(hand_built(lambda n: 1.0), lambda k: 5, 0) == 1
    halves = hand_built(lambda n: 0.5)
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
    sch = hand_built(repeat_last([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="not positive"):
        psi0(sch, lambda k: 2, 0)


@pytest.mark.parametrize("factor", [-0.5, math.nan], ids=["negative", "nan"])
def test_psi0_names_the_first_factor_that_is_not_positive(factor):
    sch = hand_built(repeat_last([1.0, 0.5, factor, factor, 1.0]))
    with pytest.raises(ValueError, match=re.escape(f"beta_{{2}} = {factor!r} is not positive")):
        psi0(sch, lambda k: 4, 0)


def test_psi0_rejects_a_negative_upper_index():
    with pytest.raises(ValueError, match="chi\\(3k\\+2\\) must be >= 0, got -1"):
        psi0(builtin_example_schedule(0.5), lambda k: -1, 0)


@pytest.mark.parametrize("upper", [1_022, 1_023, 1_100, 9_998, 20_000, 100_000])
def test_psi0_of_halves_is_an_exact_power_of_two(upper):
    # the product is 2^-(upper+1), far below the smallest double past upper 1,073
    assert psi0(hand_built(lambda n: 0.5), lambda k: upper, 0) == 2 ** (upper + 1)


def test_minimal_general_rates_on_a_halving_schedule_return():
    halves = hand_built(lambda n: 0.5, sigma_beta=lambda k: 0, chi_beta=lambda k: 2000)
    bundle = general_rates(halves, 1, lambda k: 0, psi0=psi0)
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
def test_psi0_of_a_repeat_last_beta_is_the_least_exact_bound(entries, upper):
    schedule = hand_built(repeat_last(entries))
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


@pytest.mark.parametrize(
    "missing",
    [("chi_gamma",), ("gamma", "N_Gamma"), ("chi_gamma", "Gamma_cap", "N_Gamma")],
    ids=["chi_gamma", "gamma_and_n_gamma", "all_but_gamma"],
)
def test_incomplete_gamma_certificate_names_the_missing_parts(missing):
    builtin = builtin_linear_schedule(0.5)
    message = f"incomplete gamma certificate: missing {', '.join(missing)} "
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(builtin, **dict.fromkeys(missing))
    # all four gone is a schedule without gamma
    parts = ("gamma", "chi_gamma", "Gamma_cap", "N_Gamma")
    assert not dataclasses.replace(builtin, **dict.fromkeys(parts)).has_gamma


def test_schedule_validation_quick():
    for sch in (builtin_example_schedule(0.5), builtin_linear_schedule(1.0 / 3.0)):
        report = validate_schedule_moduli(sch, k_max=10, horizon=20_000)
        statuses = {s for levels in report.moduli.values() for s in levels}
        assert report.status == "pass" and statuses == {"pass"}, report.summary()


def test_schedule_validation_catches_bad_modulus():
    # claims the product 1/(N+2) is below 1/(k+1) from N = 0 on: false from k = 2
    bad = dataclasses.replace(builtin_example_schedule(0.5), sigma_beta=lambda k: 0)
    report = validate_schedule_moduli(bad, k_max=5, horizon=1000)
    assert report.status == "fail"
    assert "sigma_beta   pass 2, inconclusive 0, fail 4  FAILED at k=2" in report.summary()


EXCURSION_HALF = "range excursion beyond [0, 1]: 5.000e-01"

#: Fields replaced on the builtin example schedule, and the report line
#: that then fails.
FAILING = {
    # lambda_n = 0.5 lies below 1/Lambda_cap = 1 from N_Lambda = 0 on
    "lambda_cap": ({"Lambda_cap": 1}, "lambda cap   VIOLATED"),
    # gamma_n = 0.25 lies below 1/Gamma_cap = 1 from N_Gamma = 0 on
    "gamma_cap": ({"gamma": lambda n: 0.25}, "gamma cap    VIOLATED"),
    # lambda_n = 1.25 lies 0.25 beyond [0, 1]
    "lambda_above_one": ({"lam": lambda n: 1.25}, "range excursion beyond [0, 1]: 2.500e-01"),
    # beta_5 lies 0.5 beyond [0, 1], which the product oracle alone refuses
    "beta_above_one": (
        {"beta": lambda n: 1.5 if n == 5 else 1.0 - 1.0 / (n + 1)}, EXCURSION_HALF
    ),
    "beta_below_zero": (
        {"beta": lambda n: -0.5 if n == 5 else 1.0 - 1.0 / (n + 1)}, EXCURSION_HALF
    ),
}


@pytest.mark.parametrize("fields, line", FAILING.values(), ids=FAILING.keys())
def test_schedule_validation_fails_a_violated_cap_or_range(fields, line):
    schedule = dataclasses.replace(builtin_example_schedule(0.5), **fields)
    report = validate_schedule_moduli(schedule, k_max=5, horizon=1000)
    assert report.status == "fail"
    assert line in report.summary()


def test_schedule_without_gamma_validates_without_a_gamma_row():
    parts = ("gamma", "chi_gamma", "Gamma_cap", "N_Gamma")
    schedule = dataclasses.replace(builtin_example_schedule(0.5), **dict.fromkeys(parts))
    report = validate_schedule_moduli(schedule, k_max=5, horizon=1000)
    assert report.status == "pass" and report.gamma_cap_ok is None
    assert "chi_gamma" not in report.moduli
    assert "gamma" not in report.summary()


def test_validate_fails_what_the_window_refutes():
    # running products 0.5, 0.25, 0.25, ...: no index reaches 1/5 (k = 4)
    table = oracle_product_rate([0.0, 0.5, 0.5] + [1.0] * 99, k_max=4, horizon=100)
    assert table.minimal == (0, 0, 1, 1, None)
    # a declared index inside the window is refuted at k = 4, one past it is not
    assert table.validate(lambda k: 1) == ("pass",) * 4 + ("fail",)
    assert table.validate(lambda k: 1 if k < 4 else 101)[4] == "inconclusive"


def test_validate_fails_below_a_minimum_in_the_guard_stretch():
    # the deviation drops to 0 at n = 100, inside the last 1% of the window
    values = [0.5] * 100 + [1.0]
    table = oracle_convergence_rate(values, limit=1.0, k_max=2, horizon=100)
    assert table.minimal == (0, 0, 100) and table.conclusive == (True, True, False)
    assert table.validate(lambda k: 99) == ("pass", "pass", "fail")
    assert table.validate(lambda k: 100) == ("pass", "pass", "inconclusive")


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


SCHEDULES = {
    "example": lambda: builtin_example_schedule(0.5),
    "example_third": lambda: builtin_example_schedule(1.0 / 3.0),
    "linear": lambda: builtin_linear_schedule(0.3),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedule_arrays_equal_scalar_terms(name):
    sch = SCHEDULES[name]()
    # the indices a short orbit reads, and the large indices a long oracle reads
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


def parent_minimal(name, values, k_max, horizon):
    """The ``minimal`` tuple of an oracle as it was found before the oracles
    read ``checks.settle_indices``: ``first_indices`` on a running tail sum,
    a running log product or a reverse running maximum of the deviation."""
    levels = _levels(k_max)
    if name == "product":
        factors = np.asarray(values, dtype=float)[1 : horizon + 2]
        with np.errstate(divide="ignore"):
            logs = np.where(factors > 0, np.log(np.maximum(factors, 1e-300)), -np.inf)
        return first_indices(np.cumsum(logs), [math.log(t) for t in levels])
    if name == "convergence":
        dev = np.abs(np.asarray(values, dtype=float)[: horizon + 1] - 1.0)
        return first_indices(np.maximum.accumulate(dev[::-1])[::-1], levels)
    series = np.asarray(values, dtype=float)[: horizon + 1]
    rev = np.concatenate([np.cumsum(series[::-1])[::-1], [0.0]])
    return first_indices(rev[:-1] if name == "cauchy_at" else rev[1:], levels)


ORACLES = {
    "product": oracle_product_rate,
    "convergence": lambda v, k_max, h: oracle_convergence_rate(v, 1.0, k_max, h),
    "cauchy_at": oracle_cauchy_modulus,
    "cauchy_after": lambda v, k_max, h: oracle_cauchy_modulus(v, k_max, h, include_start=False),
}


#: Hand-made oracle inputs: the windows the two tests of refuted
#: declarations read, and series with NaN terms.
HAND_INPUTS = [
    ("product", [0.0, 0.5, 0.5] + [1.0] * 99),
    ("convergence", [0.5] * 100 + [1.0]),
    ("product", [0.5, 0.9, math.nan, 0.8] + [0.99] * 97),
    ("convergence", [0.0, math.nan] + [1.0 - 1.0 / (n + 1) for n in range(2, 101)]),
    ("cauchy_at", [math.nan] + [0.01] * 100),
    ("cauchy_after", [0.2] * 50 + [math.nan] + [0.001] * 50),
]


@pytest.mark.parametrize("oracle, values", HAND_INPUTS)
def test_oracle_minima_on_hand_inputs_equal_the_parent_search(oracle, values):
    horizon = len(values) - (2 if oracle == "product" else 1)
    got = ORACLES[oracle](values, 6, horizon).minimal
    assert got == parent_minimal(oracle, values, 6, horizon)


#: The failing schedules whose terms differ from the builtin's.
FAILING_TERMS = sorted(name for name, (fields, _) in FAILING.items() if "Lambda_cap" not in fields)


@pytest.mark.parametrize("horizon", [1000, 20_000])
@pytest.mark.parametrize("name", sorted(SCHEDULES) + FAILING_TERMS)
def test_oracle_minima_equal_the_parent_search(name, horizon):
    # the inputs validate_schedule_moduli gives each oracle, at k <= 50
    if name in SCHEDULES:
        schedule = SCHEDULES[name]()
    else:
        schedule = dataclasses.replace(builtin_example_schedule(0.5), **FAILING[name][0])
    ns = np.arange(horizon + 2)
    beta, lam, gamma = (terms(seq, ns) for seq in (schedule.beta, schedule.lam, schedule.gamma))
    inputs = [("product", np.clip(beta, 0.0, 1.0)), ("convergence", beta)] + [
        (cauchy, np.abs(np.diff(seq)))
        for seq in (beta, lam, gamma)
        for cauchy in ("cauchy_at", "cauchy_after")
    ]
    for oracle, values in inputs:
        got = ORACLES[oracle](values, 50, horizon).minimal
        assert got == parent_minimal(oracle, values, 50, horizon), (oracle, got)
