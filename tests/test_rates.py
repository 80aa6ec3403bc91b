import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmann.cli import _write_certifications_csv
from tmann.mappings import chi_T_from_gamma
from tmann.rates import (
    RateBundle,
    certify_rate,
    check_pointwise_bound,
    chi_combined,
    example_closed_form_rates,
    general_rates,
    halpern_translate,
    halpern_translated_bundle,
    linear_rates,
    sabach_shtern_check,
    sigma_ar,
    translate_ar_to_tn_ar,
)
from tmann.sequences import builtin_example_schedule, ceil_reciprocal, psi0

identity = lambda k: k
zero = lambda k: 0


def example_chi_T(M):
    return chi_T_from_gamma(M, 1, 0, identity)


def cross_rate(lr):
    """The linear theorem's rate for d(x_n, T_m x_n) at a fixed m:
    k -> 20 M ceil(1/lambda) (k + 1) - 2."""
    return lambda k: 20 * lr.M * ceil_reciprocal(lr.lambda_const) * (k + 1) - 2


def test_chi_combined_example_values():
    chi1 = chi_combined(example_chi_T(1), zero, identity, M=1)
    assert chi1(0) == 7
    assert [chi1(k) for k in range(4)] == [7, 15, 23, 31]
    chi2 = chi_combined(example_chi_T(2), zero, identity, M=2)
    assert chi2(1) == 31
    # with a constant family the gap modulus vanishes and the beta term rules
    chi_const = chi_combined(zero, zero, identity, M=1)
    assert [chi_const(k) for k in range(3)] == [7, 15, 23]


def test_sigma_ar_example_values():
    chi = chi_combined(example_chi_T(1), zero, identity, M=1)
    Sigma = sigma_ar(identity, chi, lambda k: chi(3 * k + 2), M=1)
    assert Sigma(0) == 138
    assert Sigma(1) == 564
    degenerate = sigma_ar(zero, zero, lambda k: 1, M=1)
    assert degenerate(5) == 2


def test_translate_example_values():
    cf = example_closed_form_rates(1, 0.5)
    Sigma_T = translate_ar_to_tn_ar(cf.Sigma, M=1, Lambda_cap=2, N_Lambda=0, sigma=identity)
    assert Sigma_T(0) == 2280
    assert Sigma_T(0) == 2304 - 24
    # a huge N_Lambda dominates
    assert translate_ar_to_tn_ar(zero, 1, 1, 10**6, zero)(0) == 10**6
    assert translate_ar_to_tn_ar(zero, 1, 1, 0, zero)(9) == 0


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lam", [0.5, 1.0 / 3.0])
def test_composed_rates_equal_closed_forms(M, lam):
    schedule = builtin_example_schedule(lam)
    bundle = general_rates(schedule, M, example_chi_T(M))
    closed = example_closed_form_rates(M, lam)
    for k in range(51):
        assert bundle.Sigma(k) == closed.Sigma(k)
        assert bundle.Sigma_T(k) == closed.Sigma_T(k)
        assert bundle.chi(k) == closed.chi(k)


def test_general_rates_minimal_psi0_dominates_closed_form():
    schedule = builtin_example_schedule(0.5)
    closed = general_rates(schedule, 1, example_chi_T(1))
    minimal = general_rates(schedule, 1, example_chi_T(1), psi0=psi0)
    for k in range(10):
        assert minimal.Sigma(k) >= closed.Sigma(k)


@pytest.mark.parametrize("lam", [0.5, 0.3])
@pytest.mark.parametrize("M", [1, 2, 3, 5, 8])
def test_minimal_psi0_composition_has_the_example_closed_form(M, lam):
    bundle = general_rates(builtin_example_schedule(lam), M, lambda k: 0, psi0=psi0)
    L = ceil_reciprocal(lam)
    for k in range(6):
        assert bundle.Sigma(k) == 144 * M**2 * (k + 1) ** 2 + 6 * M * (k + 1)
        assert bundle.Sigma_T(k) == 576 * M**2 * L**2 * (k + 1) ** 2 + 12 * M * L * (k + 1)


def test_halpern_translate_values():
    assert [halpern_translate(identity, identity, 1)(k) for k in range(3)] == [5, 11, 17]
    big = halpern_translate(lambda k: 10**6, identity, 1)
    assert big(0) == 10**6
    assert halpern_translate(zero, identity, 2)(0) == 11
    bundle = halpern_translated_bundle(
        RateBundle(provenance="general_theorem", Sigma=identity, Sigma_T=identity), identity, 1
    )
    assert bundle.provenance == "halpern_translated"
    assert bundle.Sigma(0) == 5 and bundle.Sigma_T(0) == 5


def test_rate_bundle_provenance_vocabulary():
    with pytest.raises(ValueError, match="provenance"):
        RateBundle(provenance="folklore", Sigma=identity)


def test_linear_rates_values():
    lr = linear_rates(1, 0.5)
    assert lr.rate_step(0) == 4
    assert lr.rate_T(0) == 18
    assert cross_rate(lr)(0) == 38
    assert lr.bound_step(0) == 3.0
    assert lr.bundle().provenance == "linear_theorem"


def test_sabach_shtern_exact_solution_passes():
    L = 3.0
    s = [2.0 * L / (n + 2) for n in range(500)]
    report = sabach_shtern_check(s, L)
    assert report.passed
    zero_seq = sabach_shtern_check([0.0] * 100, L)
    assert zero_seq.passed


def test_sabach_shtern_constant_sequence_rejected_at_one():
    # s_n = L breaks s_n <= 2L/(n+2) from n = 1 on, by the most at the last n
    L = 2.0
    for length in (2, 3, 50):
        report = sabach_shtern_check([L] * length, L)
        start, _, conclusion = report.checks
        assert not report.passed
        assert start.worst_excess == 0.0
        assert conclusion.at == length - 1
        assert conclusion.worst_excess == L - 2.0 * L / (length + 1)


def test_sabach_shtern_flags_start_violation():
    report = sabach_shtern_check([5.0, 0.0], L=1.0)
    assert not report.passed
    assert report.checks[0].worst_excess == 4.0


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_sabach_shtern_fails_on_a_nan(index):
    s = [1.0, 0.5, 0.1, 0.05]
    assert sabach_shtern_check(s, L=3.0).passed
    s[index] = math.nan
    report = sabach_shtern_check(s, L=3.0)
    assert not report.passed
    assert "VIOLATED" in report.summary()


def test_certify_zero_residuals_any_rate():
    report = certify_rate(np.zeros(100), lambda k: 3 * k, k_max=5)
    assert {r.status for r in report.rows} == {"pass"}


def test_certify_boundary_equality_passes():
    residuals = np.array([1.0 / (n + 1) for n in range(200)])
    report = certify_rate(residuals, identity, k_max=10)
    assert {r.status for r in report.rows} == {"pass"}


def test_certify_detects_failure_and_reports_empirical_minimum():
    residuals = np.full(100, 0.4)
    report = certify_rate(residuals, zero, k_max=3)
    by_k = {r.k: r for r in report.rows}
    assert by_k[0].status == "pass"  # threshold 1.0
    assert by_k[1].status == "pass"  # threshold 0.5
    assert by_k[2].status == "fail"  # threshold 1/3 < 0.4
    assert by_k[2].empirical_min_index == -1
    assert by_k[2].worst_excess == pytest.approx(0.4 - 1.0 / 3.0)
    assert not report.acceptable


def test_certify_inconclusive_beyond_horizon():
    report = certify_rate(np.zeros(10), lambda k: 100, k_max=2)
    assert all(r.status == "inconclusive" for r in report.rows)
    assert report.acceptable and {r.status for r in report.rows} != {"pass"}


def test_certify_single_level_and_short_window():
    report = certify_rate([0.0], zero, k_max=0)
    assert {r.status for r in report.rows} == {"pass"}
    assert report.horizon == 0


def test_certify_csv(tmp_path):
    report = certify_rate(np.zeros(10), identity, k_max=2, label="demo")
    path = tmp_path / "cert.csv"
    _write_certifications_csv(path, [report])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("label,k,rate_k")
    assert len(lines) == 4


@settings(max_examples=60, deadline=None)
@given(
    residuals=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=5, max_size=60
    ),
    base=st.integers(min_value=0, max_value=10),
    bump=st.integers(min_value=0, max_value=10),
)
def test_certified_rates_are_upward_closed(residuals, base, bump):
    # any pointwise larger rate certifies whenever the smaller one does
    small = certify_rate(residuals, lambda k: base, k_max=3)
    large = certify_rate(residuals, lambda k: base + bump, k_max=3)
    for s, l in zip(small.rows, large.rows):
        if s.status == "pass" and l.status != "inconclusive":
            assert l.status == "pass"


@settings(max_examples=80, deadline=None)
@given(
    residuals=st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=2.0), st.just(float("nan"))),
        min_size=1,
        max_size=40,
    ),
    k_max=st.integers(min_value=0, max_value=6),
    tol=st.sampled_from([0.0, 1e-12, 1e-3]),
)
def test_certify_empirical_minimum_matches_a_plain_scan(residuals, k_max, tol):
    report = certify_rate(residuals, zero, k_max=k_max, tol=tol)
    for k, row in enumerate(report.rows):
        expected = -1
        for n in range(len(residuals) - 1, -1, -1):
            if not residuals[n] <= 1.0 / (k + 1) + tol:
                break
            expected = n
        assert row.empirical_min_index == expected


def test_check_pointwise_bound():
    values = [1.0 / (n + 2) for n in range(50)]
    ok = check_pointwise_bound(values, lambda n: 1.0 / (n + 2))
    assert ok.passed
    bad = check_pointwise_bound(values, lambda n: 0.5 / (n + 2))
    assert not bad.passed
    assert bad.checks[0].at == 0


@pytest.mark.parametrize("M, lam", [(1, 0.5), (2, 0.3), (3, 0.7), (7, 0.123)])
def test_linear_bounds_on_an_index_array_equal_the_per_n_bounds(M, lam):
    rates = linear_rates(M, lam)
    ns = np.arange(20_000)
    for bound in (rates.bound_step, rates.bound_T):
        per_n = np.array([bound(n) for n in range(len(ns))])
        assert np.array_equal(bound(ns).view(np.uint64), per_n.view(np.uint64))


def test_soundness_sigma_and_sigma_t_certify_full_window():
    # both composed rates must certify out to rate(10) + 1000 on a real orbit
    from tmann.geometry import EuclideanSpace
    from tmann.iterate import ProblemInstance, run_tikhonov_mann
    from tmann.mappings import resolvent_l1_family

    schedule = builtin_example_schedule(0.5)
    family = resolvent_l1_family(schedule.gamma, dim=1)
    instance = ProblemInstance.create(
        EuclideanSpace(1), family, schedule, u=np.zeros(1), x0=np.array([1.0]), p=np.zeros(1)
    )
    assert instance.M == 1
    bundle = general_rates(schedule, instance.M, example_chi_T(instance.M))
    horizon = bundle.Sigma_T(10) + 1000
    trace = run_tikhonov_mann(instance, horizon)
    step = certify_rate(trace.residual_step, bundle.Sigma, k_max=10, tol=1e-9)
    assert {r.status for r in step.rows} == {"pass"}, step.summary()
    t_res = certify_rate(trace.residual_T, bundle.Sigma_T, k_max=10, tol=1e-9)
    assert {r.status for r in t_res.rows} == {"pass"}, t_res.summary()


def test_soundness_linear_rates_certify(linear_l1):
    instance, trace = linear_l1.instance, linear_l1.trace
    lr = linear_rates(instance.M, 0.5)
    for residuals, rate in ((trace.residual_step, lr.rate_step), (trace.residual_T, lr.rate_T)):
        report = certify_rate(residuals, rate, k_max=10, tol=1e-9)
        assert {r.status for r in report.rows} == {"pass"}, report.summary()
    # fixed-index residuals d(x_n, T_m x_n) obey the cross rate for each m
    window = 2000
    for m in (0, 17):
        residuals = [
            instance.space.dist(trace.x[n], instance.family.fn(m, trace.x[n]))
            for n in range(window + 1)
        ]
        report = certify_rate(residuals, cross_rate(lr), k_max=10, tol=1e-9)
        assert {r.status for r in report.rows} == {"pass"}, report.summary()


def test_linear_cross_index_spot_check_equals_the_per_point_formula(suite_fixtures):
    # the spot check evaluates its (n, m) rows as arrays; the per-point
    # distances and bounds below are its reference, bit for bit
    for fixture in suite_fixtures:
        instance, trace = fixture.instance, fixture.trace
        lr = linear_rates(instance.M, 0.5)
        space, family = instance.space, instance.family
        ns = sorted(set(np.geomspace(1, trace.horizon - 1, 25).astype(int).tolist()))
        excess = [
            space.dist(trace.x[n], family.fn(m, trace.x[n]))
            - 20.0 * lr.M / (lr.lambda_const * (n + 2))
            for n in ns
            for m in (0, n // 2, 2 * n)
        ]
        worst = int(np.argmax(excess))
        (row,) = dict(lr.orbit_checks(instance, trace, tol=1e-9))[
            "linear cross-index spot check"
        ].checks
        assert (row.worst_excess, row.at) == (excess[worst], ns[worst // 3]), fixture.name


def test_linear_cross_index_spot_check_fails_on_nan():
    # the family is NaN only from index 200 on: a 200-step orbit never
    # evaluates it there, but the spot check reads T_m x_n at m = 2n
    from tmann.geometry import EuclideanSpace
    from tmann.iterate import ProblemInstance, run_tikhonov_mann
    from tmann.mappings import MappingFamily, box_projection_family
    from tmann.sequences import builtin_linear_schedule

    box = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    family = MappingFamily(
        "late_nan_box",
        lambda n, x: box.fn(n, x) if n < 200 else np.full_like(x, np.nan),
        box.fixed_point,
    )
    instance = ProblemInstance.create(
        EuclideanSpace(2), family, builtin_linear_schedule(0.5),
        u=np.zeros(2), x0=np.array([1.2, 1.6]), p=np.zeros(2),
    )
    trace = run_tikhonov_mann(instance, 200)
    sections = linear_rates(instance.M, 0.5).orbit_checks(instance, trace, tol=1e-9)
    checks = {name: section.passed for name, section in sections}
    assert not checks["linear cross-index spot check"]
