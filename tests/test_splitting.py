import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tmann import cli
from tmann.geometry import EuclideanSpace
from tmann.iterate import (
    ProblemInstance,
    check_basic_bounds,
    check_recursive_inequalities,
    run_tikhonov_mann,
)
from tmann.mappings import (
    CocoerciveOp,
    MonotoneOp,
    box_operator,
    check_cocoercive,
    check_firmly_nonexpansive,
    check_jp2_consequence,
    check_nonexpansive,
    chi_T_for,
    forward_backward_family,
    forward_backward_map,
    l1_operator,
    quadratic_gradient,
    zero_cocoercive,
    zero_operator,
)
from tmann.rates import certify_rate, general_rates
from tmann.sequences import (
    builtin_example_schedule,
    schedule_from_tables,
    validate_schedule_moduli,
)


def splitting_instance(A, B, schedule, u, x0, z) -> ProblemInstance:
    """The anchored splitting problem on R^d with z a registered zero of A + B."""
    z = np.asarray(z, dtype=float)
    family = forward_backward_family(A, B, schedule.gamma, z)
    return ProblemInstance.create(
        EuclideanSpace(len(z)), family, schedule,
        u=np.asarray(u, dtype=float), x0=np.asarray(x0, dtype=float), p=z,
    )


def splitting_rates(A, B, schedule, M):
    """The general-theorem bundle of a forward-backward family, as the CLI builds it."""
    family = forward_backward_family(A, B, schedule.gamma, np.zeros(1))
    return general_rates(schedule, M, chi_T_for(family, schedule, M))


def test_forward_backward_map_identity_minus_gradient():
    # A = 0 and B = Id (beta = 1): the map sends everything to zero
    A = zero_operator()
    B = quadratic_gradient([1.0, 1.0], [0.0, 0.0])
    for x in ([3.0, -2.0], [0.1, 0.4]):
        np.testing.assert_allclose(forward_backward_map(A, B, 1.0, np.array(x)), [0.0, 0.0])


def test_forward_backward_map_soft_threshold():
    A = l1_operator(1.0)
    B = zero_cocoercive()
    out = forward_backward_map(A, B, 2.0, np.array([3.0]))
    assert out[0] == pytest.approx(1.0)


def test_forward_backward_map_box_clamp():
    # A = normal cone of [0, 1], B(x) = x - 2: every input maps to 1
    A = box_operator([0.0], [1.0])
    B = quadratic_gradient([1.0], [2.0])
    for x in (-3.0, 0.2, 5.0):
        assert forward_backward_map(A, B, 1.0, np.array([x]))[0] == 1.0


def test_forward_backward_step_size_domain():
    A = zero_operator()
    B = quadratic_gradient([1.0], [0.0])  # beta = 1
    with pytest.raises(ValueError, match="step size"):
        forward_backward_map(A, B, 2.0, np.array([1.0]))
    with pytest.raises(ValueError, match="step size"):
        forward_backward_map(A, B, 0.0, np.array([1.0]))


#: Every kind of operator the config reader builds.
RESOLVENTS = ((l1_operator(1.0), 3), (box_operator([-1.0] * 2, [1.0] * 2), 2), (zero_operator(), 2))
COCOERCIVE = (
    quadratic_gradient([0.5, 0.7], [2.0, -3.0]),
    quadratic_gradient([0.0, 0.8], [1.0, 2.0]),
    zero_cocoercive(),
)


def test_prox_firm_nonexpansiveness_samples():
    for A, dim in RESOLVENTS:
        rng = np.random.default_rng(0)
        section = check_firmly_nonexpansive(A, dim=dim, gammas=[0.5, 1.0, 2.0], rng=rng)
        assert section.passed, section.summary()
        assert section.title.startswith(f"firmly_nonexpansive[{A.name}] on euclidean-{dim}d")


def test_cocoercivity_samples():
    assert COCOERCIVE[0].beta_coco == pytest.approx(1.0 / 0.49)
    for B in COCOERCIVE:
        section = check_cocoercive(B, dim=2, rng=np.random.default_rng(0))
        assert section.passed, section.summary()
        assert section.title.startswith(f"cocoercive[{B.name}] on euclidean-2d: 200 samples")


def test_a_reflection_through_the_box_fails_the_firm_nonexpansiveness_check():
    # 2 P - Id for the projection P onto a box is nonexpansive, not firmly
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    reflect = MonotoneOp(name="reflect", prox=lambda gamma, x: 2.0 * np.clip(x, lo, hi) - x)
    section = check_firmly_nonexpansive(reflect, dim=2, gammas=[1.0], rng=np.random.default_rng(0))
    assert not section.passed
    (row,) = section.checks
    assert row.worst_excess > 1.0
    gamma, x, y = row.at
    assert gamma == 1.0 and row.at._fields == ("gamma", "x", "y")
    diff = reflect.prox(gamma, x) - reflect.prox(gamma, y)
    assert row.worst_excess == pytest.approx(diff @ diff - (x - y) @ diff)
    assert "VIOLATED" in section.summary() and "(at gamma=1.0, x=" in section.summary()


def test_an_overstated_cocoercivity_constant_fails_the_check():
    B = quadratic_gradient([0.5, 0.7], [2.0, -3.0])
    overstated = replace(B, beta_coco=4.0 * B.beta_coco)
    section = check_cocoercive(overstated, dim=2, rng=np.random.default_rng(0))
    assert not section.passed
    (row,) = section.checks
    x, y = row.at
    assert row.at._fields == ("x", "y")
    bx_by = B(x) - B(y)
    expected = overstated.beta_coco * (bx_by @ bx_by) - (x - y) @ bx_by
    assert row.worst_excess == pytest.approx(expected)
    assert row.worst_excess > 1.0


def test_operator_checks_refuse_an_empty_sample():
    with pytest.raises(ValueError, match="samples"):
        check_firmly_nonexpansive(zero_operator(), 2, [1.0], np.random.default_rng(0), samples=0)
    with pytest.raises(ValueError, match="samples"):
        check_cocoercive(zero_cocoercive(), 2, np.random.default_rng(0), samples=0)


def test_nan_resolvent_fails_the_firm_nonexpansiveness_check():
    nan_prox = MonotoneOp(name="nan", prox=lambda gamma, x: np.full_like(x, np.nan))
    rng = np.random.default_rng(0)
    section = check_firmly_nonexpansive(nan_prox, dim=2, gammas=[1.0], samples=20, rng=rng)
    assert not section.passed
    assert math.isnan(section.checks[0].worst_excess)


@pytest.mark.parametrize("beta", [1.0, np.inf])
def test_nan_operator_fails_the_cocoercivity_check(beta):
    nan_fn = CocoerciveOp(name="nan", fn=lambda x: np.full_like(x, np.nan), beta_coco=beta)
    section = check_cocoercive(nan_fn, dim=2, samples=20, rng=np.random.default_rng(0))
    assert not section.passed
    assert math.isnan(section.checks[0].worst_excess)


def test_zero_operators_give_stationary_identity_family():
    schedule = builtin_example_schedule(0.5)
    # gamma in (1, 2] requires beta_coco > 1; the zero operator allows any
    A = zero_operator()
    B = zero_cocoercive()
    trace = run_tikhonov_mann(splitting_instance(A, B, schedule, [0.0], [0.0], [0.0]), 50)
    assert np.all(trace.residual_step == 0.0)


def lasso_problem():
    schedule = builtin_example_schedule(0.5)
    A = l1_operator(1.0)
    B = quadratic_gradient([0.5, 0.7], [2.0, -3.0])
    # separable closed form: z_i = soft(d_i b_i, rho) / d_i^2
    z = np.array([0.0, -1.1 / 0.49])
    return schedule, A, B, z


def test_lasso_solution_is_common_fixed_point():
    schedule, A, B, z = lasso_problem()
    family = forward_backward_family(A, B, schedule.gamma, z)
    for n in range(30):
        np.testing.assert_allclose(family.fn(n, z), z, atol=1e-12)


def test_fb_family_nonexpansive_and_jp2():
    schedule, A, B, z = lasso_problem()
    family = forward_backward_family(A, B, schedule.gamma, z)
    sp = EuclideanSpace(2)
    assert check_nonexpansive(family, sp, samples=300, rng=np.random.default_rng(11)).passed
    assert check_jp2_consequence(
        family, sp, samples=60, index_pairs=6, rng=np.random.default_rng(11)
    ).passed


def test_lasso_run_certifies_composed_rates():
    schedule, A, B, z = lasso_problem()
    instance = splitting_instance(A, B, schedule, u=[0.0, -2.0], x0=[0.3, -1.5], z=z)
    assert instance.M == 1
    bundle = general_rates(
        schedule, instance.M, chi_T_for(instance.family, schedule, instance.M)
    )
    horizon = bundle.Sigma(10) + 1000
    trace = run_tikhonov_mann(instance, horizon)
    assert check_basic_bounds(instance, trace).passed
    assert check_recursive_inequalities(instance, trace).passed
    report = certify_rate(trace.residual_step, bundle.Sigma, k_max=10, tol=1e-9)
    assert {r.status for r in report.rows} == {"pass"}, report.summary()


def test_box_quadratic_converges_to_constrained_minimum():
    schedule = builtin_example_schedule(0.5)
    A = box_operator([0.0], [1.0])
    B = quadratic_gradient([0.8], [2.0])
    instance = splitting_instance(A, B, schedule, u=[0.0], x0=[0.5], z=[1.0])
    trace = run_tikhonov_mann(instance, 3000)
    assert trace.x[-1][0] == pytest.approx(1.0, abs=2e-3)
    bundle = general_rates(
        schedule, instance.M, chi_T_for(instance.family, schedule, instance.M)
    )
    report = certify_rate(trace.residual_step, bundle.Sigma, k_max=3, tol=1e-9)
    assert report.acceptable


def test_tfb_rates_match_example_numbers():
    schedule, A, B, _ = lasso_problem()
    assert splitting_rates(A, B, schedule, 1).Sigma(0) == 138
    assert splitting_rates(A, B, schedule, 2).Sigma(0) == 564
    assert splitting_rates(A, B, schedule, 1).chi(0) == 7


def test_tfb_rates_constant_gamma_modulus_collapses_to_n_gamma():
    schedule = schedule_from_tables(
        "const_gamma",
        beta=[1.0 - 1.0 / (n + 1) for n in range(50)],
        lam=[0.5],
        sigma_beta=[0],
        chi_beta=[0],
        chi_lambda=[0],
        sigma=[0],
        Lambda_cap=2,
        N_Lambda=0,
        gamma=[1.5],
        chi_gamma=[0],
        Gamma_cap=1,
        N_Gamma=3,
    )
    # constant gamma has modulus 0, so chi_T collapses to N_Gamma
    from tmann.mappings import chi_T_from_gamma

    chi_T = chi_T_from_gamma(1, schedule.Gamma_cap, schedule.N_Gamma, schedule.chi_gamma)
    assert [chi_T(k) for k in range(4)] == [3, 3, 3, 3]
    bundle = splitting_rates(zero_operator(), zero_cocoercive(), schedule, 1)
    assert bundle.chi(0) >= 3


def test_tfb_rates_missing_gamma_names_ingredient(tmp_path):
    # a forward-backward problem takes its step sizes from the schedule
    config = tmp_path / "fb_no_gamma.json"
    config.write_text(json.dumps({
        "space": {"name": "euclidean", "dim": 1},
        "family": {"name": "forward_backward", "A": {"name": "zero"}, "B": {"name": "zero"}},
        "schedule": {
            "name": "table", "beta": [0.5], "lambda": [0.5], "sigma_beta": [0],
            "chi_beta": [0], "chi_lambda": [0], "sigma": [0], "Lambda_cap": 2, "N_Lambda": 0,
        },
        "u": [0.0], "x0": [1.0], "p": [0.0],
    }))
    with pytest.raises(cli.ConfigError, match="gamma"):
        cli.build_problem(cli.parse_config(config))


def test_run_tfb_rejects_out_of_range_lambda():
    schedule = schedule_from_tables(
        "lam_zero", beta=[0.5], lam=[0.0], sigma_beta=[0], chi_beta=[0],
        chi_lambda=[0], sigma=[0], Lambda_cap=1, N_Lambda=0,
        gamma=[1.0], chi_gamma=[0], Gamma_cap=1, N_Gamma=0,
    )
    assert validate_schedule_moduli(schedule, k_max=2, horizon=20).status == "fail"
