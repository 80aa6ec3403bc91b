import math
from dataclasses import replace

import numpy as np
import pytest

from tmann.geometry import EuclideanSpace
from tmann.iterate import (
    ProblemInstance,
    check_basic_bounds,
    check_halpern_equivalence,
    check_recursive_inequalities,
    run_tikhonov_mann,
)
from tmann.mappings import (
    MonotoneOp,
    box_operator,
    check_jp2_consequence,
    check_nonexpansive,
    check_step_sizes,
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
    builtin_linear_schedule,
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
    # the one rule, which the CLI also reads a block at a time: the first
    # step size outside (0, 2), by its index when the caller gives one
    check_step_sizes(B, np.array([1.0, 1.9, 1e-300]), start=4096)
    cap = r"outside \(0, 2.0\)"
    with pytest.raises(ValueError, match=rf"^step size gamma_4097 = nan {cap}$"):
        check_step_sizes(B, np.array([1.0, math.nan, -1.0]), start=4096)
    with pytest.raises(ValueError, match=rf"^step size gamma = 2.0 {cap}$"):
        forward_backward_map(A, B, np.array([[1.0], [2.0]]), np.ones((2, 1)))


#: Every kind of operator the config reader builds, on R^2.
RESOLVENTS = (l1_operator(1.0), box_operator([-1.0] * 2, [1.0] * 2), zero_operator())
COCOERCIVE = (
    quadratic_gradient([0.5, 0.7], [2.0, -3.0]),
    quadratic_gradient([0.0, 0.8], [1.0, 2.0]),
    zero_cocoercive(),
)


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
        np.testing.assert_allclose(family.fn(n, z.tolist()), z, atol=1e-12)


def fb_family_checks(A, B, schedule, seed):
    """The two family checks `tmann run` samples, on the forward-backward
    family of (A, B) on R^2; neither reads the registered fixed point."""
    family = forward_backward_family(A, B, schedule.gamma, np.zeros(2))
    sp = EuclideanSpace(2)
    return (
        check_nonexpansive(family, sp, samples=300, rng=np.random.default_rng(seed)),
        check_jp2_consequence(
            family, sp, samples=60, index_pairs=6, rng=np.random.default_rng(seed)
        ),
    )


def test_fb_family_nonexpansive_and_jp2():
    schedule, A, B, z = lasso_problem()
    family = forward_backward_family(A, B, schedule.gamma, z)
    sp = EuclideanSpace(2)
    assert check_nonexpansive(family, sp, samples=300, rng=np.random.default_rng(11)).passed
    assert check_jp2_consequence(
        family, sp, samples=60, index_pairs=6, rng=np.random.default_rng(11)
    ).passed
    # every pair of operator kinds; the example's steps lie in (1, 2], below every 2 beta
    assert COCOERCIVE[0].beta_coco == pytest.approx(1.0 / 0.49)
    for A in RESOLVENTS:
        for B in COCOERCIVE:
            for section in fb_family_checks(A, B, schedule, seed=11):
                assert section.passed, section.summary()


def test_an_overstated_cocoercivity_constant_fails_the_family_nonexpansiveness_check():
    # B is 4-Lipschitz, hence 1/4-cocoercive; declaring beta = 1 admits the
    # linear schedule's steps in (1, 1.5], past the true 2 beta = 0.5
    schedule = builtin_linear_schedule(0.5)
    B = quadratic_gradient([2.0, 1.0], [0.0, 0.0])
    assert B.beta_coco == 0.25
    overstated = replace(B, beta_coco=1.0)
    for A in RESOLVENTS:
        nonexpansive, _ = fb_family_checks(A, overstated, schedule, seed=0)
        assert not nonexpansive.passed
        (row,) = nonexpansive.checks
        n, x, y = row.at
        T = lambda point: forward_backward_map(A, overstated, schedule.gamma(n), point)
        expected = np.linalg.norm(T(x) - T(y)) - np.linalg.norm(x - y)
        assert row.worst_excess == pytest.approx(expected)
        assert row.worst_excess > 0.5


def test_a_box_reflection_passes_alone_and_fails_the_comparison_with_a_gradient():
    # 2 P - Id for the projection P onto a box is nonexpansive but not firmly,
    # so it is no resolvent; alone it gives a constant nonexpansive family,
    # which the rates accept, and after a gradient step the cross-index
    # comparison fails, which the family check sees
    reflect = MonotoneOp("reflect", lambda g, x: 2.0 * np.clip(x, -1, 1) - x)
    schedule = builtin_example_schedule(0.5)
    for section in fb_family_checks(reflect, zero_cocoercive(), schedule, seed=0):
        assert section.passed, section.summary()
    nonexpansive, jp2 = fb_family_checks(reflect, COCOERCIVE[0], schedule, seed=0)
    assert nonexpansive.passed, nonexpansive.summary()
    assert not jp2.passed
    assert jp2.checks[0].worst_excess > 1.0


def test_a_user_operator_without_a_point_form_keeps_the_numpy_path():
    # the reflection has no prox_point, so fn maps a loop point through
    # forward_backward_map and returns an ndarray, equal to the fn_array row
    reflect = MonotoneOp("reflect", lambda g, x: 2.0 * np.clip(x, -1, 1) - x)
    schedule = builtin_example_schedule(0.5)
    for B in COCOERCIVE:
        family = forward_backward_family(reflect, B, schedule.gamma, np.zeros(2))
        xs = np.random.default_rng(4).uniform(-3.0, 3.0, size=(200, 2))
        rows = family.fn_array(np.arange(200), xs)
        for n, (x, row) in enumerate(zip(xs.tolist(), rows)):
            point = family.fn(n, x)
            assert type(point) is np.ndarray and point.tobytes() == row.tobytes()
    # and it runs: alone it is a constant nonexpansive family fixing 0, and
    # the loop's fn and the replayed fn_array agree along the orbit
    instance = splitting_instance(
        reflect, zero_cocoercive(), schedule, u=[0.2, 0.9], x0=[1.8, 2.4], z=[0.0, 0.0]
    )
    trace = run_tikhonov_mann(instance, 500)
    assert check_basic_bounds(instance, trace).passed
    report = check_halpern_equivalence(instance, 500)
    assert report.max_u_y == report.max_x_v == 0.0


@pytest.mark.parametrize(
    "A, B",
    [
        (box_operator([0.0, 0.0], [1.0, 1.0]), zero_cocoercive()),
        (zero_operator(), quadratic_gradient([0.5, 0.5], [1.0, 1.0])),
    ],
    ids=["box", "quadratic"],
)
def test_an_operator_longer_than_the_space_is_refused(A, B):
    # on R^1, numpy broadcasts a 2-entry operator to 2 coordinates, and the
    # float forms would read its first entry only: create refuses it
    schedule = builtin_example_schedule(0.5)
    family = forward_backward_family(A, B, schedule.gamma, np.array([0.5]))
    with pytest.raises(ValueError, match=r"shape \(1,\), got \(2,\)"):
        ProblemInstance.create(
            EuclideanSpace(1), family, schedule, u=np.array([0.5]), x0=np.array([2.0])
        )


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
    schedule = replace(
        builtin_example_schedule(0.5), gamma=lambda n: 1.5, chi_gamma=lambda k: 0, N_Gamma=3
    )
    # constant gamma has modulus 0, so chi_T collapses to N_Gamma
    from tmann.mappings import chi_T_from_gamma

    chi_T = chi_T_from_gamma(1, schedule.Gamma_cap, schedule.N_Gamma, schedule.chi_gamma)
    assert [chi_T(k) for k in range(4)] == [3, 3, 3, 3]
    bundle = splitting_rates(zero_operator(), zero_cocoercive(), schedule, 1)
    assert bundle.chi(0) >= 3


def test_run_tfb_rejects_out_of_range_lambda():
    schedule = replace(builtin_example_schedule(0.5), lam=lambda n: 0.0, Lambda_cap=1)
    report = validate_schedule_moduli(schedule, k_max=2, horizon=20)
    assert report.status == "fail" and not report.lambda_cap_ok
