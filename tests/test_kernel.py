"""The array orbit kernel against a per-step reference loop.

``run_tikhonov_mann`` and ``run_modified_halpern`` step only the recursion
and compute every residual and distance afterwards with array operations.
The reference loops below compute each value at its step with ``dist``,
``combine`` and ``eval`` on single points.  Both must agree bit for bit, on
every family with a closed-form array evaluation and on custom families,
which take the per-point fallback.
"""

import numpy as np
import pytest

from tmann import splitting
from tmann.geometry import (
    BrokenEuclideanSpace,
    EuclideanSpace,
    StarTreeSpace,
    TreePoint,
    TreePoints,
)
from tmann.iterate import (
    ProblemInstance,
    check_halpern_equivalence,
    run_modified_halpern,
    run_tikhonov_mann,
)
from tmann.mappings import (
    MappingFamily,
    box_projection_family,
    identity_family,
    resolvent_l1_family,
    resolvent_quadratic_family,
    tree_contraction_family,
)
from tmann.sequences import ParamSchedule, builtin_example_schedule, builtin_linear_schedule

HORIZON = 400
SEQUENCES = (
    "residual_step",
    "residual_T",
    "tfam_gap",
    "dist_u_succ",
    "dist_x_p",
    "dist_x_u",
    "dist_u_p",
    "dist_u_Tu",
)


def reference_tikhonov_mann(instance, horizon):
    """The anchored iteration with every value computed at its step."""
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u, p = instance.u, instance.p
    seqs = {name: [] for name in SEQUENCES}
    x = instance.x0
    xs, us = [x], []
    for n in range(horizon):
        u_n = sp.combine(u, x, sch.beta(n))
        t_un = fam.eval(n, u_n)
        x_next = sp.combine(u_n, t_un, sch.lam(n))
        seqs["residual_step"].append(sp.dist(x, x_next))
        seqs["residual_T"].append(sp.dist(x, fam.eval(n, x)))
        seqs["tfam_gap"].append(sp.dist(fam.eval(n + 1, u_n), t_un))
        seqs["dist_x_p"].append(sp.dist(x, p))
        seqs["dist_x_u"].append(sp.dist(x, u))
        seqs["dist_u_p"].append(sp.dist(u_n, p))
        seqs["dist_u_Tu"].append(sp.dist(u_n, t_un))
        if n > 0:
            seqs["dist_u_succ"].append(sp.dist(u_n, us[-1]))
        xs.append(x_next)
        us.append(u_n)
        x = x_next
    seqs["dist_x_p"].append(sp.dist(x, p))
    seqs["dist_x_u"].append(sp.dist(x, u))
    return seqs, xs, us


def reference_halpern(instance, horizon):
    """The modified Halpern iteration with every value computed at its step."""
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u = instance.u
    y = sp.combine(u, instance.x0, sch.beta(0))
    ys, vs, residual_step, residual_T = [y], [], [], []
    for n in range(horizon):
        t_yn = fam.eval(n, y)
        v = sp.combine(y, t_yn, sch.lam(n))
        y_next = sp.combine(u, v, sch.beta(n + 1))
        residual_step.append(sp.dist(y, y_next))
        residual_T.append(sp.dist(y, t_yn))
        vs.append(v)
        ys.append(y_next)
        y = y_next
    return residual_step, residual_T, ys, vs


def assert_points_equal(space, stored, reference):
    expected = space.stack(reference)
    if isinstance(expected, TreePoints):
        assert isinstance(stored, TreePoints)
        assert np.array_equal(stored.ray, expected.ray)
        assert np.array_equal(stored.t, expected.t)
    else:
        assert np.array_equal(stored, expected)


def planar_rotation_family(dim):
    """Custom family: rotate the first two coordinates by 0.3 / (n + 1)."""

    def rotate(n, x):
        a = 0.3 / (n + 1)
        c, s = np.cos(a), np.sin(a)
        out = np.array(x, dtype=float)
        out[0], out[1] = c * x[0] - s * x[1], s * x[0] + c * x[1]
        return out

    return MappingFamily(name="rotation", kind="custom", fn=rotate, fixed_point=np.zeros(dim))


def ray_shift_family(num_rays):
    """Custom star-tree family: move every point to the next ray (an isometry)."""
    return MappingFamily(
        name="ray_shift",
        kind="custom",
        fn=lambda n, x: TreePoint((x.ray + 1) % num_rays, x.t),
        fixed_point=TreePoint(0, 0.0),
    )


def _euclidean(dim, family, schedule, u, x0, p=None, space=None):
    space = space or EuclideanSpace(dim, box_radius=3.0)
    return ProblemInstance.create(
        space, family, schedule, u=np.array(u, dtype=float), x0=np.array(x0, dtype=float), p=p
    )


def _tree(family, schedule, u, x0):
    return ProblemInstance.create(
        StarTreeSpace(3, max_radius=3.0), family, schedule, u=TreePoint(*u), x0=TreePoint(*x0)
    )


def _forward_backward(A, B, schedule, u, x0, z):
    z = np.array(z)
    family = splitting.forward_backward_family(A, B, schedule.gamma, z)
    return _euclidean(len(z), family, schedule, u, x0, p=z, space=EuclideanSpace(len(z)))


def _lasso(schedule):
    A = splitting.l1_operator(1.0)
    B = splitting.quadratic_gradient([0.5, 0.7], [2.0, -3.0])
    return _forward_backward(A, B, schedule, u=[0.0, -2.0], x0=[0.3, -1.5], z=[0.0, -1.1 / 0.49])


def _box_projection_splitting(schedule):
    A = splitting.box_operator([-1.0, -1.0], [1.0, 1.0])
    B = splitting.zero_cocoercive(2)
    return _forward_backward(A, B, schedule, u=[0.2, 0.9], x0=[1.8, 2.4], z=[0.0, 0.0])


def group_lasso_operator(weight):
    """Custom operator on the scalar contract: the prox of weight * ||x||.
    Its norm spans the whole argument, so it cannot act row by row."""

    def prox(gamma, x):
        norm = np.linalg.norm(x)
        return np.zeros_like(x) if norm <= gamma * weight else (1.0 - gamma * weight / norm) * x

    return splitting.MonotoneOp(name="group_lasso", prox=prox)


def _group_lasso_splitting(schedule):
    A = group_lasso_operator(0.3)
    B = splitting.zero_cocoercive(2)
    return _forward_backward(A, B, schedule, u=[0.2, 0.9], x0=[1.8, 2.4], z=[0.0, 0.0])


def _random_3d(family, schedule):
    rng = np.random.default_rng(7)
    u, x0 = rng.uniform(-3.0, 3.0, size=(2, 3))
    return _euclidean(3, family, schedule, u, x0)


EXAMPLE = builtin_example_schedule(0.5)
LINEAR = builtin_linear_schedule(0.5)
Q3 = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.7]]

CASES = {
    "euclidean_identity": lambda: _euclidean(
        2, identity_family(np.zeros(2)), LINEAR, [0.5, 0.1], [1.2, -0.4]
    ),
    "euclidean_box": lambda: _euclidean(
        2, box_projection_family([-1.0, -1.0], [1.0, 1.0]), EXAMPLE, [0.2, 0.9], [1.8, 2.4]
    ),
    "euclidean_l1": lambda: _euclidean(
        1, resolvent_l1_family(LINEAR.gamma, dim=1), LINEAR, [0.0], [2.0]
    ),
    "euclidean_forward_backward": lambda: _lasso(EXAMPLE),
    "euclidean_forward_backward_box": lambda: _box_projection_splitting(LINEAR),
    "euclidean_forward_backward_custom_prox": lambda: _group_lasso_splitting(LINEAR),
    "euclidean_quadratic": lambda: _euclidean(
        2, resolvent_quadratic_family([[2.0, 0.5], [0.5, 1.0]], EXAMPLE.gamma), EXAMPLE,
        [0.4, -0.3], [1.5, 1.1],
    ),
    "euclidean_rotation_custom": lambda: _euclidean(
        2, planar_rotation_family(2), LINEAR, [0.3, 0.2], [1.5, -0.4]
    ),
    "broken_euclidean_box": lambda: _euclidean(
        2, box_projection_family([-1.0, -1.0], [1.0, 1.0]), LINEAR, [0.2, 0.9], [1.8, 2.4],
        space=BrokenEuclideanSpace(2, box_radius=3.0),
    ),
    "random_3d_box": lambda: _random_3d(box_projection_family([-0.5] * 3, [0.5] * 3), LINEAR),
    "random_3d_l1": lambda: _random_3d(
        resolvent_l1_family(LINEAR.gamma, dim=3, weight=0.2), LINEAR
    ),
    "random_3d_quadratic": lambda: _random_3d(
        resolvent_quadratic_family(Q3, LINEAR.gamma), LINEAR
    ),
    "random_3d_rotation_custom": lambda: _random_3d(planar_rotation_family(3), EXAMPLE),
    "tree_identity": lambda: _tree(
        identity_family(TreePoint(0, 0.0)), LINEAR, (1, 0.7), (2, 1.9)
    ),
    "tree_contraction": lambda: _tree(tree_contraction_family(0.5), EXAMPLE, (1, 0.7), (2, 1.9)),
    # factor 0 sends every point to the origin, which must land on ray 0
    "tree_collapse": lambda: _tree(tree_contraction_family(0.0), LINEAR, (1, 0.7), (2, 1.9)),
    "tree_ray_shift_custom": lambda: _tree(ray_shift_family(3), LINEAR, (1, 0.7), (2, 1.9)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tikhonov_mann_kernel_matches_per_step_loop(case):
    instance = CASES[case]()
    trace = run_tikhonov_mann(instance, HORIZON)
    seqs, xs, us = reference_tikhonov_mann(instance, HORIZON)
    for name in SEQUENCES:
        assert np.array_equal(getattr(trace, name), np.array(seqs[name])), name
    assert_points_equal(instance.space, trace.x, xs)
    assert_points_equal(instance.space, trace.u_seq, us)
    # the array evaluation itself returns the points eval does
    sp, fam = instance.space, instance.family
    mapped = fam.eval_array(sp, np.arange(len(xs)), trace.x)
    assert_points_equal(sp, mapped, [fam.eval(n, x) for n, x in enumerate(xs)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_halpern_kernel_matches_per_step_loop(case):
    instance = CASES[case]()
    ha = run_modified_halpern(instance, HORIZON)
    residual_step, residual_T, ys, vs = reference_halpern(instance, HORIZON)
    assert np.array_equal(ha.residual_step, np.array(residual_step))
    assert np.array_equal(ha.residual_T, np.array(residual_T))
    assert_points_equal(instance.space, ha.y, ys)
    assert_points_equal(instance.space, ha.v, vs)

    report = check_halpern_equivalence(instance, HORIZON)
    _, xs, us = reference_tikhonov_mann(instance, HORIZON)
    sp = instance.space
    assert report.max_u_y == max(sp.dist(us[n], ys[n]) for n in range(HORIZON))
    assert report.max_x_v == max(sp.dist(xs[n + 1], vs[n]) for n in range(HORIZON))


def test_stored_points_index_as_points_of_the_space():
    instance = CASES["tree_contraction"]()
    trace = run_tikhonov_mann(instance, 5)
    assert isinstance(trace.x[3], TreePoint)
    assert len(trace.x) == 6 and len(trace.u_seq) == 5
    assert trace.x[0] == instance.x0
    euclid = CASES["random_3d_box"]()
    assert run_tikhonov_mann(euclid, 5).x[2].shape == (3,)


def test_forward_backward_evaluates_arrays_only_for_rowwise_operators():
    library = CASES["euclidean_forward_backward"]().family
    custom = CASES["euclidean_forward_backward_custom_prox"]().family
    assert library.fn_array is not None
    assert custom.fn_array is None


def _schedule(beta, lam):
    return ParamSchedule(
        name="bad", beta=beta, lam=lam, sigma_beta=lambda k: k, chi_beta=lambda k: k,
        chi_lambda=lambda k: 0, sigma=lambda k: k, Lambda_cap=2, N_Lambda=0,
    )


@pytest.mark.parametrize(
    "beta, lam",
    [
        (lambda n: 1.5 if n == 3 else 0.5, lambda n: 0.5),
        (lambda n: -0.1, lambda n: 0.5),
        (lambda n: 0.5, lambda n: 1.0 + 1e-12 if n == 7 else 0.5),
    ],
    ids=["beta_above_one", "beta_negative", "lambda_above_one"],
)
def test_combination_parameter_outside_unit_interval_raises(beta, lam):
    instance = ProblemInstance.create(
        EuclideanSpace(1), identity_family(np.zeros(1)), _schedule(beta, lam),
        u=np.zeros(1), x0=np.ones(1), p=np.zeros(1), M=1,
    )
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        run_tikhonov_mann(instance, 20)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        run_modified_halpern(instance, 20)


@pytest.mark.parametrize("bad_gamma", [2.0, 2.5, 0.0])
def test_forward_backward_step_size_outside_range_raises(bad_gamma):
    A = splitting.zero_operator()
    B = splitting.quadratic_gradient([1.0], [0.0])  # beta = 1, so gamma must lie in (0, 2)
    family = splitting.forward_backward_family(
        A, B, lambda n: bad_gamma if n == 15 else 1.0, np.zeros(1)
    )
    instance = ProblemInstance.create(
        EuclideanSpace(1), family, LINEAR, u=np.zeros(1), x0=np.ones(1), p=np.zeros(1)
    )
    with pytest.raises(ValueError, match="step size"):
        run_tikhonov_mann(instance, 20)
    with pytest.raises(ValueError, match="step size"):
        run_modified_halpern(instance, 20)
    with pytest.raises(ValueError, match="step size"):
        family.eval_array(instance.space, np.arange(20), np.ones((20, 1)))
