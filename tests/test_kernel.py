"""The array orbit kernel against per-step reference loops.

``run_tikhonov_mann`` steps only the anchored recursion and computes its
residuals afterwards with array operations, and the orbit checks compute
the distances they need from the stored orbit the same way;
``run_modified_halpern`` runs no loop and replays each Halpern step on the
same stored orbit with ``fn_array`` and ``combine_array``.  The reference
loops below, one for each iteration, compute each value at its step with
``point_dist``, ``combine_points`` and ``fn`` on loop points.  Both must
agree bit for bit, on every family with a closed-form array evaluation
(the forward-backward pairs included, whose builtin operators step on
Python floats) and on custom families, whose array form applies ``fn`` row
by row.  The compiled orbit kernel is compared, store byte for store byte,
with the loop that calls ``mix`` and ``fn`` once per step, on edge inputs
and across block boundaries.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from tmann import checks, iterate, mappings
from tmann.checks import Row
from tmann.geometry import (
    BrokenEuclideanSpace,
    EuclideanSpace,
    Space,
    StarTreeSpace,
    TreePoint,
    TreePoints,
)
from tmann.iterate import (
    RECURSION_REL,
    BoundCheck,
    ProblemInstance,
    _orbit,
    check_basic_bounds,
    check_halpern_equivalence,
    check_recursive_inequalities,
    run_modified_halpern,
    run_tikhonov_mann,
    u_points,
)
from tmann.mappings import (
    MappingFamily,
    box_projection_family,
    identity_family,
    resolvent_l1_family,
    resolvent_quadratic_family,
    tree_contraction_family,
)
from tmann.sequences import (
    ParamSchedule,
    builtin_example_schedule,
    builtin_linear_schedule,
    terms,
)

from conftest import combine_points, per_row, point_dist, row_bits
from test_mappings import EDGE_BOXES, EDGE_STEPS, EDGE_VALUES, builtin_fb_operators, edge_points

HORIZON = 400
#: The residual sequences an ``IterationTrace`` keeps.
SEQUENCES = ("residual_step", "residual_T", "tfam_gap")
#: The distances the orbit checks compute from the stored orbit: d(u_{n+1}, u_n)
#: for n < horizon - 1, d(x_n, p) and d(x_n, u) for n <= horizon, d(u_n, p)
#: and d(u_n, T_n u_n) for n < horizon.
DISTANCES = ("dist_u_succ", "dist_x_p", "dist_x_u", "dist_u_p", "dist_u_Tu")


def reference_tikhonov_mann(instance, horizon):
    """The anchored iteration with every value computed at its step."""
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u, p = instance.u, instance.p
    seqs = {name: [] for name in SEQUENCES + DISTANCES}
    x = sp.to_loop(instance.x0)
    xs, us = [x], []
    for n in range(horizon):
        u_n = combine_points(sp, u, x, sch.beta(n))
        t_un = fam.fn(n, u_n)
        x_next = combine_points(sp, u_n, t_un, sch.lam(n))
        seqs["residual_step"].append(point_dist(sp, x, x_next))
        seqs["residual_T"].append(point_dist(sp, x, fam.fn(n, x)))
        seqs["tfam_gap"].append(point_dist(sp, fam.fn(n + 1, u_n), t_un))
        seqs["dist_x_p"].append(point_dist(sp, x, p))
        seqs["dist_x_u"].append(point_dist(sp, x, u))
        seqs["dist_u_p"].append(point_dist(sp, u_n, p))
        seqs["dist_u_Tu"].append(point_dist(sp, u_n, t_un))
        if n > 0:
            seqs["dist_u_succ"].append(point_dist(sp, u_n, us[-1]))
        xs.append(x_next)
        us.append(u_n)
        x = x_next
    seqs["dist_x_p"].append(point_dist(sp, x, p))
    seqs["dist_x_u"].append(point_dist(sp, x, u))
    return seqs, xs, us


def reference_halpern(instance, horizon):
    """The modified Halpern iteration with every value computed at its step."""
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u = instance.u
    y = combine_points(sp, u, instance.x0, sch.beta(0))
    ys, vs, residual_step, residual_T = [y], [], [], []
    for n in range(horizon):
        t_yn = fam.fn(n, y)
        v = combine_points(sp, y, t_yn, sch.lam(n))
        y_next = combine_points(sp, u, v, sch.beta(n + 1))
        residual_step.append(point_dist(sp, y, y_next))
        residual_T.append(point_dist(sp, y, t_yn))
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


def point_bytes(points):
    """The bit pattern of a point array."""
    if isinstance(points, TreePoints):
        return points.ray.tobytes() + points.t.tobytes()
    return points.tobytes()


def planar_rotation_family(dim):
    """Custom family: rotate the first two coordinates by 0.3 / (n + 1)."""

    def rotate(n, x):
        a = 0.3 / (n + 1)
        c, s = np.cos(a), np.sin(a)
        out = np.array(x, dtype=float)
        out[0], out[1] = c * x[0] - s * x[1], s * x[0] + c * x[1]
        return out

    return MappingFamily(
        name="rotation", fn=rotate, fixed_point=np.zeros(dim),
        fn_array=per_row(EuclideanSpace(dim), rotate),
    )


def doubling_family(dim):
    """Custom family T_n x = 2 x in array arithmetic, returning an ndarray:
    on the loop point, a list of floats, 2 * x would repeat the list."""
    return MappingFamily(
        name="doubling", fn=lambda n, x: 2 * np.asarray(x), fixed_point=np.zeros(dim),
        fn_array=lambda ns, xs: 2 * xs,
    )


def ray_shift_family(num_rays):
    """Custom star-tree family: move every point to the next ray (an isometry)."""
    fn = lambda n, x: TreePoint((x.ray + 1) % num_rays, x.t)
    return MappingFamily(
        name="ray_shift", fn=fn, fixed_point=TreePoint(0, 0.0),
        fn_array=per_row(StarTreeSpace(num_rays), fn),
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
    family = mappings.forward_backward_family(A, B, schedule.gamma, z)
    return _euclidean(len(z), family, schedule, u, x0, p=z, space=EuclideanSpace(len(z)))


def _lasso(schedule):
    A = mappings.l1_operator(1.0)
    B = mappings.quadratic_gradient([0.5, 0.7], [2.0, -3.0])
    return _forward_backward(A, B, schedule, u=[0.0, -2.0], x0=[0.3, -1.5], z=[0.0, -1.1 / 0.49])


def _box_projection_splitting(schedule):
    A = mappings.box_operator([-1.0, -1.0], [1.0, 1.0])
    B = mappings.zero_cocoercive()
    return _forward_backward(A, B, schedule, u=[0.2, 0.9], x0=[1.8, 2.4], z=[0.0, 0.0])


def group_lasso_operator(weight):
    """Custom operator: the prox of weight * ||x||, which shrinks a point
    toward 0 by gamma * weight along its ray.  Its norm runs over the last
    axis, so one point with a float step and a point array with a step
    column give the same rows."""

    def prox(gamma, x):
        norm = np.linalg.norm(x, axis=-1, keepdims=True)
        shrink = gamma * weight
        return np.maximum(1.0 - shrink / np.maximum(norm, shrink), 0.0) * x

    return mappings.MonotoneOp(
        name="group_lasso", prox=prox, prox_point=lambda gamma, x: prox(gamma, np.asarray(x))
    )


def _group_lasso_splitting(schedule):
    A = group_lasso_operator(0.3)
    B = mappings.zero_cocoercive()
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
    # the other builtin (A, B) pairs, each of which runs on Python floats
    "euclidean_forward_backward_box_quadratic": lambda: _forward_backward(
        mappings.box_operator([0.0], [1.0]), mappings.quadratic_gradient([0.8], [2.0]), EXAMPLE,
        u=[0.0], x0=[0.5], z=[1.0],
    ),
    "euclidean_forward_backward_l1_zero": lambda: _forward_backward(
        mappings.l1_operator(0.3), mappings.zero_cocoercive(), LINEAR,
        u=[0.2, 0.9], x0=[1.8, -2.4], z=[0.0, 0.0],
    ),
    "euclidean_forward_backward_zero_quadratic": lambda: _forward_backward(
        mappings.zero_operator(), mappings.quadratic_gradient([0.5, 0.0], [1.0, 0.0]), LINEAR,
        u=[0.0, 0.5], x0=[1.5, -0.4], z=[2.0, 0.0],
    ),
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
    "euclidean_doubling_custom": lambda: _euclidean(
        2, doubling_family(2), LINEAR, [0.3, 0.2], [1.5, -0.4]
    ),
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
    assert_points_equal(instance.space, u_points(instance, trace.x, slice(0, HORIZON)), us)
    # the array evaluation itself returns the points fn does
    sp, fam = instance.space, instance.family
    mapped = fam.fn_array(np.arange(len(xs)), trace.x)
    assert_points_equal(sp, mapped, [fam.fn(n, x) for n, x in enumerate(xs)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_halpern_kernel_matches_per_step_loop(case):
    instance = CASES[case]()
    ha = run_modified_halpern(instance, HORIZON)
    residual_step, residual_T, ys, vs = reference_halpern(instance, HORIZON)
    # the trace keeps y_1 .. y_H; its u_0 is the start y_0, bit for bit
    assert_points_equal(instance.space, ha.y, ys[1:])
    assert point_bytes(ha.u[:1]) == point_bytes(instance.space.stack(ys[:1]))
    assert_points_equal(instance.space, ha.v, vs)
    # the trace is the anchored orbit: y_n = u_n and v_n = x_{n+1}, so the
    # Halpern residuals are the anchored trace's (but the last step residual)
    trace = run_tikhonov_mann(instance, HORIZON)
    sp, us = instance.space, u_points(instance, trace.x, slice(0, HORIZON))
    assert_points_equal(instance.space, ha.y[:-1], list(us[1:]))
    assert_points_equal(instance.space, ha.v, list(trace.x[1:]))
    t_us = instance.family.fn_array(np.arange(HORIZON), us)
    assert np.array_equal(sp.dist_array(us, t_us), np.array(residual_T))
    assert np.array_equal(sp.dist_array(us[1:], us[:-1]), np.array(residual_step[:-1]))

    report = check_halpern_equivalence(instance, HORIZON)
    _, xs, us = reference_tikhonov_mann(instance, HORIZON)
    assert report.max_u_y == max(point_dist(sp, us[n], ys[n]) for n in range(HORIZON))
    assert report.max_x_v == max(point_dist(sp, xs[n + 1], vs[n]) for n in range(HORIZON))


def first_worst(values):
    """The index and value of the first NaN of ``values``, else of its first
    largest entry."""
    values = np.asarray(values, dtype=float)
    nans = np.flatnonzero(np.isnan(values))
    i = int(nans[0]) if nans.size else int(np.argmax(values))
    return i, float(values[i])


#: The orbit-bound rows: name, reference distance, bound in units of M.
BOUNDS = (
    ("d(x_n, p)", "dist_x_p", 1),
    ("d(x_n, u)", "dist_x_u", 2),
    ("d(u_n, p)", "dist_u_p", 1),
    ("d(u_n, T_n u_n)", "dist_u_Tu", 2),
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_orbit_checks_read_the_per_step_distances(case):
    # the bound rows and recursion (a) compute their distances from the
    # stored orbit; each row is the worst entry of the reference's lists
    instance = CASES[case]()
    trace = run_tikhonov_mann(instance, HORIZON)
    seqs, _, _ = reference_tikhonov_mann(instance, HORIZON)
    M = float(instance.M)
    for row, (name, seq, factor) in zip(check_basic_bounds(instance, trace).checks, BOUNDS):
        at, value = first_worst(seqs[seq])
        bound = factor * M
        expected = BoundCheck(name, value - bound, at, bound=bound, worst_value=value)
        assert row_bits(row) == row_bits(expected)
    beta = terms(instance.schedule.beta, np.arange(HORIZON))
    rhs = beta[1:] * np.array(seqs["residual_step"][:-1]) + 2 * M * np.abs(np.diff(beta))
    excess = np.array(seqs["dist_u_succ"]) - rhs - RECURSION_REL * np.maximum(1.0, rhs)
    at, value = first_worst(excess)
    anchor_step = check_recursive_inequalities(instance, trace).checks[0]
    assert row_bits(anchor_step) == row_bits(Row("anchor_step (a)", value, at))


@pytest.mark.parametrize(
    "case", ["euclidean_box", "broken_euclidean_box", "euclidean_rotation_custom", "tree_contraction"]
)
def test_u_sequence_computed_in_blocks_equals_per_step_loop(case, monkeypatch):
    # 400 rows in blocks of 7: 57 full blocks and a last one of 1 row
    monkeypatch.setattr(checks, "BLOCK_ROWS", 7)
    instance = CASES[case]()
    _, xs, us = reference_tikhonov_mann(instance, HORIZON)
    trace = run_tikhonov_mann(instance, HORIZON)
    assert_points_equal(instance.space, trace.x, xs)
    # as each reader rebuilds them: a whole block, and the blocks of 7
    # that recursion (a) reads, one row past each block
    assert_points_equal(instance.space, u_points(instance, trace.x, slice(0, HORIZON)), us)
    for start in range(0, HORIZON - 1, 7):
        rows = slice(start, min(start + 8, HORIZON))
        assert_points_equal(instance.space, u_points(instance, trace.x, rows), us[rows])


def drifting_array_family(row):
    """T_n maps every point to 0; its array form moves row ``row`` by 1e-3."""
    constant = box_projection_family([0.0], [0.0])

    def drifting(ns, xs):
        return constant.fn_array(ns, xs) + np.where(ns == row, 1e-3, 0.0)[:, None]

    return MappingFamily(
        name="drifting_array",
        fn=constant.fn,
        fixed_point=constant.fixed_point,
        fn_array=drifting,
    )


def test_halpern_check_flags_an_array_form_that_moves_one_row():
    # negative controls.  create evaluates T_0 .. T_9 at p through the
    # array form, so a move at n = 7 already stops it there.
    schedule = _schedule(LINEAR.beta, lambda n: 1.0)
    with pytest.raises(ValueError, match="not fixed by T_7: moved by 0.001"):
        _euclidean(1, drifting_array_family(7), schedule, u=[0.4], x0=[1.5])
    # Past those maps, at n = 12, the Halpern check must flag it: with
    # lambda_n = 1 the v-step takes T_n u_n whole, so the replayed V_12
    # sits exactly 1e-3 from x_13 = 0.
    instance = _euclidean(1, drifting_array_family(12), schedule, u=[0.4], x0=[1.5])
    report = check_halpern_equivalence(instance, HORIZON)
    assert max(report.max_u_y, report.max_x_v) >= 1e-3, report.summary()
    assert not report.passed
    # the y-step carries it on: Y_13 = W(u, V_12, beta_13) sits beta_13 * 1e-3
    # from u_13, and no other defect adds to the running sum
    assert report.max_u_y == pytest.approx(LINEAR.beta(13) * 1e-3, rel=1e-9)
    # the Halpern trace replays the steps with the array form, so it shows
    # the drift: v_12 = 1e-3 where the loop, which calls fn, has x_13 = 0,
    # and every other v_n is the orbit's x_{n+1}
    ha = run_modified_halpern(instance, HORIZON)
    orbit = run_tikhonov_mann(instance, HORIZON).x[1:]
    assert ha.v[12].tolist() == [1e-3] and orbit[12].tolist() == [0.0]
    assert np.array_equal(np.delete(ha.v, 12, axis=0), np.delete(orbit, 12, axis=0))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_quadratic_resolvent_array_equals_per_point_solve(dim):
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((dim, dim))
    Q = A @ A.T
    Q[-1] = Q[:, -1] = 0.0  # a singular Q is positive semidefinite too
    family = resolvent_quadratic_family(Q, LINEAR.gamma)
    ns = rng.integers(0, 50_000, size=5_000)
    xs = rng.uniform(-3.0, 3.0, size=(5_000, dim))
    eye = np.eye(dim)
    solved = [np.linalg.solve(eye + LINEAR.gamma(n) * Q, x) for n, x in zip(ns.tolist(), xs)]
    expected = np.array([family.fn(n, x) for n, x in zip(ns.tolist(), xs.tolist())])
    assert np.array_equal(expected, np.array(solved))
    assert np.array_equal(family.fn_array(ns, xs), expected)


def test_stored_points_index_as_points_of_the_space():
    instance = CASES["tree_contraction"]()
    trace = run_tikhonov_mann(instance, 5)
    assert isinstance(trace.x[3], TreePoint)
    assert len(trace.x) == 6 and len(u_points(instance, trace.x, slice(0, 5))) == 5
    assert trace.x[0] == instance.x0
    euclid = CASES["random_3d_box"]()
    assert run_tikhonov_mann(euclid, 5).x[2].shape == (3,)


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


#: A step past the first block of the loop's schedule terms.
PAST_FIRST_BLOCK = checks.BLOCK_ROWS + 3


@pytest.mark.parametrize(
    "beta, lam, horizon, raising",
    [
        (lambda n: 0.5, lambda n: 1.5 if n == 20 else 0.5, 20, set()),
        (lambda n: 0.5, lambda n: 1.5 if n == 19 else 0.5, 20, {"anchored", "halpern"}),
        (lambda n: 1.5 if n == 20 else 0.5, lambda n: 0.5, 20, {"halpern"}),
        (
            lambda n: 1.5 if n == PAST_FIRST_BLOCK else 0.5, lambda n: 0.5,
            PAST_FIRST_BLOCK + 5, {"anchored", "halpern"},
        ),
    ],
    ids=["lambda_H", "lambda_H_minus_1", "beta_H", "beta_past_the_first_block"],
)
def test_each_loop_checks_exactly_the_terms_it_reads(beta, lam, horizon, raising):
    # over H = 20 steps the anchored loop reads beta_0 .. beta_19 and
    # lambda_0 .. lambda_19; the Halpern trace also reads beta_20, for y_20,
    # and so does the check that reads its defects off that trace.  The loop
    # reads its terms a block at a time, but refuses a bad one in any block
    # before its first step, so it never calls fn.
    identity = identity_family(np.zeros(1))
    calls = []

    def fn(n, x):
        calls.append(n)
        return identity.fn(n, x)

    family = dataclasses.replace(identity, fn=fn)
    for name, run in (
        ("anchored", run_tikhonov_mann),
        ("halpern", run_modified_halpern),
        ("halpern", check_halpern_equivalence),
    ):
        instance = ProblemInstance.create(
            EuclideanSpace(1), family, _schedule(beta, lam),
            u=np.zeros(1), x0=np.ones(1), p=np.zeros(1), M=1,
        )
        calls.clear()
        if name in raising:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                run(instance, horizon)
            if "anchored" in raising:  # refused before the loop's first step
                assert calls == []
        else:
            assert run(instance, horizon).horizon == horizon


@pytest.mark.parametrize(
    "space, p, x0, escaped, message",
    [
        (EuclideanSpace(2), np.zeros(2), np.ones(2), np.zeros(3), r"shape \(2,\), got \(3,\)"),
        (EuclideanSpace(2), np.zeros(2), np.ones(2), [0.0, 0.0, 0.0], r"shape \(2,\), got \(3,\)"),
        # a 2-tuple, which np.asarray would read as 2 coordinates
        (EuclideanSpace(2), np.zeros(2), np.ones(2), TreePoint(1, 2.0),
         "expected 2 numbers, got TreePoint"),
        # a list of d entries that are not all floats goes through as_point
        (EuclideanSpace(2), np.zeros(2), np.ones(2), [None, None], "expected 2 numbers, got list"),
        (StarTreeSpace(3), TreePoint(0, 0.0), TreePoint(1, 1.0), TreePoint(3, 1.0),
         "ray index 3 out of range for 3 rays"),
    ],
    ids=[
        "euclidean_wrong_shape", "euclidean_list_of_wrong_length", "euclidean_TreePoint",
        "euclidean_list_of_non_numbers", "tree_ray_out_of_range",
    ],
)
def test_family_output_outside_the_space_stops_both_loops(space, p, x0, escaped, message):
    # T_n is the identity except at n = 12, past the fixed-point check of create
    fn = lambda n, x: escaped if n == 12 else x
    family = MappingFamily(name="escape", fn=fn, fixed_point=p, fn_array=per_row(space, fn))
    instance = ProblemInstance.create(space, family, LINEAR, u=p, x0=x0)
    with pytest.raises(ValueError, match=message):
        run_tikhonov_mann(instance, 20)
    with pytest.raises(ValueError, match=message):
        run_modified_halpern(instance, 20)


@pytest.mark.parametrize("bad_gamma", [2.0, 2.5, 0.0])
def test_forward_backward_step_size_outside_range_raises(bad_gamma):
    A = mappings.zero_operator()
    B = mappings.quadratic_gradient([1.0], [0.0])  # beta = 1, so gamma must lie in (0, 2)
    family = mappings.forward_backward_family(
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
        family.fn_array(np.arange(20), np.ones((20, 1)))
    # the loop's fn steps on Python floats and checks its step size too
    assert family.fn(14, [1.0]) == [0.0]
    with pytest.raises(ValueError, match=f"^step size gamma = {bad_gamma!r} outside"):
        family.fn(15, [1.0])


# ------------------------------------------------------------ the orbit kernel


def per_step_orbit(instance, horizon):
    """The anchored loop as the loop points' own forms step it: ``mix`` and
    ``fn`` called once per step, each output of ``fn`` checked by ``to_loop``."""
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u, x = sp.to_loop(instance.u), sp.to_loop(instance.x0)
    xs = [x]
    for n in range(horizon):
        u_n = sp.mix(u, x, sch.beta(n))
        x = sp.mix(u_n, sp.to_loop(fam.fn(n, u_n)), sch.lam(n))
        xs.append(x)
    return xs


def orbit_bytes(points):
    """The bit pattern of an orbit: a stored point array, or a list of loop points."""
    if not isinstance(points, list):
        return point_bytes(points)
    if isinstance(points[0], TreePoint):
        ray, t = zip(*points)
        return point_bytes(TreePoints(np.array(ray), np.array(t, dtype=float)))
    return np.array(points, dtype=float).tobytes()


#: beta_n and lambda_n of the edge orbits: both ends of [0, 1], and halves
#: and quarters, so u_n and x_{n+1} land on u, x_n, T_n u_n and between.
EDGE_BETA = lambda n: (0.0, 1.0, 0.5, 0.25, 1.0, 0.75, 0.0, 0.5, 1.0)[n % 9]
EDGE_LAM = lambda n: (1.0, 0.5, 0.0, 1.0, 0.25, 1.0, 0.5)[n % 7]
EDGE_SCHEDULE = _schedule(EDGE_BETA, EDGE_LAM)
#: Orbits of three blocks of 7 and one step more.
EDGE_HORIZON = 22


def edge_instance(space, family, u, x0):
    """An instance on edge inputs, which ``create`` would refuse (a NaN or
    infinite d(x0, p)): the loop must still agree with its forms there."""
    return ProblemInstance(space, family, EDGE_SCHEDULE, u=u, x0=x0, p=family.fixed_point, M=1)


def assert_kernel_is_per_step_loop(instance):
    with np.errstate(invalid="ignore", over="ignore"):
        stored = _orbit(instance, EDGE_HORIZON)
    assert orbit_bytes(stored) == orbit_bytes(per_step_orbit(instance, EDGE_HORIZON))


def euclidean_families(dim, rng):
    """Every builtin family the kernel inlines on R^dim: the identity, boxes
    with signed-zero faces, l1 resolvents whose thresholds tie with the edge
    values, and forward-backward on every builtin operator pair."""
    A, B = builtin_fb_operators(dim, rng)
    yield "identity", identity_family(np.zeros(dim))
    for lo, hi in EDGE_BOXES:
        yield f"box[{lo}, {hi}]", box_projection_family([lo] * dim, [hi] * dim)
    for weight in (1.0, 0.0):
        yield f"l1({weight})", resolvent_l1_family(EDGE_STEPS, dim=dim, weight=weight)
    for a_name, b_name in itertools.product(A, B):
        family = mappings.forward_backward_family(A[a_name], B[b_name], EDGE_STEPS, np.zeros(dim))
        yield f"fb[{a_name}+{b_name}]", family


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inlined_euclidean_families_step_as_their_point_forms(dim, monkeypatch):
    # edge values in u and x0 (both zeros, NaNs of both signs, infinities,
    # box faces, l1 ties) over blocks of 7 steps, the kernel's store bytes
    # against the loop that calls mix and fn
    monkeypatch.setattr(checks, "BLOCK_ROWS", 7)
    rng = np.random.default_rng(dim)
    space = EuclideanSpace(dim)
    starts = edge_points(rng, dim, EDGE_VALUES)[:: 7 - dim]
    for name, family in euclidean_families(dim, rng):
        assert family.fn.fragment is not None, name
        for u, x0 in zip(starts, starts[::-1]):
            assert_kernel_is_per_step_loop(edge_instance(space, family, u, x0))


TREE_STARTS = [
    (TreePoint(1, 1.0), TreePoint(2, 1.0)),  # beta = 0.5 walks to the origin
    (TreePoint(1, 1.0), TreePoint(2, 3.0)),  # and beta = 0.5 past it, onto ray 2
    (TreePoint(1, 0.7), TreePoint(1, 1.9)),  # along one ray
    (TreePoint(0, 0.0), TreePoint(2, 1.5)),  # from the origin
    (TreePoint(2, 5e-324), TreePoint(1, 5e-324)),  # subnormal radii
    (TreePoint(0, -0.0), TreePoint(1, 2.0)),  # the origin with a signed zero
    (TreePoint(1, 1e300), TreePoint(2, 1e300)),
]


@pytest.mark.parametrize(
    "family",
    [identity_family(TreePoint(0, 0.0))]
    + [tree_contraction_family(f) for f in (0.0, 0.5, 1.0)],
    ids=["identity", "contraction(0)", "contraction(0.5)", "contraction(1)"],
)
def test_inlined_tree_families_step_as_their_point_forms(family, monkeypatch):
    monkeypatch.setattr(checks, "BLOCK_ROWS", 7)
    space = StarTreeSpace(3)
    for u, x0 in TREE_STARTS + [(x0, u) for u, x0 in TREE_STARTS]:
        assert_kernel_is_per_step_loop(edge_instance(space, family, u, x0))


@pytest.mark.parametrize("beta, shown", [(0.75, "inf"), (0.0, "nan")])
def test_tree_kernel_refuses_an_overflowed_radius_as_tree_point_does(beta, shown):
    # d(u, x0) = 2e308 overflows: W walks past the origin to an infinite
    # radius, or, at beta = 0, to 0 * inf
    instance = ProblemInstance(
        StarTreeSpace(3), tree_contraction_family(1.0), _schedule(lambda n: beta, lambda n: 0.5),
        u=TreePoint(1, 1e308), x0=TreePoint(2, 1e308), p=TreePoint(0, 0.0), M=1,
    )
    message = f"radial coordinate must be finite and >= 0, got {shown}$"
    with pytest.raises(ValueError, match=message):
        _orbit(instance, 5)
    with pytest.raises(ValueError, match=message):
        per_step_orbit(instance, 5)


class CountingEuclideanSpace(EuclideanSpace):
    """Euclidean space whose own ``mix``, an unmarked method, counts its calls."""

    def __init__(self, dim):
        super().__init__(dim)
        self.calls = 0

    def mix(self, x, y, lam):
        self.calls += 1
        return super().mix(x, y, lam)


def test_unmarked_fn_and_mix_are_called_once_per_step():
    # a replaced fn and an overriding mix carry no fragment: the kernel calls
    # them, once per step each, and stores what the inlined kernel stores
    box = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    calls = []

    def fn(n, x):
        calls.append(n)
        return box.fn(n, x)

    counted = CountingEuclideanSpace(2)
    stored = {}
    for name, space, family in (
        ("inlined", EuclideanSpace(2), box),
        ("fn", EuclideanSpace(2), dataclasses.replace(box, fn=fn)),
        ("mix", counted, box),
    ):
        instance = _euclidean(2, family, LINEAR, [0.2, 0.9], [1.8, 2.4], space=space)
        calls.clear()
        counted.calls = 0
        stored[name] = _orbit(instance, 50).tobytes()
        assert (calls, counted.calls) == {
            "inlined": ([], 0), "fn": (list(range(50)), 0), "mix": ([], 2 * 50)
        }[name]
    assert stored["fn"] == stored["mix"] == stored["inlined"]


class OwnLine(Space):
    """A space of its own on the line, with no loop form: a loop point is
    one opaque coordinate, here a 1-tuple, and no fragment fits it but the
    identity's."""

    def __init__(self):
        self.line = EuclideanSpace(1)

    def as_point(self, p):
        return self.line.as_point(p)

    def to_loop(self, p):
        return tuple(self.as_point(p).tolist())

    def mix(self, x, y, lam):
        return (self.line.mix(list(x), list(y), lam)[0],)

    def sample(self, rng, count):
        return self.line.sample(rng, count)

    def collect(self, points, count):
        return self.line.collect(points, count)

    def dist_array(self, x, y):
        return self.line.dist_array(x, y)

    def combine_array(self, x, y, lam):
        return self.line.combine_array(x, y, lam)


@pytest.mark.parametrize(
    "family",
    [identity_family(np.zeros(1)), box_projection_family([-1.0], [1.0])],
    ids=["identity", "box"],
)
def test_a_space_without_a_loop_form_runs_the_kernel_on_opaque_points(family, monkeypatch):
    # the identity's fragment is inlined on the opaque coordinate; the box's
    # is written for Euclidean loop points, so its fn is called
    monkeypatch.setattr(checks, "BLOCK_ROWS", 7)
    instance = ProblemInstance.create(OwnLine(), family, LINEAR, u=[0.4], x0=[1.5])
    assert point_bytes(_orbit(instance, EDGE_HORIZON)) == orbit_bytes(
        per_step_orbit(instance, EDGE_HORIZON)
    )


def test_many_starts_compile_one_kernel_per_shape():
    # 160 starts on each of three pairs, as the many-starts search draws
    # them, every family built anew with its own parameters: the kernel is
    # keyed on the shape, not on the parameter values
    rng = np.random.default_rng(3)
    plane, tree = EuclideanSpace(2, box_radius=3.0), StarTreeSpace(3, max_radius=3.0)
    iterate._kernel_source.cache_clear()
    for i in range(160):
        a, b, c = rng.uniform(0.5, 1.5, 3)
        for space, family in (
            (plane, box_projection_family([-a, -b], [b, a])),
            (plane, resolvent_l1_family(LINEAR.gamma, dim=2, weight=c)),
            (tree, tree_contraction_family(c / 2)),
        ):
            if space is tree:
                u, x0 = TreePoint(int(i % 3), a), TreePoint(int((i + 1) % 3), b)
            else:
                u, x0 = rng.uniform(-2.0, 2.0, (2, 2))
            instance = ProblemInstance.create(space, family, LINEAR, u=u, x0=x0)
            run_tikhonov_mann(instance, 200)
    assert iterate._kernel_source.cache_info().misses == 3


@pytest.mark.parametrize("case", ["euclidean_box", "tree_contraction"])
def test_orbit_peak_is_the_store_on_both_paths(case):
    # the kernel writes straight into the store, and so does a called fn:
    # neither keeps a list of points, so both peaks are the store's size.
    # Each instance is built by create, which compiles its kernel, so the
    # trace holds the orbit alone whatever ran before
    instance = CASES[case]()
    wrapped = dataclasses.replace(instance.family, fn=lambda n, x: instance.family.fn(n, x))
    peaks = []
    for family in (instance.family, wrapped):
        fresh = ProblemInstance.create(
            instance.space, family, instance.schedule, u=instance.u, x0=instance.x0
        )
        tracemalloc.start()
        _orbit(fresh, 20_000)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    store = 20_001 * 16  # two 8-byte coordinates per point, on either space
    assert abs(peaks[0] - peaks[1]) < 2_048, peaks
    # past the store, a few arrays of one block's terms (32 KB each); lists
    # of a block's points would take 0.4 MB more
    assert store < peaks[0] < store + 8 * 8 * checks.BLOCK_ROWS, peaks

