import math
from dataclasses import replace

import numpy as np
import pytest

from tmann.geometry import EuclideanSpace, StarTreeSpace, TreePoint, TreePoints
from tmann.mappings import (
    MappingFamily,
    box_operator,
    box_projection_family,
    check_jp2_consequence,
    check_nonexpansive,
    chi_T_for,
    chi_T_from_gamma,
    constant_family_chi_T,
    forward_backward_family,
    identity_family,
    l1_operator,
    quadratic_gradient,
    resolvent_l1_family,
    resolvent_quadratic_family,
    soft_threshold,
    tree_contraction_family,
    zero_cocoercive,
    zero_operator,
)
from tmann.sequences import builtin_example_schedule, oracle_cauchy_modulus

from conftest import point_dist

GAMMA_EXAMPLE = lambda n: 1.0 + 1.0 / (n + 1)


def rotation_family(angles):
    """Planar rotations by angles(n): nonexpansive isometries that do not
    satisfy the cross-index comparison for any useful gamma."""

    def rotate(n, x):
        a = angles(n)
        c, s = np.cos(a), np.sin(a)
        return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    return MappingFamily(name="rotation", fn=rotate, fixed_point=np.zeros(2))


def test_identity_and_contraction_eval():
    fam = identity_family(np.zeros(2))
    assert fam.fn(7, [1.0, -2.0]) == [1.0, -2.0]

    tree = tree_contraction_family(0.5)
    assert tree.fn(0, TreePoint(1, 4.0)) == TreePoint(1, 2.0)


def test_resolvent_l1_soft_threshold_example():
    fam = resolvent_l1_family(GAMMA_EXAMPLE, dim=1)
    # gamma_0 = 2, so the resolvent collapses inputs of magnitude <= 2
    assert fam.fn(0, [2.0])[0] == 0.0
    assert fam.fn(0, [3.0])[0] == pytest.approx(1.0)
    assert fam.fn(0, [-3.0])[0] == pytest.approx(-1.0)


def test_soft_threshold_cases():
    x = np.array([3.0, -0.5, 0.0, -4.0])
    np.testing.assert_allclose(soft_threshold(x, 1.0), [2.0, 0.0, 0.0, -3.0])


def test_nonexpansive_identity_and_box():
    sp = EuclideanSpace(2)
    rng = np.random.default_rng(0)
    report = check_nonexpansive(identity_family(np.zeros(2)), sp, samples=200, rng=rng)
    assert report.checks[0].worst_excess == 0.0

    box = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    report = check_nonexpansive(box, sp, samples=500, rng=np.random.default_rng(0))
    assert report.passed
    # cross-check the projection against a manual componentwise clamp
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.uniform(-4, 4, size=2)
        clamped = np.array([min(max(z[0], -1.0), 1.0), min(max(z[1], -1.0), 1.0)])
        np.testing.assert_allclose(box.fn(0, z.tolist()), clamped)


def test_nonexpansive_fails_for_doubling_map():
    sp = EuclideanSpace(1)
    doubling = MappingFamily(
        name="2x", fn=lambda n, x: 2.0 * np.asarray(x), fixed_point=np.zeros(1)
    )
    report = check_nonexpansive(doubling, sp, samples=300, rng=np.random.default_rng(1))
    assert not report.passed
    (row,) = report.checks
    n, x, y = row.at
    assert row.worst_excess == pytest.approx(point_dist(sp, x, y), rel=1e-12)
    assert report.summary().splitlines()[1].endswith(
        f" (at n={n}, x={x}, y={y})  VIOLATED"
    )


def test_cross_index_violation_names_its_sample():
    sp = EuclideanSpace(1)
    shifts = MappingFamily(
        name="x+n", fn=lambda n, x: np.asarray(x) + n, fixed_point=np.zeros(1),
        gamma=GAMMA_EXAMPLE,
    )
    report = check_jp2_consequence(
        shifts, sp, samples=20, index_pairs=3, rng=np.random.default_rng(0)
    )
    assert not report.passed
    m, n, x = report.checks[0].at
    assert report.summary().splitlines()[1].endswith(f" (at m={m}, n={n}, x={x})  VIOLATED")


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0)])
def test_box_projection_equals_clip_bit_for_bit(lo, hi):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2.0, 2.0, size=(100_000, 2))
    special = rng.random(xs.shape) < 0.3
    xs[special] = rng.choice([0.0, -0.0, np.nan, 1.0, -1.0, np.inf], special.sum())
    box = box_projection_family([lo, lo], [hi, hi])
    reference = np.clip(xs, [lo, lo], [hi, hi])
    mapped = box.eval_array(EuclideanSpace(2), np.arange(len(xs)), xs)
    assert np.array_equal(mapped.view(np.uint64), reference.view(np.uint64))
    for i in range(200):
        mapped_point = np.asarray(box.fn(i, xs[i].tolist()))
        assert np.array_equal(mapped_point.view(np.uint64), reference[i].view(np.uint64))


#: Coordinates where Python's max, min and sign part from numpy's: both
#: zeros, NaNs of either sign, and the box corners and l1 thresholds below.
EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.inf]
EDGE_BOXES = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-1.0, 2.0)]


def edge_points(rng, dim: int, values) -> np.ndarray:
    """Every value in every coordinate (a row each), then random rows."""
    every = np.repeat(np.asarray(values)[:, None], dim, axis=1)
    return np.concatenate([every, rng.choice(values, size=(600, dim))])


def assert_point_forms_agree(family, xs: np.ndarray) -> None:
    """``fn`` on one loop point, returned as a list, and the ``fn_array``
    row hold the same bytes: signs of zeros and NaNs included."""
    ns = np.arange(len(xs))
    rows = family.eval_array(EuclideanSpace(xs.shape[1]), ns, xs)
    for n, x, row in zip(ns.tolist(), xs.tolist(), rows):
        point = family.fn(n, x)
        assert type(point) is list
        assert np.asarray(point).tobytes() == row.tobytes(), (n, x, point, row)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_box_projection_point_form_equals_array_form_on_edge_inputs(dim):
    rng = np.random.default_rng(dim)
    corners = [EDGE_BOXES[i] for i in rng.integers(len(EDGE_BOXES), size=(4, dim)).ravel()]
    for start in range(0, len(corners), dim):
        lo, hi = zip(*corners[start : start + dim])
        xs = edge_points(rng, dim, EDGE_VALUES + sorted(set(lo + hi)))
        assert_point_forms_agree(box_projection_family(lo, hi), xs)


@pytest.mark.parametrize("weight", [1.0, 0.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_resolvent_l1_point_form_equals_array_form_on_edge_inputs(dim, weight):
    # thresholds 0.5, 1 and 2 times the weight: |x| meets each of them
    family = resolvent_l1_family(lambda n: (0.5, 1.0, 2.0)[n % 3], dim=dim, weight=weight)
    assert_point_forms_agree(family, edge_points(np.random.default_rng(dim), dim, EDGE_VALUES))


def test_identity_and_quadratic_point_forms_equal_array_forms_on_edge_inputs():
    rng = np.random.default_rng(9)
    Q = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN coordinates
        for family in (
            identity_family(np.zeros(3)),
            resolvent_quadratic_family(Q, lambda n: (0.5, 1.0, 2.0)[n % 3]),
        ):
            xs = edge_points(rng, 3, EDGE_VALUES)
            rows = family.eval_array(EuclideanSpace(3), np.arange(len(xs)), xs)
            for n, (x, row) in enumerate(zip(xs.tolist(), rows)):
                assert np.asarray(family.fn(n, x)).tobytes() == row.tobytes(), (n, x)


@pytest.mark.parametrize("factor", [0.0, 0.5, 1.0])
def test_tree_contraction_point_form_equals_array_form(factor):
    # radii 0, subnormal, and large, on every ray; a radius of 0 is ray 0
    family, space = tree_contraction_family(factor), StarTreeSpace(3)
    ray = np.repeat([0, 1, 2], 5)
    points = TreePoints.of(ray, np.tile([0.0, 5e-324, 1e-300, 1.5, 1e308], 3))
    rows = family.eval_array(space, np.arange(len(ray)), points)
    for i in range(len(ray)):
        point = family.fn(i, points[i])
        assert (point.ray, point.t.hex()) == (int(rows.ray[i]), float(rows.t[i]).hex())


#: The step sizes of the forward-backward edge tests: with the l1 operator
#: of weight 1 and B = 0, the edge values +-0.5, +-1 and +-2 tie with them.
EDGE_STEPS = lambda n: (0.5, 1.0, 2.0)[n % 3]


def builtin_fb_operators(dim: int, rng) -> tuple[dict, dict]:
    """Every builtin operator kind on R^dim: a box from ``EDGE_BOXES``, and a
    diagonal with a 0 entry, whose products with inf are NaN; and a box and
    a gradient given by one number each, which numpy broadcasts over every
    coordinate, as the one-point forms must too."""
    lo, hi = zip(*(EDGE_BOXES[i] for i in rng.integers(len(EDGE_BOXES), size=dim)))
    A = {
        "l1": l1_operator(1.0), "box": box_operator(lo, hi), "zero": zero_operator(),
        "box_of_one_number": box_operator([-1.0], [2.0]),
    }
    diag, b = [0.5, 0.0, 0.25][:dim], [2.0, -3.0, -0.0][:dim]
    B = {"quadratic": quadratic_gradient(diag, b), "zero": zero_cocoercive()}
    return A, {**B, "quadratic_of_one_number": quadratic_gradient(0.5, -3.0)}


@pytest.mark.parametrize("b_name", ["quadratic", "zero", "quadratic_of_one_number"])
@pytest.mark.parametrize("a_name", ["l1", "box", "zero", "box_of_one_number"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_forward_backward_point_form_equals_array_form_on_edge_inputs(dim, a_name, b_name):
    rng = np.random.default_rng(dim)
    A, B = builtin_fb_operators(dim, rng)
    family = forward_backward_family(A[a_name], B[b_name], EDGE_STEPS, np.zeros(dim))
    xs = edge_points(rng, dim, EDGE_VALUES + [box for pair in EDGE_BOXES for box in pair])
    with np.errstate(invalid="ignore"):  # 0 * inf in the gradient
        assert_point_forms_agree(family, xs)


def test_jp2_constant_family_passes_any_gamma():
    sp = StarTreeSpace(3)
    fam = replace(tree_contraction_family(0.5), gamma=GAMMA_EXAMPLE)
    report = check_jp2_consequence(
        fam, sp, samples=50, index_pairs=5, rng=np.random.default_rng(0)
    )
    assert report.checks[0].worst_excess <= 0.0


@pytest.mark.parametrize(
    "family,dim",
    [
        (resolvent_l1_family(GAMMA_EXAMPLE, dim=2), 2),
        (resolvent_quadratic_family([[2.0, 0.5], [0.5, 1.0]], GAMMA_EXAMPLE), 2),
    ],
)
def test_jp2_resolvent_families_pass(family, dim):
    sp = EuclideanSpace(dim)
    rng = np.random.default_rng(2)
    report = check_jp2_consequence(family, sp, samples=100, index_pairs=8, rng=rng)
    assert report.passed, report.summary()


def test_jp2_rotation_family_fails():
    sp = EuclideanSpace(2)
    fam = replace(rotation_family(lambda n: 1.0 / (n + 1)), gamma=GAMMA_EXAMPLE)
    rng = np.random.default_rng(3)
    report = check_jp2_consequence(fam, sp, samples=100, index_pairs=8, rng=rng)
    assert report.checks[0].worst_excess > 0.1


def test_resolvents_fix_operator_zeros():
    l1 = resolvent_l1_family(GAMMA_EXAMPLE, dim=3)
    quad = resolvent_quadratic_family(np.diag([1.0, 3.0]), GAMMA_EXAMPLE)
    for n in range(25):
        assert l1.fn(n, [0.0] * 3) == [0.0] * 3
        np.testing.assert_allclose(quad.fn(n, [0.0] * 2), np.zeros(2), atol=1e-12)


def test_resolvent_quadratic_rejects_bad_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        resolvent_quadratic_family([[0.0, 1.0], [0.0, 0.0]], GAMMA_EXAMPLE)
    with pytest.raises(ValueError, match="semidefinite"):
        resolvent_quadratic_family([[-1.0]], GAMMA_EXAMPLE)


def test_chi_T_from_gamma_values():
    assert chi_T_from_gamma(1, 1, 0, lambda k: k)(0) == 1
    assert [chi_T_from_gamma(1, 1, 0, lambda k: k)(k) for k in range(3)] == [1, 3, 5]
    assert chi_T_from_gamma(3, 1, 0, lambda k: k)(0) == 5
    # a large N_Gamma dominates small modulus values
    assert chi_T_from_gamma(1, 1, 100, lambda k: k)(0) == 100


def test_constant_family_chi_T_and_zero_series():
    fn = constant_family_chi_T()
    assert [fn(k) for k in range(5)] == [0, 0, 0, 0, 0]
    table = oracle_cauchy_modulus([0.0] * 50, k_max=5, horizon=49)
    assert set(table.validate(fn)) == {"pass"}


def test_chi_T_for_needs_the_schedule_gamma_itself():
    schedule = builtin_example_schedule(0.5)
    foreign = resolvent_l1_family(lambda n: 100.0 * (n + 1), dim=2)
    assert chi_T_for(foreign, schedule, 1) is None
    own = resolvent_l1_family(schedule.gamma, dim=2)
    assert chi_T_for(own, schedule, 1)(0) == 1


def test_chi_T_for_selects_certificate():
    sch = builtin_example_schedule(0.5)
    box = box_projection_family([-1.0], [1.0])
    assert chi_T_for(box, sch, M=2)(4) == 0

    l1 = resolvent_l1_family(sch.gamma, dim=1)
    assert chi_T_for(l1, sch, M=2)(0) == 2 * 2 * 1 * 1 - 1

    # no gamma, or the schedule's terms in another object: the declaration counts
    for gamma in (None, lambda n: 1.0 + 1.0 / (n + 1)):
        bare = MappingFamily(name="bare", fn=lambda n, x: x, fixed_point=np.zeros(1), gamma=gamma)
        assert chi_T_for(bare, sch, M=2) is None
        assert chi_T_for(replace(bare, chi_T=lambda k: 7), sch, M=2)(3) == 7


def test_constant_family_declares_zero_under_a_schedule_without_gamma():
    no_gamma = replace(
        builtin_example_schedule(0.5), gamma=None, chi_gamma=None, Gamma_cap=None, N_Gamma=None
    )
    assert not no_gamma.has_gamma
    for family in (
        identity_family(np.zeros(1)),
        box_projection_family([-1.0], [1.0]),
        tree_contraction_family(0.5),
    ):
        assert [chi_T_for(family, no_gamma, M=2)(k) for k in range(4)] == [0, 0, 0, 0]


def test_schedule_gamma_modulus_wins_over_a_declared_chi_T():
    sch = builtin_example_schedule(0.5)
    family = replace(resolvent_l1_family(sch.gamma, dim=1), chi_T=lambda k: 7)
    # chi_T_from_gamma at M = 1: 2 (k + 1) - 1
    assert [chi_T_for(family, sch, M=1)(k) for k in range(3)] == [1, 3, 5]


def test_cross_index_check_needs_the_family_gamma():
    with pytest.raises(ValueError, match="carries no gamma"):
        check_jp2_consequence(
            box_projection_family([-1.0], [1.0]), EuclideanSpace(1),
            samples=5, index_pairs=2, rng=np.random.default_rng(0),
        )


def nan_at_even_indices_family():
    """A custom family that is the identity at odd n and returns NaN
    coordinates at even n: a broken map the checks must not pass."""
    return MappingFamily(
        name="nan_even",
        fn=lambda n, x: np.full(2, np.nan) if n % 2 == 0 else x,
        fixed_point=np.zeros(2),
    )


def test_nan_map_fails_nonexpansive_check():
    report = check_nonexpansive(
        nan_at_even_indices_family(), EuclideanSpace(2), samples=40, rng=np.random.default_rng(1)
    )
    (row,) = report.checks
    assert np.isnan(row.worst_excess)
    assert not report.passed
    assert "VIOLATED" in report.summary()
    assert row.at[0] % 2 == 0  # the first NaN sample stays the worst


def test_nan_map_fails_cross_index_check():
    report = check_jp2_consequence(
        replace(nan_at_even_indices_family(), gamma=GAMMA_EXAMPLE), EuclideanSpace(2),
        samples=5, index_pairs=4, rng=np.random.default_rng(2),
    )
    (row,) = report.checks
    assert np.isnan(row.worst_excess)
    assert not report.passed
    m, n, _ = row.at
    assert m % 2 == 0 or n % 2 == 0


# ------------------------------------ block checks against per-row scalar loops


def first_worst(excesses) -> int:
    """The index the per-sample loop keeps as the worst: a larger excess
    replaces the worst so far, and so does a NaN, which then stays."""
    worst, where = -math.inf, None
    for i, value in enumerate(excesses):
        if not value <= worst and not math.isnan(worst):
            worst, where = value, i
    return where


def reference_nonexpansive(family, space, samples, rng, n_max=50):
    """The nonexpansive check as a scalar loop over the check's draws."""
    ns = rng.integers(0, n_max + 1, size=samples)
    x, y = space.sample(rng, samples), space.sample(rng, samples)
    excess = [
        point_dist(
            space, family.fn(int(n), space.to_loop(x[i])), family.fn(int(n), space.to_loop(y[i]))
        )
        - point_dist(space, x[i], y[i])
        for i, n in enumerate(ns)
    ]
    i = first_worst(excess)
    return excess[i], (int(ns[i]), x[i], y[i])


def reference_jp2(family, gamma, space, samples, index_pairs, rng, n_max=50):
    """The cross-index check as a scalar loop over the check's draws."""
    x = space.sample(rng, samples)
    pairs = rng.integers(0, n_max + 1, size=(samples, index_pairs, 2))
    excess, where = [], []
    for s in range(samples):
        for i, j in pairs[s].tolist():
            for m, n in ((i, j), (j, i)):
                tn_x = family.fn(n, space.to_loop(x[s]))
                lhs = point_dist(space, family.fn(m, space.to_loop(x[s])), tn_x)
                excess.append(lhs - abs(gamma(m) - gamma(n)) / gamma(n) * point_dist(space, tn_x, x[s]))
                where.append((m, n, x[s]))
    i = first_worst(excess)
    return excess[i], where[i]


def bits(value):
    """The exact text of a number, an index, a point or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, TreePoint):
        return (value.ray, value.t.hex())
    if isinstance(value, np.ndarray):
        return tuple(float(v).hex() for v in value)
    return value if isinstance(value, int) else float(value).hex()


GAMMA = builtin_example_schedule(0.5).gamma
FB_OPERATORS = (l1_operator(0.5), quadratic_gradient([0.5, 0.7], [2.0, -3.0]))
# every family the config reader builds, then a forward-backward family
# without its fn_array and two custom ones; eval_array evaluates a family
# without fn_array one row at a time
CHECKED_FAMILIES = {
    "identity_plane": (lambda: identity_family(np.zeros(2)), lambda: EuclideanSpace(2)),
    "identity_tree": (lambda: identity_family(TreePoint(0, 0.0)), lambda: StarTreeSpace(3)),
    "box_projection": (
        lambda: box_projection_family([-1.0, -0.5], [1.0, 0.5]),
        lambda: EuclideanSpace(2),
    ),
    "tree_contraction": (lambda: tree_contraction_family(0.5), lambda: StarTreeSpace(4)),
    "resolvent_l1": (lambda: resolvent_l1_family(GAMMA, dim=2), lambda: EuclideanSpace(2)),
    "resolvent_quadratic": (
        lambda: resolvent_quadratic_family([[2.0, 0.5], [0.5, 1.0]], GAMMA),
        lambda: EuclideanSpace(2),
    ),
    "forward_backward": (
        lambda: forward_backward_family(*FB_OPERATORS, GAMMA, np.zeros(2)),
        lambda: EuclideanSpace(2),
    ),
    "forward_backward_looping": (
        lambda: replace(forward_backward_family(*FB_OPERATORS, GAMMA, np.zeros(2)), fn_array=None),
        lambda: EuclideanSpace(2),
    ),
    "nan_even": (nan_at_even_indices_family, lambda: EuclideanSpace(2)),
    "rotation": (lambda: rotation_family(lambda n: 1.0 / (n + 1)), lambda: EuclideanSpace(2)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CHECKED_FAMILIES))
def test_family_checks_equal_per_row_loops(name, seed):
    make_family, make_space = CHECKED_FAMILIES[name]
    family, space = make_family(), make_space()

    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    excess, worst = reference_nonexpansive(family, space, 60, rng_ref)
    (row,) = check_nonexpansive(family, space, samples=60, rng=rng).checks
    assert bits(row.worst_excess) == bits(excess)
    assert bits(row.at) == bits(worst)

    excess, worst = reference_jp2(family, GAMMA, space, 8, 5, rng_ref)
    report = check_jp2_consequence(
        replace(family, gamma=GAMMA), space, samples=8, index_pairs=5, rng=rng
    )
    assert f"{8 * 5 * 2} samples" in report.title
    (row,) = report.checks
    assert bits(row.worst_excess) == bits(excess)
    assert bits(row.at) == bits(worst)
    # both checks leave the generator where the loops leave it
    assert rng.integers(0, 2**62) == rng_ref.integers(0, 2**62)
