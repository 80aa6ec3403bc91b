import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmann.geometry import (
    AXIOM_CHECKS,
    BrokenEuclideanSpace,
    EuclideanSpace,
    StarTreeSpace,
    TreePoint,
    TreePoints,
    Space,
    check_w_axioms,
)
from tmann.mappings import tree_contraction_family

from conftest import combine_points, point_dist

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
radius = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
ray = st.integers(min_value=0, max_value=4)


def test_euclidean_combine_midquarter():
    sp = EuclideanSpace(1)
    c = sp.combine_array(np.array([0.0]), np.array([[2.0]]), 0.25)
    assert c[0, 0] == pytest.approx(0.5)
    assert sp.dist_array(np.array([0.0]), c)[0] == pytest.approx(0.25 * 2.0)


def test_euclidean_dist_345():
    sp = EuclideanSpace(2)
    assert sp.dist_array(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_tree_dist_cases():
    sp = StarTreeSpace(3)
    assert sp.dist_array(TreePoint(1, 2.0), TreePoint(2, 1.0)) == 3.0
    assert sp.dist_array(TreePoint(1, 2.0), TreePoint(1, 0.5)) == 1.5


def test_tree_combine_through_origin():
    sp = StarTreeSpace(3)
    mid = combine_points(sp, TreePoint(1, 1.0), TreePoint(2, 1.0), 0.5)
    assert mid == TreePoint(0, 0.0)
    walked = combine_points(sp, TreePoint(1, 2.0), TreePoint(2, 1.0), 0.5)
    assert walked.ray == 1
    assert walked.t == pytest.approx(0.5)


def test_treepoint_checks_and_canonical_origin():
    assert TreePoint(2, 0.0) == TreePoint(0, 0.0)
    assert TreePoint(2, 0.0).ray == 0
    for t in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"radial coordinate must be finite and >= 0, got {t}"):
            TreePoint(1, t)
    for t in (1.0, 0.0, math.nan):  # the ray is checked first
        with pytest.raises(ValueError, match="ray index must be >= 0, got -1"):
            TreePoint(-1, t)
    with pytest.raises(ValueError, match="radial coordinate must be finite and >= 0, got -1.0"):
        TreePoint(1, 2.0)._replace(t=-1.0)  # namedtuple's own copy is checked too
    assert TreePoint._make([2, 0.0]) == (0, 0.0)
    # every other way to a point at t == 0 also comes out on ray 0
    sp = StarTreeSpace(3)
    assert sp.mix(TreePoint(2, 1.0), TreePoint(2, 1e-20), 1.0) == (0, 0.0)  # 1 + (1e-20 - 1)
    assert tree_contraction_family(0.0).fn(0, TreePoint(2, 1.5)) == (0, 0.0)
    assert TreePoints(np.array([2, 1]), np.array([0.0, 1.0]))[0] == (0, 0.0)


def test_tree_mix_refuses_an_overflowed_radius():
    with pytest.raises(ValueError, match="radial coordinate must be finite and >= 0, got inf"):
        StarTreeSpace(3).mix(TreePoint(1, 1e308), TreePoint(2, 1e308), 0.75)


def test_tree_collect_equals_assigning_row_by_row():
    sp = StarTreeSpace(3)
    points = list(sp.sample(np.random.default_rng(5), 50))
    points[7:10] = [TreePoint(2, 0.0), TreePoint(0, -0.0), TreePoint(1, 5e-324)]
    expected = sp.empty(len(points))
    for i, point in enumerate(points):
        expected[i] = point
    stored = sp.collect(iter(points), len(points))
    assert stored.ray.tobytes() == expected.ray.tobytes()
    assert stored.t.tobytes() == expected.t.tobytes()
    assert stored.ray[7] == 0


def test_combine_rejects_bad_lambda():
    sp = EuclideanSpace(1)
    with pytest.raises(ValueError):
        sp.combine_array(np.array([0.0]), np.array([[1.0]]), 1.5)
    with pytest.raises(ValueError):
        sp.combine_array(np.array([0.0]), np.array([[1.0]]), -0.1)


def test_shape_mismatch_rejected():
    sp = EuclideanSpace(2)
    with pytest.raises(ValueError):
        sp.as_point(np.array([1.0]))
    with pytest.raises(ValueError):
        sp.as_point(np.zeros(3))
    # a TreePoint is a 2-tuple, which np.asarray would read as 2 coordinates
    for foreign in (TreePoint(1, 2.0), object(), {"x": 1.0}):
        with pytest.raises(ValueError, match=f"^expected 2 numbers, got {type(foreign).__name__}$"):
            sp.as_point(foreign)
    with pytest.raises(ValueError):
        sp.combine_array(np.zeros((4, 2)), np.zeros((4, 3)), 0.5)


def test_tree_rejects_foreign_points():
    sp = StarTreeSpace(2)
    with pytest.raises(ValueError):
        sp.as_point(TreePoint(5, 1.0))
    with pytest.raises(ValueError):
        sp.as_point(np.zeros(2))


def test_space_contract_is_six_abstract_methods():
    assert Space.__abstractmethods__ == {
        "as_point",
        "mix",
        "sample",
        "empty",
        "dist_array",
        "combine_array",
    }


def test_space_without_combine_array_cannot_be_instantiated():
    class NoArrayForm(Space):
        """Euclidean space's methods, all but ``combine_array``: no per-row
        default stands in for the array form."""

        as_point = EuclideanSpace.as_point
        mix = EuclideanSpace.mix
        sample = EuclideanSpace.sample
        empty = EuclideanSpace.empty
        dist_array = EuclideanSpace.dist_array

    with pytest.raises(TypeError, match="combine_array"):
        NoArrayForm()


def euclidean_dist_reference(x, y):
    """The scalar Euclidean distance: the norm of the difference."""
    return float(np.linalg.norm(x - y))


def tree_dist_reference(x, y):
    """The path metric of the star tree."""
    return abs(x.t - y.t) if x.ray == y.ray else x.t + y.t


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 16, 32, 64, 128])
def test_euclidean_dist_array_equals_the_norm_bit_for_bit(dim):
    sp = EuclideanSpace(dim)
    rng = np.random.default_rng(dim)
    scales = np.repeat(10.0 ** np.arange(-200, 151, 25), 100)[:, None]  # 1e-200 .. 1e150
    x = rng.standard_normal((len(scales), dim)) * scales
    y = rng.standard_normal((len(scales), dim)) * scales
    expected = [bits(euclidean_dist_reference(x[i], y[i])) for i in range(len(x))]
    assert [bits(d) for d in sp.dist_array(x, y)] == expected
    assert [bits(sp.dist_array(x[i], y[i])) for i in range(0, len(x), 50)] == expected[::50]


@pytest.mark.parametrize("num_rays", [2, 3, 7])
def test_tree_dist_array_equals_the_path_formula(num_rays):
    sp = StarTreeSpace(num_rays)
    rng = np.random.default_rng(num_rays)
    x, y = sp.sample(rng, 2000), sp.sample(rng, 2000)
    y.ray[:500] = x.ray[:500]  # same-ray pairs
    y.t[:100] = x.t[:100]  # equal points
    expected = [bits(tree_dist_reference(x[i], y[i])) for i in range(len(x))]
    assert [bits(d) for d in sp.dist_array(x, y)] == expected
    assert [bits(sp.dist_array(x[i], y[i])) for i in range(0, len(x), 50)] == expected[::50]


@pytest.mark.parametrize("space", [EuclideanSpace(3), StarTreeSpace(4)])
def test_axioms_pass_on_samples(space):
    report = check_w_axioms(space, samples=1000, tol=1e-9, rng=np.random.default_rng(7))
    assert report.passed, report.summary()


def failures(section) -> list[str]:
    """The names of the rows that exceed the section's tolerance."""
    return [row.name for row in section.checks if not row.worst_excess <= section.tol]


def test_broken_space_flagged_with_expected_magnitude():
    sp = BrokenEuclideanSpace(1)
    x, y = np.array([0.0]), np.array([2.0])
    lam = 0.5
    # distance from x to the lam-combination should be lam*d; the broken map
    # yields lam^2*d, so the analytic violation is |lam^2 - lam| * d(x, y)
    observed = abs(point_dist(sp, x, combine_points(sp, x, y, lam)) - lam * point_dist(sp, x, y))
    assert observed == pytest.approx(abs(lam**2 - lam) * 2.0)
    # and the (W2) comparison against theta = 0 shows the same magnitude
    c_lam, c_zero = combine_points(sp, x, y, lam), combine_points(sp, x, y, 0.0)
    w2 = abs(point_dist(sp, c_lam, c_zero) - lam * point_dist(sp, x, y))
    assert w2 == pytest.approx(abs(lam**2 - lam) * 2.0)

    report = check_w_axioms(sp, samples=2000, tol=1e-9, rng=np.random.default_rng(3))
    assert not report.passed
    assert "W2" in failures(report)
    assert "endpoint_distances" in failures(report)


@settings(max_examples=100, deadline=None)
@given(x=coord, y=coord, lam=unit, th=unit)
def test_euclidean_endpoint_and_w2_exact(x, y, lam, th):
    sp = EuclideanSpace(1)
    px, py = np.array([x]), np.array([y])
    d = point_dist(sp, px, py)
    c_lam = combine_points(sp, px, py, lam)
    assert point_dist(sp, px, c_lam) == pytest.approx(lam * d, abs=1e-9)
    assert point_dist(sp, py, c_lam) == pytest.approx((1 - lam) * d, abs=1e-9)
    assert point_dist(sp, c_lam, combine_points(sp, px, py, th)) == pytest.approx(abs(lam - th) * d, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(r1=ray, t1=radius, r2=ray, t2=radius, lam=unit, th=unit)
def test_tree_endpoint_and_w2_exact(r1, t1, r2, t2, lam, th):
    sp = StarTreeSpace(5)
    x, y = TreePoint(r1, t1), TreePoint(r2, t2)
    d = point_dist(sp, x, y)
    c_lam = combine_points(sp, x, y, lam)
    assert point_dist(sp, x, c_lam) == pytest.approx(lam * d, abs=1e-9)
    assert point_dist(sp, y, c_lam) == pytest.approx((1 - lam) * d, abs=1e-9)
    assert point_dist(sp, c_lam, combine_points(sp, x, y, th)) == pytest.approx(abs(lam - th) * d, abs=1e-9)
    # symmetry of the combination map
    assert point_dist(sp, c_lam, combine_points(sp, y, x, 1.0 - lam)) <= 1e-9


# ------------------------------------------------ array paths against per-row


def reference_check_w_axioms(space, samples, rng):
    """The per-sample axiom loop: draw the same blocks as the check, then
    check one tuple at a time with ``point_dist`` and ``combine_points`` and
    keep the worst."""
    worst = {key: -math.inf for key in AXIOM_CHECKS}

    def record(key, value):
        if value > worst[key]:
            worst[key] = value

    xs, ys, zs, ws = (space.sample(rng, samples) for _ in range(4))
    lams, ths = rng.random((2, samples))
    for i in range(samples):
        x, y, z, w = xs[i], ys[i], zs[i], ws[i]
        lam, th = float(lams[i]), float(ths[i])

        dxy = point_dist(space, x, y)
        dzw = point_dist(space, z, w)
        cxy_l = combine_points(space, x, y, lam)
        cxy_t = combine_points(space, x, y, th)

        record("metric_symmetry", abs(dxy - point_dist(space, y, x)))
        record("metric_identity", point_dist(space, x, x))
        record("metric_triangle", point_dist(space, x, z) - (dxy + point_dist(space, y, z)))

        record("W1", point_dist(space, z, cxy_l) - ((1 - lam) * point_dist(space, z, x) + lam * point_dist(space, z, y)))
        record("W2", abs(point_dist(space, cxy_l, cxy_t) - abs(lam - th) * dxy))
        record("W3", point_dist(space, cxy_l, combine_points(space, y, x, 1.0 - lam)))

        cxz_l = combine_points(space, x, z, lam)
        record("W4", point_dist(space, cxz_l, combine_points(space, y, w, lam)) - ((1 - lam) * dxy + lam * dzw))

        record(
            "endpoint_distances",
            max(
                abs(point_dist(space, x, cxy_l) - lam * dxy),
                abs(point_dist(space, y, cxy_l) - (1 - lam) * dxy),
            ),
        )
        record(
            "two_parameter_comparison",
            point_dist(space, cxz_l, combine_points(space, y, w, th))
            - ((1 - lam) * dxy + lam * dzw + abs(lam - th) * point_dist(space, y, w)),
        )
        record(
            "shared_endpoint_comparison",
            point_dist(space, cxz_l, combine_points(space, x, w, th))
            - (lam * dzw + abs(lam - th) * point_dist(space, x, w)),
        )
    return worst


class NormalSamplerSpace(EuclideanSpace):
    """A Euclidean space with its own sampler: the axiom check must draw
    with it, not with the uniform box draw of the parent class."""

    def sample(self, rng, count):
        return rng.normal(size=(count, self.dim))


class SquaredStarTreeSpace(StarTreeSpace):
    """A star tree with its own combination map, in both forms, which walks
    lam**2 of the geodesic: the axiom check must check this map, not the
    parent's."""

    def mix(self, x, y, lam):
        return super().mix(x, y, lam * lam)

    def combine_array(self, x, y, lam):
        lam = self._check_lambdas(lam)
        return super().combine_array(x, y, lam * lam)


class CubedEuclideanSpace(EuclideanSpace):
    """A Euclidean space whose own ``mix`` and ``combine_array`` interpolate
    with lam**3: the axiom check must check this map, not the parent's
    affine one."""

    def mix(self, x, y, lam):
        cube = lam * lam * lam
        return [(1.0 - cube) * a + cube * b for a, b in zip(x, y)]

    def combine_array(self, x, y, lam):
        lam = self._check_lambdas(lam)[..., None]
        cube = lam * lam * lam
        return (1.0 - cube) * x + cube * y


SPACES = {
    "euclidean_own_sampler": lambda: NormalSamplerSpace(3),
    "euclidean_own_mix": lambda: CubedEuclideanSpace(2),
    "tree_own_combine": lambda: SquaredStarTreeSpace(3),
    "euclidean_1d": lambda: EuclideanSpace(1),
    "euclidean_2d": lambda: EuclideanSpace(2, box_radius=3.0),
    "euclidean_3d": lambda: EuclideanSpace(3),
    "euclidean_5d": lambda: EuclideanSpace(5, box_radius=0.75),
    "broken_2d": lambda: BrokenEuclideanSpace(2),
    "tree_2": lambda: StarTreeSpace(2),
    "tree_3": lambda: StarTreeSpace(3, max_radius=3.0),
    "tree_7": lambda: StarTreeSpace(7),
}


def bits(value) -> str:
    """The exact double, sign of zero included."""
    return float(value).hex()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_array_axiom_check_equals_per_sample_loop(name, seed):
    space = SPACES[name]()
    samples = 300
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_check_w_axioms(space, samples, rng_ref)
    report = check_w_axioms(space, samples=samples, rng=rng)
    assert [row.name for row in report.checks] == list(AXIOM_CHECKS)
    assert {row.name: bits(row.worst_excess) for row in report.checks} == {
        k: bits(v) for k, v in expected.items()
    }
    # the next draw, and so the draws of every later check, are unchanged
    assert rng.integers(0, 2**62) == rng_ref.integers(0, 2**62)
    assert bits(rng.random()) == bits(rng_ref.random())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_draws_inside_the_region(seed):
    rng = np.random.default_rng(seed)
    for space in (EuclideanSpace(1), EuclideanSpace(3, box_radius=0.5), BrokenEuclideanSpace(2)):
        points = space.sample(rng, 500)
        assert points.shape == (500, space.dim)
        assert np.all(np.abs(points) <= space.box_radius)
    for space in (StarTreeSpace(2), StarTreeSpace(7, max_radius=0.25)):
        points = space.sample(rng, 500)
        assert len(points) == 500
        assert np.all((0 <= points.ray) & (points.ray < space.num_rays))
        assert np.all((0.0 <= points.t) & (points.t <= space.max_radius))
        assert set(np.unique(points.ray)) == set(range(space.num_rays))
    assert len(space.sample(rng, 0)) == 0


def test_tree_sample_stores_the_origin_on_ray_zero():
    class ZeroRadii:
        """A generator whose uniform radii are all 0."""

        def integers(self, high, size):
            return np.full(size, high - 1)

        def uniform(self, low, high, size):
            return np.zeros(size)

    points = StarTreeSpace(3).sample(ZeroRadii(), 4)
    assert list(points.ray) == [0, 0, 0, 0]


def assert_rows_equal(space, got, rows):
    assert len(got) == len(rows)
    for i, row in enumerate(rows):
        if isinstance(row, TreePoint):
            assert (int(got.ray[i]), bits(got.t[i])) == (row.ray, bits(row.t)), i
        else:
            assert [bits(v) for v in got[i]] == [bits(v) for v in row], i


@pytest.mark.parametrize("name", sorted(SPACES))
def test_combine_array_equals_per_row_combine(name):
    space = SPACES[name]()
    rng = np.random.default_rng(11)
    x, y = space.sample(rng, 400), space.sample(rng, 400)
    lam = rng.random(400)
    lam[:6] = [0.0, 1.0, 0.0, 1.0, 0.5, 0.5]
    if isinstance(space, StarTreeSpace):
        # same-ray pairs, and pairs whose combination lands on the origin
        y.ray[:50] = x.ray[:50]
        x.ray[50:60], y.ray[50:60] = 1, 0
        y.t[50:60] = x.t[50:60]  # halfway is the origin
        lam[50:60] = 0.5
        x.t[60:62] = 0.0  # x at the origin, stored on ray 0
        x.ray[60:62] = 0
    # the reference is each row's from_loop(mix(...)), the loop's own form
    got = space.combine_array(x, y, lam)
    assert_rows_equal(space, got, [combine_points(space, x[i], y[i], lam[i]) for i in range(len(lam))])
    if type(space) is StarTreeSpace:  # halfway between equal radii is the origin
        assert np.all(got.ray[50:60] == 0) and np.all(got.t[50:60] == 0.0)
    # one number for every row
    per_row = [combine_points(space, x[i], y[i], 0.25) for i in range(len(lam))]
    assert_rows_equal(space, space.combine_array(x, y, 0.25), per_row)
    # a single point on either side, with a lam per row or one number;
    # x[60] is the origin on the tree
    for point in (x[0], x[60]):
        for lams in (lam, 0.25):
            each = np.broadcast_to(lams, lam.shape)
            per_row = [combine_points(space, point, y[i], each[i]) for i in range(len(lam))]
            assert_rows_equal(space, space.combine_array(point, y, lams), per_row)
            per_row = [combine_points(space, x[i], point, each[i]) for i in range(len(lam))]
            assert_rows_equal(space, space.combine_array(x, point, lams), per_row)


@pytest.mark.parametrize("name", ["euclidean_2d", "broken_2d", "tree_3"])
@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
def test_combine_array_refuses_lambda_outside_unit_interval(name, bad):
    space = SPACES[name]()
    rng = np.random.default_rng(0)
    x, y = space.sample(rng, 4), space.sample(rng, 4)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        space.combine_array(x, y, np.array([0.5, bad, 0.5, 0.5]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        space.combine_array(x, y, bad)


def test_broken_space_breaks_combine_array_like_combine():
    space = BrokenEuclideanSpace(1)
    x, y = np.array([[0.0]]), np.array([[2.0]])
    assert space.combine_array(x, y, 0.5)[0, 0] == combine_points(space, x[0], y[0], 0.5)[0] == 0.5


class NanCombineSpace(EuclideanSpace):
    """A Euclidean space whose combination map returns NaN coordinates."""

    def combine_array(self, x, y, lam):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), math.nan)


def test_nan_combination_fails_the_axiom_check():
    report = check_w_axioms(NanCombineSpace(2), samples=50, rng=np.random.default_rng(0))
    assert not report.passed
    assert {"W1", "W2", "W3", "W4", "endpoint_distances"} <= set(failures(report))
    assert "VIOLATED" in report.summary()


def test_subclass_combination_map_is_the_one_checked():
    report = check_w_axioms(SquaredStarTreeSpace(3), samples=500, rng=np.random.default_rng(0))
    assert "endpoint_distances" in failures(report)
