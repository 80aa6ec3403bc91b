import numpy as np
import pytest

from tmann.geometry import EuclideanSpace, StarTreeSpace, TreePoint
from tmann.mappings import (
    MappingFamily,
    box_projection_family,
    check_jp2_consequence,
    check_nonexpansive,
    chi_T_for,
    chi_T_from_gamma,
    constant_family_chi_T,
    identity_family,
    resolvent_l1_family,
    resolvent_quadratic_family,
    soft_threshold,
    tree_contraction_family,
)
from tmann.sequences import builtin_example_schedule, oracle_cauchy_modulus

GAMMA_EXAMPLE = lambda n: 1.0 + 1.0 / (n + 1)


def rotation_family(angles):
    """Planar rotations by angles(n): nonexpansive isometries that do not
    satisfy the cross-index comparison for any useful gamma."""

    def rotate(n, x):
        a = angles(n)
        c, s = np.cos(a), np.sin(a)
        return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    return MappingFamily(name="rotation", kind="custom", fn=rotate, fixed_point=np.zeros(2))


def test_identity_and_contraction_eval():
    fam = identity_family(np.zeros(2))
    x = np.array([1.0, -2.0])
    assert np.array_equal(fam.eval(7, x), x)

    tree = tree_contraction_family(0.5)
    assert tree.eval(0, TreePoint(1, 4.0)) == TreePoint(1, 2.0)


def test_resolvent_l1_soft_threshold_example():
    fam = resolvent_l1_family(GAMMA_EXAMPLE, dim=1)
    # gamma_0 = 2, so the resolvent collapses inputs of magnitude <= 2
    assert fam.eval(0, np.array([2.0]))[0] == 0.0
    assert fam.eval(0, np.array([3.0]))[0] == pytest.approx(1.0)
    assert fam.eval(0, np.array([-3.0]))[0] == pytest.approx(-1.0)


def test_soft_threshold_cases():
    x = np.array([3.0, -0.5, 0.0, -4.0])
    np.testing.assert_allclose(soft_threshold(x, 1.0), [2.0, 0.0, 0.0, -3.0])


def test_nonexpansive_identity_and_box():
    sp = EuclideanSpace(2)
    assert check_nonexpansive(identity_family(np.zeros(2)), sp, samples=200).max_excess == 0.0

    box = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    report = check_nonexpansive(box, sp, samples=500)
    assert report.passed
    # cross-check the projection against a manual componentwise clamp
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.uniform(-4, 4, size=2)
        clamped = np.array([min(max(z[0], -1.0), 1.0), min(max(z[1], -1.0), 1.0)])
        np.testing.assert_allclose(box.eval(0, z), clamped)


def test_nonexpansive_fails_for_doubling_map():
    sp = EuclideanSpace(1)
    doubling = MappingFamily(
        name="2x", kind="custom", fn=lambda n, x: 2.0 * x, fixed_point=np.zeros(1)
    )
    report = check_nonexpansive(doubling, sp, samples=300, seed=1)
    assert not report.passed
    n, x, y = report.worst
    assert report.max_excess == pytest.approx(sp.dist(x, y), rel=1e-12)


def test_jp2_constant_family_passes_any_gamma():
    sp = StarTreeSpace(3)
    fam = tree_contraction_family(0.5)
    report = check_jp2_consequence(fam, GAMMA_EXAMPLE, sp, samples=50, index_pairs=5)
    assert report.max_excess <= 0.0


@pytest.mark.parametrize(
    "family,dim",
    [
        (resolvent_l1_family(GAMMA_EXAMPLE, dim=2), 2),
        (resolvent_quadratic_family([[2.0, 0.5], [0.5, 1.0]], GAMMA_EXAMPLE), 2),
    ],
)
def test_jp2_resolvent_families_pass(family, dim):
    sp = EuclideanSpace(dim)
    report = check_jp2_consequence(family, GAMMA_EXAMPLE, sp, samples=100, index_pairs=8, seed=2)
    assert report.passed, report.summary()


def test_jp2_rotation_family_fails():
    sp = EuclideanSpace(2)
    fam = rotation_family(lambda n: 1.0 / (n + 1))
    report = check_jp2_consequence(fam, GAMMA_EXAMPLE, sp, samples=100, index_pairs=8, seed=3)
    assert report.max_excess > 0.1


def test_resolvents_fix_operator_zeros():
    l1 = resolvent_l1_family(GAMMA_EXAMPLE, dim=3)
    quad = resolvent_quadratic_family(np.diag([1.0, 3.0]), GAMMA_EXAMPLE)
    for n in range(25):
        assert np.all(l1.eval(n, np.zeros(3)) == 0.0)
        np.testing.assert_allclose(quad.eval(n, np.zeros(2)), np.zeros(2), atol=1e-12)


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

    bare = MappingFamily(name="bare", kind="custom", fn=lambda n, x: x, fixed_point=np.zeros(1))
    assert chi_T_for(bare, sch, M=2) is None

    declared = MappingFamily(
        name="declared", kind="custom", fn=lambda n, x: x, fixed_point=np.zeros(1),
        chi_T=lambda k: 7,
    )
    assert chi_T_for(declared, sch, M=2)(3) == 7


def test_family_kind_validated():
    with pytest.raises(ValueError, match="kind"):
        MappingFamily(name="x", kind="mystery", fn=lambda n, x: x, fixed_point=np.zeros(1))


def nan_at_even_indices_family():
    """A custom family that is the identity at odd n and returns NaN
    coordinates at even n: a broken map the checks must not pass."""
    return MappingFamily(
        name="nan_even",
        kind="custom",
        fn=lambda n, x: np.full(2, np.nan) if n % 2 == 0 else x,
        fixed_point=np.zeros(2),
    )


def test_nan_map_fails_nonexpansive_check():
    report = check_nonexpansive(nan_at_even_indices_family(), EuclideanSpace(2), samples=40, seed=1)
    assert np.isnan(report.max_excess)
    assert not report.passed
    assert "VIOLATED" in report.summary()
    assert report.worst[0] % 2 == 0  # the first NaN sample stays the worst


def test_nan_map_fails_cross_index_check():
    report = check_jp2_consequence(
        nan_at_even_indices_family(), GAMMA_EXAMPLE, EuclideanSpace(2),
        samples=5, index_pairs=4, seed=2,
    )
    assert np.isnan(report.max_excess)
    assert not report.passed
    m, n, _ = report.worst
    assert m % 2 == 0 or n % 2 == 0
