import csv
import dataclasses

import numpy as np
import pytest

from tmann.geometry import EuclideanSpace, StarTreeSpace, TreePoint
from tmann.iterate import (
    ProblemInstance,
    check_basic_bounds,
    check_halpern_equivalence,
    check_recursive_inequalities,
    run_modified_halpern,
    run_tikhonov_mann,
)
from tmann.mappings import (
    MappingFamily,
    box_projection_family,
    identity_family,
    resolvent_l1_family,
    tree_contraction_family,
)
from tmann.sequences import builtin_example_schedule, builtin_linear_schedule

from conftest import run_kmf_direct


def euclidean_instance(dim=1, x0=None, u=None, family=None, schedule=None, p=None):
    sp = EuclideanSpace(dim)
    schedule = schedule or builtin_example_schedule(0.5)
    family = family or identity_family(np.zeros(dim))
    u = np.zeros(dim) if u is None else np.asarray(u, dtype=float)
    x0 = np.ones(dim) if x0 is None else np.asarray(x0, dtype=float)
    return ProblemInstance.create(sp, family, schedule, u=u, x0=x0, p=p)


def test_identity_with_anchor_start_is_stationary():
    inst = euclidean_instance(x0=[0.0], u=[0.0])
    trace = run_tikhonov_mann(inst, 50)
    assert np.all(trace.residual_step == 0.0)
    assert np.all(trace.residual_T == 0.0)


def test_first_step_collapses_to_anchor_when_beta0_zero():
    # beta_0 = 0 forces u_0 = u; with the identity family x_1 = u
    inst = euclidean_instance(x0=[1.0], u=[0.0])
    trace = run_tikhonov_mann(inst, 3)
    assert trace.u_seq[0][0] == 0.0
    assert trace.x[1][0] == 0.0


def test_trace_lengths_consistent():
    inst = euclidean_instance(x0=[2.0])
    H = 37
    trace = run_tikhonov_mann(inst, H)
    assert len(trace.x) == H + 1
    assert len(trace.u_seq) == H
    for arr in (trace.residual_step, trace.residual_T, trace.tfam_gap):
        assert len(arr) == H
    assert len(trace.dist_u_succ) == H - 1
    assert len(trace.dist_x_p) == H + 1
    assert np.all(np.isfinite(trace.residual_step))
    assert np.all(trace.residual_step >= 0.0)


def test_m_derivation_and_bounds_on_r1():
    inst = euclidean_instance(x0=[3.0], u=[0.0])
    assert inst.M == 3
    trace = run_tikhonov_mann(inst, 2000)
    report = check_basic_bounds(inst, trace)
    assert report.passed, report.summary()
    assert np.max(np.abs(trace.dist_x_p)) <= 3.0 + 1e-9


def test_m_clamped_to_one_for_degenerate_instance():
    inst = euclidean_instance(x0=[0.0], u=[0.0])
    assert inst.M == 1


def test_given_m_below_radius_bound_is_rejected():
    sp, fam, sch = EuclideanSpace(1), identity_family(np.zeros(1)), builtin_example_schedule(0.5)
    u, p = np.zeros(1), np.zeros(1)
    with pytest.raises(ValueError, match="M >= 3"):
        ProblemInstance.create(sp, fam, sch, u=u, x0=np.array([2.5]), p=p, M=2)
    # the bound is the same rounded ceiling that derives M: 3 + 1e-14 needs only 3
    for x0, M in ((3.0, 3), (3.0 + 1e-14, 3), (0.0, 1)):
        assert ProblemInstance.create(sp, fam, sch, u=u, x0=np.array([x0]), p=p, M=M).M == M
    with pytest.raises(ValueError, match="M >= 1"):
        ProblemInstance.create(sp, fam, sch, u=u, x0=np.zeros(1), p=p, M=0)


def test_create_rejects_non_fixed_point():
    sp = EuclideanSpace(1)
    fam = box_projection_family([5.0], [6.0])
    sch = builtin_example_schedule(0.5)
    with pytest.raises(ValueError, match="not fixed"):
        ProblemInstance.create(sp, fam, sch, u=np.zeros(1), x0=np.zeros(1), p=np.zeros(1))


@pytest.mark.parametrize("array_form", [True, False], ids=["fn_array", "per_point"])
def test_create_names_the_first_map_that_moves_the_point(array_form):
    # T_0 .. T_3 fix p = 0; T_n moves it by n - 3 from n = 4 on
    fam = MappingFamily(
        "late_shift", lambda n, x: x + max(n - 3, 0), np.zeros(1),
        fn_array=(lambda ns, xs: xs + np.maximum(ns - 3, 0)[:, None]) if array_form else None,
    )
    with pytest.raises(ValueError, match=r"not fixed by T_4: moved by 1\.0$"):
        euclidean_instance(family=fam, p=np.zeros(1))


def test_create_rejects_a_registered_point_mapped_to_nan():
    sp = EuclideanSpace(1)
    fam = MappingFamily("nan", lambda n, x: np.full_like(x, np.nan), np.zeros(1))
    sch = builtin_example_schedule(0.5)
    with pytest.raises(ValueError, match="not fixed"):
        ProblemInstance.create(sp, fam, sch, u=np.zeros(1), x0=np.zeros(1), p=np.zeros(1))


@pytest.mark.parametrize(
    "name,x0,u",
    [
        ("u", [0.0, 0.0], [np.nan, 0.0]),
        ("x0", [np.nan, 0.0], [0.0, 0.0]),
        ("u", [0.0, 0.0], [np.inf, 0.0]),
        ("u", [0.0, 0.0], [1e308, 1e308]),  # a finite point whose distance overflows
    ],
    ids=["nan_u", "nan_x0", "inf_u", "overflowing_u"],
)
def test_create_refuses_a_non_finite_distance_to_p_and_names_the_point(name, x0, u):
    # max([0.0, nan]) is 0.0, so a NaN anchor once gave M = 1 and a NaN orbit
    box = box_projection_family([-1.0] * 2, [1.0] * 2)
    schedule = builtin_linear_schedule(0.5)
    with pytest.raises(ValueError, match=rf"^d\({name}, p\) = (nan|inf) is not finite$"):
        euclidean_instance(dim=2, x0=x0, u=u, family=box, schedule=schedule, p=np.zeros(2))


def test_bad_registered_point_breaks_orbit_bound():
    # adversarial control: skipping the fixed-point validation with a point
    # far from the family's true fixed set must break d(u_n, T_n u_n) <= 2M
    sp = EuclideanSpace(1)
    fam = box_projection_family([5.0], [6.0])
    sch = builtin_example_schedule(0.5)
    inst = ProblemInstance(
        space=sp, family=fam, schedule=sch, u=np.zeros(1), x0=np.zeros(1), p=np.zeros(1), M=1
    )
    trace = run_tikhonov_mann(inst, 20)
    report = check_basic_bounds(inst, trace)
    assert not report.passed


@pytest.mark.parametrize("schedule_name", ["example", "linear"])
def test_recursions_hold_on_l1_instance(schedule_name):
    sch = (
        builtin_example_schedule(0.5)
        if schedule_name == "example"
        else builtin_linear_schedule(0.5)
    )
    fam = resolvent_l1_family(sch.gamma, dim=1)
    inst = euclidean_instance(x0=[2.0], family=fam, schedule=sch)
    trace = run_tikhonov_mann(inst, 5000)
    report = check_recursive_inequalities(inst, trace)
    assert report.passed, report.summary()


def test_halpern_start_and_lengths():
    # beta_0 = 0 puts the start at the anchor regardless of x0
    inst = euclidean_instance(x0=[2.0], u=[0.0])
    ha = run_modified_halpern(inst, 40)
    assert ha.y[0][0] == 0.0
    assert len(ha.y) == 41
    assert len(ha.v) == 40
    assert len(ha.residual_step) == 40
    assert np.all(ha.residual_step >= 0.0)


def test_halpern_equivalence_identity_anchor():
    # with u = x0 and the identity family both orbits sit at u forever
    inst = euclidean_instance(x0=[1.0], u=[1.0], family=identity_family(np.ones(1)), p=[1.0])
    ha = run_modified_halpern(inst, 20)
    assert all(abs(y[0] - 1.0) < 1e-15 for y in ha.y)
    report = check_halpern_equivalence(inst, 100)
    assert report.passed


def test_halpern_equivalence_on_star_tree():
    sp = StarTreeSpace(3)
    sch = builtin_example_schedule(0.5)
    fam = tree_contraction_family(0.5)
    inst = ProblemInstance.create(
        sp, fam, sch, u=TreePoint(0, 0.3), x0=TreePoint(1, 1.0), p=TreePoint(0, 0.0)
    )
    report = check_halpern_equivalence(inst, 500)
    assert report.max_u_y == report.max_x_v == 0.0, report.summary()


def test_direct_two_step_recursion_matches_zero_anchor_orbit():
    sch = builtin_example_schedule(0.5)
    fam = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    inst = euclidean_instance(dim=2, x0=[1.2, 1.6], u=[0.0, 0.0], family=fam, schedule=sch)
    trace = run_tikhonov_mann(inst, 300)
    direct = run_kmf_direct(fam, sch, np.array([1.2, 1.6]), 300)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(trace.x, direct))
    assert worst <= 1e-12


def test_trace_csv_roundtrip(tmp_path):
    inst = euclidean_instance(x0=[2.0])
    trace = run_tikhonov_mann(inst, 25)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, include_points=True)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert float(rows[3]["residual_step"]) == trace.residual_step[3]
    assert float(rows[3]["x0"]) == trace.x[3][0]


def test_tree_trace_csv_has_ray_column(tmp_path):
    sp = StarTreeSpace(3)
    sch = builtin_example_schedule(0.5)
    inst = ProblemInstance.create(
        sp, tree_contraction_family(0.5), sch,
        u=TreePoint(0, 0.3), x0=TreePoint(1, 1.0), p=TreePoint(0, 0.0),
    )
    trace = run_tikhonov_mann(inst, 10)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, include_points=True)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[-2:] == ["ray", "t"]


def test_rejects_nonpositive_horizon():
    inst = euclidean_instance()
    with pytest.raises(ValueError):
        run_tikhonov_mann(inst, 0)


def test_halpern_equivalence_on_every_suite_instance(suite_instances):
    # the array forms replay the loop's mix and fn calls on the same operands
    for name, instance in suite_instances:
        report = check_halpern_equivalence(instance, 1000)
        assert report.max_u_y == report.max_x_v == 0.0, f"{name}: {report.summary()}"


def counting_box_family():
    """The [-1, 1]^2 box projection with a record of its single-point
    calls; its array evaluation records none."""
    box = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    calls = []

    def fn(n, x):
        calls.append(n)
        return box.fn(n, x)

    return dataclasses.replace(box, fn=fn), calls


def test_halpern_check_reads_the_orbit_of_the_run():
    family, calls = counting_box_family()
    inst = euclidean_instance(dim=2, x0=[1.2, 1.6], u=[0.0, -0.5], family=family)
    calls.clear()
    H = 300
    trace = run_tikhonov_mann(inst, H)
    assert len(calls) == H
    report = check_halpern_equivalence(inst, H)
    assert len(calls) == H  # the check evaluates the family through its array form only
    assert report.max_u_y == report.max_x_v == 0.0
    # the same horizon again shares the stored arrays
    assert run_tikhonov_mann(inst, H).x is trace.x
    assert len(calls) == H
    # a second horizon computes a new orbit of its own length
    longer = run_tikhonov_mann(inst, H + 50)
    assert len(calls) == 2 * H + 50
    assert len(longer.x) == H + 51 and len(longer.u_seq) == H + 50
    assert np.array_equal(longer.x[: H + 1], trace.x)


def test_stored_orbit_is_read_only_on_both_spaces():
    euclid = euclidean_instance(dim=2, x0=[1.2, 1.6])
    tree = ProblemInstance.create(
        StarTreeSpace(3), tree_contraction_family(0.5), builtin_example_schedule(0.5),
        u=TreePoint(0, 0.3), x0=TreePoint(1, 1.0), p=TreePoint(0, 0.0),
    )
    for inst in (euclid, tree):
        trace = run_tikhonov_mann(inst, 20)
        for points in (trace.x, trace.u_seq):
            with pytest.raises(ValueError, match="read-only"):
                points[3] = inst.x0


def test_step_residuals_eventually_nonincreasing():
    fam = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    inst = euclidean_instance(dim=2, x0=[1.2, 1.6], u=[0.0, 0.0], family=fam)
    trace = run_tikhonov_mann(inst, 10_000)
    # observed on this instance: monotone from the start; allow a small
    # burn-in window and rounding slack
    assert np.all(np.diff(trace.residual_step[100:]) <= 1e-12)


def test_halpern_trace_runs_the_loop_only_when_no_orbit_is_stored():
    family, calls = counting_box_family()
    H = 300
    fresh = euclidean_instance(dim=2, x0=[1.2, 1.6], u=[0.0, -0.5], family=family)
    calls.clear()
    run_modified_halpern(fresh, H)
    assert len(calls) == H  # the anchored loop, once
    run_modified_halpern(fresh, H)
    assert len(calls) == H
    stored = euclidean_instance(dim=2, x0=[1.2, 1.6], u=[0.0, -0.5], family=family)
    run_tikhonov_mann(stored, H)
    calls.clear()
    run_modified_halpern(stored, H)
    assert calls == []
