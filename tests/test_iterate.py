import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from tmann import checks
from tmann.geometry import EuclideanSpace, StarTreeSpace, TreePoint, TreePoints
from tmann.iterate import (
    TRACE_DENSE,
    ProblemInstance,
    _orbit,
    check_basic_bounds,
    check_halpern_equivalence,
    check_recursive_inequalities,
    run_modified_halpern,
    run_tikhonov_mann,
    trace_slices,
    u_points,
)
from tmann.mappings import (
    MappingFamily,
    box_projection_family,
    identity_family,
    resolvent_l1_family,
    tree_contraction_family,
)
from tmann.rates import certify_rate, linear_rates
from tmann.sequences import builtin_example_schedule, builtin_linear_schedule

from conftest import point_dist, row_bits, run_kmf_direct
from test_kernel import CASES, SEQUENCES


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
    assert u_points(inst, trace.x, slice(0, 3))[0][0] == 0.0
    assert trace.x[1][0] == 0.0


def test_trace_lengths_consistent():
    inst = euclidean_instance(x0=[2.0])
    H = 37
    trace = run_tikhonov_mann(inst, H)
    fields = [f.name for f in dataclasses.fields(trace)]
    assert fields == ["horizon", "residual_step", "residual_T", "tfam_gap", "x", "u_residual"]
    assert len(trace.x) == H + 1
    assert len(u_points(inst, trace.x, slice(0, H))) == H
    for arr in (trace.residual_step, trace.residual_T, trace.tfam_gap):
        assert len(arr) == H
    assert np.all(np.isfinite(trace.residual_step))
    assert np.all(trace.residual_step >= 0.0)


def test_m_derivation_and_bounds_on_r1():
    inst = euclidean_instance(x0=[3.0], u=[0.0])
    assert inst.M == 3
    trace = run_tikhonov_mann(inst, 2000)
    report = check_basic_bounds(inst, trace)
    assert report.passed, report.summary()
    assert np.max(inst.space.dist_array(trace.x, inst.p)) <= 3.0 + 1e-9


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
        "late_shift", lambda n, x: np.asarray(x) + max(n - 3, 0), np.zeros(1),
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
    assert ha.u[0][0] == 0.0  # y_0 = u_0
    assert len(ha.u) == len(ha.y) == len(ha.v) == 40


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


def grid_steps(horizon):
    return [n for steps in trace_slices(horizon) for n in range(horizon)[steps]]


@pytest.mark.parametrize("horizon", [1, 2, 4095, 4096, 4097, 4098, 73_537, 1_036_082])
def test_trace_grid_is_increasing_from_0_to_the_last_step(horizon):
    steps = grid_steps(horizon)
    assert steps[0] == 0 and steps[-1] == horizon - 1
    assert all(a < b for a, b in zip(steps, steps[1:]))
    dense = min(horizon, TRACE_DENSE)
    assert steps[:dense] == list(range(dense))


def test_trace_grid_keeps_2048_rows_an_octave():
    # 4,096 dense rows, then 2,048 per octave; the last step ends a slice at
    # 73,537 and is one extra row at 1,036,082
    assert len(grid_steps(73_537)) == 12_539
    assert len(grid_steps(1_036_082)) == 20_433
    steps = grid_steps(2**17 + 1)
    assert sum(2**16 <= n < 2**17 for n in steps) == 2048


def tree_instance():
    return ProblemInstance.create(
        StarTreeSpace(3), tree_contraction_family(0.5), builtin_linear_schedule(0.5),
        u=TreePoint(2, 0.3), x0=TreePoint(1, 1.0), p=TreePoint(0, 0.0),
    )


@pytest.mark.parametrize("kind", ["euclidean", "tree"])
def test_trace_csv_rows_equal_the_arrays_on_the_grid(tmp_path, kind):
    H = 10_000
    if kind == "euclidean":
        inst = euclidean_instance(dim=2, x0=[1.5, -2.0], u=[0.5, 0.5])
    else:
        inst = tree_instance()
    trace = run_tikhonov_mann(inst, H)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, include_points=True)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == grid_steps(H)
    for row in rows:
        n = int(row["n"])
        for name in ("residual_step", "residual_T", "tfam_gap"):
            assert float(row[name]) == getattr(trace, name)[n]
        if kind == "euclidean":
            assert [float(row["x0"]), float(row["x1"])] == trace.x[n].tolist()
        else:
            assert TreePoint(int(row["ray"]), float(row["t"])) == trace.x[n]


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
    assert len(longer.x) == H + 51 and len(u_points(inst, longer.x, slice(0, H + 50))) == H + 50
    assert np.array_equal(longer.x[: H + 1], trace.x)


def test_stored_orbit_is_read_only_on_both_spaces():
    euclid = euclidean_instance(dim=2, x0=[1.2, 1.6])
    tree = ProblemInstance.create(
        StarTreeSpace(3), tree_contraction_family(0.5), builtin_example_schedule(0.5),
        u=TreePoint(0, 0.3), x0=TreePoint(1, 1.0), p=TreePoint(0, 0.0),
    )
    for inst in (euclid, tree):
        trace = run_tikhonov_mann(inst, 20)
        on_tree = isinstance(trace.x, TreePoints)
        # a TreePoints takes no item assignment at all
        error, message = (TypeError, "item assignment") if on_tree else (ValueError, "read-only")
        with pytest.raises(error, match=message):
            trace.x[3] = inst.x0
        # the tree keeps the ray and t fields of one record array
        for field in (trace.x.ray, trace.x.t) if on_tree else ():
            with pytest.raises(ValueError, match="read-only"):
                field[3] = 1
        # u_n is rebuilt for each reader, so writing to one copy changes no other
        us = u_points(inst, trace.x, slice(0, 20))
        before = u_points(inst, trace.x, slice(0, 20))[3]
        (us.t if on_tree else us)[3] = 7.0
        assert point_dist(inst.space, u_points(inst, trace.x, slice(0, 20))[3], before) == 0.0


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


#: Horizons around blocks of 7 rows: 1, 2 and 6 fit in one block, 7 fills
#: it, 8 and 15 end in a block of one row, and 200 takes 29 blocks.
BLOCK_HORIZONS = [1, 2, 6, 7, 8, 15, 200]


def trace_and_rows(case, horizon):
    """The bit patterns of the trace of a fresh ``CASES`` instance, and of
    the rows of its bound and recursion checks."""
    instance = CASES[case]()
    trace = run_tikhonov_mann(instance, horizon)
    arrays = [getattr(trace, name) for name in SEQUENCES]
    for points in (trace.x, u_points(instance, trace.x, slice(0, horizon))):
        arrays += [points.ray, points.t] if isinstance(points, TreePoints) else [points]
    sections = [check_basic_bounds(instance, trace)]
    if horizon >= 2:
        sections.append(check_recursive_inequalities(instance, trace))
    rows = [row_bits(row) for section in sections for row in section.checks]
    return [a.tobytes() for a in arrays], rows


@pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
@pytest.mark.parametrize("case", ["euclidean_box", "euclidean_forward_backward", "tree_contraction"])
def test_trace_and_iterate_checks_in_blocks_of_7_equal_the_default_run(case, horizon, monkeypatch):
    default = trace_and_rows(case, horizon)
    monkeypatch.setattr(checks, "BLOCK_ROWS", 7)
    assert trace_and_rows(case, horizon) == default


# the longest full-certify orbit, and one whose last block is 2,000 rows
@pytest.mark.parametrize("H", [73_537, 71_632])
def test_residuals_and_orbit_checks_keep_no_whole_horizon_temporaries(H):
    # a whole-horizon float array is 0.59 MB, an (H, 2) point array 1.18 MB
    fam = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    schedule = builtin_linear_schedule(0.5)
    inst = euclidean_instance(dim=2, x0=[0.6, 0.8], u=[0.0, 0.0], family=fam, schedule=schedule)
    lr = linear_rates(inst.M, 0.5)
    tracemalloc.start()
    try:
        _orbit(inst, H)
        orbit_peak = tracemalloc.get_traced_memory()[1]
        trace = run_tikhonov_mann(inst, H)
        held = tracemalloc.get_traced_memory()[0]
        check_basic_bounds(inst, trace)
        check_recursive_inequalities(inst, trace)
        lr.orbit_checks(inst, trace, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        certify_rate(trace.residual_T, lr.rate_T, k_max=3)
        certify_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the loop keeps x_n (16 B a step) and no whole-horizon term array
    assert orbit_peak < 20 * H
    # x_n and the three residual sequences: 5 floats a step
    assert 5 * 8 * H <= held < 6 * 8 * H
    assert peak - held < 1_000_000
    # the running maximum of certification is one block long
    assert certify_peak < 100_000
