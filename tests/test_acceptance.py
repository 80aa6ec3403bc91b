"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines even on success.  Criteria with stated runtime budgets are timed
around the work they mandate (session fixtures materialize inside the
first test that requests them, so orbit construction is counted there).
"""

import time

import numpy as np
import pytest

from tmann.geometry import (
    BrokenEuclideanSpace,
    EuclideanSpace,
    StarTreeSpace,
    TreePoint,
    check_w_axioms,
)
from tmann.iterate import (
    ProblemInstance,
    check_basic_bounds,
    check_halpern_equivalence,
    check_recursive_inequalities,
)
from tmann.mappings import (
    box_projection_family,
    chi_T_for,
    chi_T_from_gamma,
    tree_contraction_family,
)
from tmann.rates import (
    certify_rate,
    example_closed_form_rates,
    general_rates,
    sabach_shtern_check,
)
from tmann.sequences import (
    builtin_example_schedule,
    builtin_linear_schedule,
    ceil_reciprocal,
    oracle_cauchy_modulus,
    validate_schedule_moduli,
)

from conftest import point_dist, run_kmf_direct


def conclude(number: int, slug: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({slug}): {status}{suffix}")
    assert ok, f"criterion {number} ({slug}) failed{suffix}"


def test_criterion_1_closed_form_reproduction():
    t0 = time.perf_counter()
    ok = True
    for M in (1, 2, 3):
        for lam in (0.5, 1.0 / 3.0):
            schedule = builtin_example_schedule(lam)
            chi_T = chi_T_from_gamma(M, schedule.Gamma_cap, schedule.N_Gamma, schedule.chi_gamma)
            composed = general_rates(schedule, M, chi_T)
            L = ceil_reciprocal(lam)
            for k in range(51):
                want_sigma = 144 * M * M * (k + 1) ** 2 - 6 * M * (k + 1)
                want_sigma_t = 576 * M * M * L * L * (k + 1) ** 2 - 12 * M * L * (k + 1)
                ok = ok and composed.Sigma(k) == want_sigma
                ok = ok and composed.Sigma_T(k) == want_sigma_t
    elapsed = time.perf_counter() - t0
    conclude(1, "closed-form rate reproduction", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_empirical_rate_soundness(request):
    details = []
    ok = True
    for name in ("example_box", "example_l1"):
        t0 = time.perf_counter()
        fx = request.getfixturevalue(name)
        closed = example_closed_form_rates(fx.instance.M, 0.5)
        report = certify_rate(
            fx.trace.residual_step, closed.Sigma, k_max=10, tol=1e-9, label=name
        )
        elapsed = time.perf_counter() - t0
        passed = {r.status for r in report.rows} == {"pass"}
        ok = ok and passed and elapsed < 30.0
        details.append(f"{name}: {'pass' if passed else 'FAIL'} in {elapsed:.1f}s")
        if not passed:
            print(report.summary())
    conclude(2, "empirical rate soundness", ok, "; ".join(details))


def test_criterion_3_linear_pointwise_bounds(request):
    t0 = time.perf_counter()
    fx = request.getfixturevalue("linear_l1")
    instance, trace = fx.instance, fx.trace
    M = instance.M
    lam = 0.5
    last = 100_000  # criterion covers n <= 10^5 inclusive
    ns = np.arange(last + 1, dtype=float)

    step_excess = float(np.max(trace.residual_step[: last + 1] - 6.0 * M / (ns + 2.0)))
    t_excess = float(np.max(trace.residual_T[: last + 1] - 10.0 * M / (lam * (ns + 2.0))))

    cross_excess = -np.inf
    sample_ns = np.unique(np.geomspace(1, last, 100).astype(int))
    for n in sample_ns:
        xn = instance.space.to_loop(trace.x[n])
        bound = 20.0 * M / (lam * (n + 2))
        for m in (0, n // 2, 2 * n):
            dist = point_dist(instance.space, xn, instance.family.fn(m, xn))
            cross_excess = max(cross_excess, dist - bound)
    elapsed = time.perf_counter() - t0

    ok = step_excess <= 1e-9 and t_excess <= 1e-9 and cross_excess <= 1e-9 and elapsed < 60.0
    conclude(
        3,
        "linear-rate pointwise bounds",
        ok,
        f"step excess {step_excess:.2e}, map excess {t_excess:.2e}, "
        f"cross excess {cross_excess:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_per_step_inequality_suite(all_fixtures):
    failures = []
    for fx in all_fixtures:
        bounds = check_basic_bounds(fx.instance, fx.trace, tol=1e-9)
        recursions = check_recursive_inequalities(fx.instance, fx.trace, tol=1e-9)
        if not bounds.passed:
            failures.append(f"{fx.name}: {bounds.summary()}")
        if not recursions.passed:
            failures.append(f"{fx.name}: {recursions.summary()}")
    for f in failures:
        print(f)
    conclude(4, "per-step inequality suite", not failures, f"{len(all_fixtures)} instances")


def test_criterion_5_halpern_equivalence():
    schedule = builtin_example_schedule(0.5)
    euclid = ProblemInstance.create(
        EuclideanSpace(2, box_radius=3.0),
        box_projection_family([-1.0, -1.0], [1.0, 1.0]),
        schedule,
        u=np.zeros(2),
        x0=np.array([1.2, 1.6]),
        p=np.zeros(2),
    )
    tree = ProblemInstance.create(
        StarTreeSpace(3, max_radius=3.0),
        tree_contraction_family(0.5),
        schedule,
        u=TreePoint(0, 0.3),
        x0=TreePoint(1, 1.0),
        p=TreePoint(0, 0.0),
    )
    reports = {
        "euclidean": check_halpern_equivalence(euclid, 10_000, tol=1e-9),
        "star_tree": check_halpern_equivalence(tree, 10_000, tol=1e-9),
    }
    ok = all(r.passed for r in reports.values())
    detail = "; ".join(
        f"{name}: max gaps {r.max_u_y:.1e}/{r.max_x_v:.1e}" for name, r in reports.items()
    )
    conclude(5, "halpern orbit equivalence", ok, detail)


def test_criterion_6_geometry_axioms():
    rng = np.random.default_rng
    euclid = check_w_axioms(EuclideanSpace(3), samples=10_000, tol=1e-9, rng=rng(101))
    tree = check_w_axioms(StarTreeSpace(4), samples=10_000, tol=1e-9, rng=rng(202))
    broken = check_w_axioms(BrokenEuclideanSpace(2), samples=10_000, tol=1e-9, rng=rng(303))
    ok = euclid.passed and tree.passed and not broken.passed
    worst = max(row.worst_excess for row in euclid.checks + tree.checks)
    conclude(
        6,
        "geometry axioms",
        ok,
        f"worst genuine violation {worst:.1e}; broken fixture flagged: {not broken.passed}",
    )


def test_criterion_7_modulus_oracles(request):
    results = []
    ok = True
    for schedule in (builtin_example_schedule(0.5), builtin_linear_schedule(0.5)):
        report = validate_schedule_moduli(schedule, k_max=50, horizon=1_000_000)
        statuses = {s for levels in report.moduli.values() for s in levels}
        passed = report.status == "pass" and statuses == {"pass"}
        ok = ok and passed
        results.append(f"{schedule.name}: {'pass' if passed else 'FAIL'}")
        if not passed:
            print(report.summary())

    # gap-series moduli dominate the empirical Cauchy modulus along traces
    for name in ("example_box", "example_l1", "linear_l1"):
        fx = request.getfixturevalue(name)
        schedule, family, M = fx.instance.schedule, fx.instance.family, fx.instance.M
        chi_T = chi_T_for(family, schedule, M)
        table = oracle_cauchy_modulus(
            fx.trace.tfam_gap, k_max=20, horizon=fx.trace.horizon - 1, include_start=False
        )
        dominated = all(
            m is not None and conclusive and chi_T(k) >= m
            for k, (m, conclusive) in enumerate(zip(table.minimal, table.conclusive))
        )
        ok = ok and dominated
        results.append(f"chi_T on {name}: {'dominates' if dominated else 'FAILS'}")
    conclude(7, "modulus oracles", ok, "; ".join(results))


def test_criterion_8_sabach_shtern(request):
    fx = request.getfixturevalue("linear_l1")
    L = 3.0 * fx.instance.M
    report = sabach_shtern_check(fx.trace.residual_step, L=L, tol=1e-9)
    synthetic = sabach_shtern_check([float(L)] * 50, L=L, tol=1e-9)
    conclusion = synthetic.checks[2]
    ok = report.passed and not synthetic.passed and conclusion.at == 49
    conclude(
        8,
        "sabach-shtern recursion",
        ok,
        f"trace: {'pass' if report.passed else 'FAIL'}; synthetic rejected at "
        f"n={conclusion.at}",
    )


def test_criterion_9_hilbert_specialization(request):
    fx = request.getfixturevalue("hilbert_box")
    direct = run_kmf_direct(fx.instance.family, fx.instance.schedule, fx.instance.x0, 10_000)
    worst = max(
        float(np.max(np.abs(a - b))) for a, b in zip(fx.trace.x[: 10_001], direct)
    )
    ok = worst <= 1e-12
    conclude(9, "two-step recursion specialization", ok, f"worst coordinate gap {worst:.2e}")
