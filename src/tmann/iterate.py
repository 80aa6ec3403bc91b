"""The Tikhonov-Mann family iteration, trace recording and per-step checks.

The iteration anchors a Krasnoselskii-Mann step at a point u:

    u_n     = (1 - beta_n) u + beta_n x_n
    x_{n+1} = (1 - lambda_n) u_n + lambda_n T_n u_n

As beta_n -> 1 the anchoring vanishes and the step approaches a plain Mann
step; the anchor is what buys strong convergence in the classical Hilbert
setting.  The modified Halpern iteration

    v_n     = (1 - lambda_n) y_n + lambda_n T_n y_n
    y_{n+1} = (1 - beta_{n+1}) u + beta_{n+1} v_n

walks the same orbit when started at y_0 = (1 - beta_0) u + beta_0 x_0:
then u_n = y_n and x_{n+1} = v_n for every n.

Only the recursion runs step by step.  The loop stores the orbit in
preallocated point arrays (an (n, d) float array on Euclidean space, ray and
radius arrays on the star tree); every residual and distance sequence, which
is what rate certification consumes, is then computed from the stored orbit
with array operations.

The per-step checkers assert, along a computed orbit, the bounds the rate
theorems rest on.  These are theorems for exact arithmetic: a violation
beyond rounding tolerance indicates an implementation bug, which is exactly
why they are checked.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Points, Space, TreePoints
from .mappings import MappingFamily
from .sequences import ParamSchedule, _int_ceil


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A space, family, schedule, anchor u, start x0 and fixed point p.

    M is the integer ceiling of max(d(x0, p), d(u, p)), clamped to >= 1
    because every rate formula consumes a positive integer radius bound.
    Build instances through :meth:`create`, which derives M (or refuses a
    given M below it) and verifies that p is fixed by the first few maps.
    """

    space: Space
    family: MappingFamily
    schedule: ParamSchedule
    u: Point
    x0: Point
    p: Point
    M: int

    @classmethod
    def create(
        cls,
        space: Space,
        family: MappingFamily,
        schedule: ParamSchedule,
        u: Point,
        x0: Point,
        p: Point | None = None,
        M: int | None = None,
        check_fixed_point: bool = True,
        fixed_point_tol: float = 1e-9,
    ) -> "ProblemInstance":
        if p is None:
            p = family.fixed_point
        radius = max(space.dist(x0, p), space.dist(u, p))
        least = max(1, _int_ceil(radius))
        if M is None:
            M = least
        elif M < least:
            raise ValueError(
                f"M = {M} is below max(d(x0, p), d(u, p)) = {radius!r}; the rates need M >= {least}"
            )
        if check_fixed_point:
            for n in range(10):
                drift = space.dist(family.eval(n, p), p)
                if drift > fixed_point_tol:
                    raise ValueError(
                        f"registered point is not fixed by T_{n}: moved by {drift!r}"
                    )
        return cls(space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=M)


@dataclass(eq=False)
class IterationTrace:
    """Recorded orbit data.

    Scalar sequences (always present, indexed by step n):

        residual_step[n] = d(x_n, x_{n+1})            n < horizon
        residual_T[n]    = d(x_n, T_n x_n)            n < horizon
        tfam_gap[n]      = d(T_{n+1} u_n, T_n u_n)    n < horizon
        dist_u_succ[n]   = d(u_{n+1}, u_n)            n < horizon - 1
        dist_x_p, dist_x_u                            n <= horizon
        dist_u_p, dist_u_Tu                           n < horizon

    ``x`` holds the horizon + 1 points x_n and ``u_seq`` the horizon points
    u_n, each as a point array of the space.
    """

    horizon: int
    residual_step: np.ndarray
    residual_T: np.ndarray
    tfam_gap: np.ndarray
    dist_u_succ: np.ndarray
    dist_x_p: np.ndarray
    dist_x_u: np.ndarray
    dist_u_p: np.ndarray
    dist_u_Tu: np.ndarray
    x: Points
    u_seq: Points

    def to_csv(self, path, include_points: bool = False) -> None:
        """Write one row per step: n, residual_step, residual_T, tfam_gap,
        plus the coordinates of x_n when requested."""
        header = ["n", "residual_step", "residual_T", "tfam_gap"]
        columns = [range(self.horizon)] + [
            _float_column(seq) for seq in (self.residual_step, self.residual_T, self.tfam_gap)
        ]
        if include_points:
            names, coords = _point_columns(self.x[: self.horizon])
            header += names
            columns += coords
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*columns))


def _float_column(values):
    """The round-trip text of each float in ``values``."""
    return map(repr, map(float, values))


def _point_columns(points: Points) -> tuple[list[str], list]:
    """Header names and text columns of a point array."""
    if isinstance(points, TreePoints):
        return ["ray", "t"], [map(str, map(int, points.ray)), _float_column(points.t)]
    return [f"x{i}" for i in range(points.shape[1])], [_float_column(c) for c in points.T]


def run_tikhonov_mann(instance: ProblemInstance, horizon: int) -> IterationTrace:
    """Run the anchored iteration for ``horizon`` steps and record its orbit
    and residuals."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u, p = instance.u, instance.p

    xs = sp.empty(horizon + 1)
    us = sp.empty(horizon)
    t_us = sp.empty(horizon)
    x = instance.x0
    xs[0] = x
    for n in range(horizon):
        u_n = sp.combine(u, x, sch.beta(n))
        t_un = fam.eval(n, u_n)
        x = sp.combine(u_n, t_un, sch.lam(n))
        us[n] = u_n
        t_us[n] = t_un
        xs[n + 1] = x

    dist = sp.dist_array
    steps = np.arange(horizon + 1)
    x_n = xs[:horizon]
    return IterationTrace(
        horizon=horizon,
        residual_step=dist(x_n, xs[1:]),
        residual_T=dist(x_n, fam.eval_array(sp, steps[:-1], x_n)),
        tfam_gap=dist(fam.eval_array(sp, steps[1:], us), t_us),
        dist_u_succ=dist(us[1:], us[:-1]),
        dist_x_p=dist(xs, p),
        dist_x_u=dist(xs, u),
        dist_u_p=dist(us, p),
        dist_u_Tu=dist(us, t_us),
        x=xs,
        u_seq=us,
    )


@dataclass(eq=False)
class HalpernTrace:
    """Orbit of the modified Halpern iteration: the y sequence (horizon + 1
    points), the v sequence (horizon points), each a point array, and the
    analogous residuals."""

    horizon: int
    residual_step: np.ndarray
    residual_T: np.ndarray
    y: Points
    v: Points


def run_modified_halpern(instance: ProblemInstance, horizon: int) -> HalpernTrace:
    """Run the modified Halpern iteration started at y_0 = (1 - beta_0) u + beta_0 x_0."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    sp, fam, sch = instance.space, instance.family, instance.schedule
    u = instance.u

    ys = sp.empty(horizon + 1)
    vs = sp.empty(horizon)
    t_ys = sp.empty(horizon)
    y = sp.combine(u, instance.x0, sch.beta(0))
    ys[0] = y
    for n in range(horizon):
        t_yn = fam.eval(n, y)
        v = sp.combine(y, t_yn, sch.lam(n))
        y = sp.combine(u, v, sch.beta(n + 1))
        t_ys[n] = t_yn
        vs[n] = v
        ys[n + 1] = y

    y_n = ys[:horizon]
    return HalpernTrace(
        horizon=horizon,
        residual_step=sp.dist_array(y_n, ys[1:]),
        residual_T=sp.dist_array(y_n, t_ys),
        y=ys,
        v=vs,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst pointwise gaps between the two iterations on a shared instance."""

    horizon: int
    max_u_y: float
    max_x_v: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_u_y <= self.tol and self.max_x_v <= self.tol

    def summary(self) -> str:
        status = "ok" if self.passed else "VIOLATED"
        return (
            f"halpern equivalence over {self.horizon} steps: "
            f"max d(u_n, y_n) = {self.max_u_y:.3e}, "
            f"max d(x_n+1, v_n) = {self.max_x_v:.3e}  {status}"
        )


def check_halpern_equivalence(
    instance: ProblemInstance, horizon: int, tol: float = 1e-9
) -> EquivalenceReport:
    """Run both iterations and compare their orbits pointwise.

    With the matching start the identities u_n = y_n and x_{n+1} = v_n hold
    in exact arithmetic on any space, so the observed gaps measure only
    accumulated rounding.
    """
    tm = run_tikhonov_mann(instance, horizon)
    ha = run_modified_halpern(instance, horizon)
    dist = instance.space.dist_array
    max_u_y = float(np.max(dist(tm.u_seq, ha.y[:horizon])))
    max_x_v = float(np.max(dist(tm.x[1:], ha.v)))
    return EquivalenceReport(horizon=horizon, max_u_y=max_u_y, max_x_v=max_x_v, tol=tol)


def _schedule_arrays(schedule: ParamSchedule, count: int) -> tuple[np.ndarray, np.ndarray]:
    beta = np.fromiter((schedule.beta(n) for n in range(count)), dtype=float, count=count)
    lam = np.fromiter((schedule.lam(n) for n in range(count)), dtype=float, count=count)
    return beta, lam


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: float
    worst_value: float
    worst_index: int

    def excess(self) -> float:
        return self.worst_value - self.bound


@dataclass(frozen=True)
class BoundsReport:
    """Orbit boundedness: d(x_n, p) <= M, d(x_n, u) <= 2M, d(u_n, p) <= M
    and d(u_n, T_n u_n) <= 2M along the whole recorded orbit."""

    checks: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.excess() <= self.tol for c in self.checks)

    def summary(self) -> str:
        lines = ["orbit bounds:"]
        for c in self.checks:
            status = "ok" if c.excess() <= self.tol else "VIOLATED"
            lines.append(
                f"  {c.name:<16} worst {c.worst_value:.12g} vs bound {c.bound:g} "
                f"(at n={c.worst_index})  {status}"
            )
        return "\n".join(lines)


def check_basic_bounds(
    instance: ProblemInstance, trace: IterationTrace, tol: float = 1e-9
) -> BoundsReport:
    """Scan the recorded distance sequences against the M-based bounds."""
    M = float(instance.M)

    def worst(values: np.ndarray, name: str, bound: float) -> BoundCheck:
        idx = int(np.argmax(values))
        return BoundCheck(name=name, bound=bound, worst_value=float(values[idx]), worst_index=idx)

    checks = (
        worst(trace.dist_x_p, "d(x_n, p)", M),
        worst(trace.dist_x_u, "d(x_n, u)", 2 * M),
        worst(trace.dist_u_p, "d(u_n, p)", M),
        worst(trace.dist_u_Tu, "d(u_n, T_n u_n)", 2 * M),
    )
    return BoundsReport(checks=checks, tol=tol)


@dataclass(frozen=True)
class RecursionCheck:
    name: str
    worst_excess: float
    worst_index: int

    def ok(self, tol: float) -> bool:
        return self.worst_excess <= tol


@dataclass(frozen=True)
class RecursionReport:
    """Per-step recursions along the orbit:

    (a) d(u_{n+1}, u_n) <= beta_{n+1} d(x_{n+1}, x_n) + 2M |beta_{n+1} - beta_n|
    (b) d(x_{n+2}, x_{n+1}) <= beta_{n+1} d(x_{n+1}, x_n) + d(T_{n+1} u_n, T_n u_n)
                               + 2M (|lambda_{n+1} - lambda_n| + |beta_{n+1} - beta_n|)
    (c) lambda_n d(x_n, T_n x_n) <= d(x_n, x_{n+1}) + 2M (1 - beta_n)
    """

    checks: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.ok(self.tol) for c in self.checks)

    def summary(self) -> str:
        lines = ["per-step recursions:"]
        for c in self.checks:
            status = "ok" if c.ok(self.tol) else "VIOLATED"
            lines.append(
                f"  {c.name:<24} worst excess {c.worst_excess: .3e} (at n={c.worst_index})  {status}"
            )
        return "\n".join(lines)


def check_recursive_inequalities(
    instance: ProblemInstance,
    trace: IterationTrace,
    tol: float = 1e-9,
    rel: float = 1e-12,
) -> RecursionReport:
    """Assert the three per-step inequalities at every recorded step.

    The comparison allows ``tol`` absolutely plus ``rel`` times the right
    side, absorbing rounding accumulated over long orbits.
    """
    if trace.horizon < 2:
        raise ValueError("recursion checks need a trace of at least 2 steps")
    M = float(instance.M)
    H = trace.horizon
    beta, lam = _schedule_arrays(instance.schedule, H + 1)
    dbeta = np.abs(np.diff(beta))
    dlam = np.abs(np.diff(lam))

    def scored(name: str, lhs: np.ndarray, rhs: np.ndarray) -> RecursionCheck:
        excess = lhs - rhs - rel * np.maximum(1.0, rhs)
        idx = int(np.argmax(excess))
        return RecursionCheck(name=name, worst_excess=float(excess[idx]), worst_index=idx)

    # (a): indices n = 0 .. H-2
    lhs_a = trace.dist_u_succ
    rhs_a = beta[1:H] * trace.residual_step[: H - 1] + 2 * M * dbeta[: H - 1]
    # (b): indices n = 0 .. H-2
    lhs_b = trace.residual_step[1:H]
    rhs_b = (
        beta[1:H] * trace.residual_step[: H - 1]
        + trace.tfam_gap[: H - 1]
        + 2 * M * (dlam[: H - 1] + dbeta[: H - 1])
    )
    # (c): indices n = 0 .. H-1
    lhs_c = lam[:H] * trace.residual_T
    rhs_c = trace.residual_step + 2 * M * (1.0 - beta[:H])

    checks = (
        scored("anchor_step (a)", lhs_a, rhs_a),
        scored("main_recursion (b)", lhs_b, rhs_b),
        scored("residual_link (c)", lhs_c, rhs_c),
    )
    return RecursionReport(checks=checks, tol=tol)


def run_kmf_direct(
    family: MappingFamily, schedule: ParamSchedule, x0: np.ndarray, horizon: int
) -> list[np.ndarray]:
    """Direct two-step recursion x_{n+1} = (1 - lambda_n) beta_n x_n
    + lambda_n T_n(beta_n x_n).

    This grouping is algebraically identical to the anchored iteration with
    u = 0 in a normed space; it exists as an independent cross-check and is
    only meaningful for Euclidean instances with the zero anchor.
    """
    x = np.asarray(x0, dtype=float)
    out = [x]
    for n in range(horizon):
        beta_n = schedule.beta(n)
        lam_n = schedule.lam(n)
        scaled = beta_n * x
        x = (1.0 - lam_n) * scaled + lam_n * family.eval(n, scaled)
        out.append(x)
    return out
