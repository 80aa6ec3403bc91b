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
then u_n = y_n and x_{n+1} = v_n for every n.  So the module has one loop,
the anchored one, which checks the schedule terms it reads and each point it
did not make itself; the Halpern trace is read off its stored orbit.

Only the recursion runs step by step, on the space's loop points: a list of
d Python floats on Euclidean space, which ``mix`` combines with no numpy
call, and a ``TreePoint`` on the star tree.  ``fn`` receives each u_n as a
point of the space (an ndarray on Euclidean space) and may return a loop
point or anything ``as_point`` accepts.  The loop stores only x_n, in a
point array (an (n, d) float array on Euclidean space, ray and radius arrays
on the star tree); u_n = W(u, x_n, beta_n) comes from ``combine_array``
after it, in blocks of ``BLOCK_ROWS`` rows, equal to the loop's u_n row by
row.  Every residual and distance sequence, which is what rate
certification consumes, is then computed from the stored orbit with array
operations.  Each instance keeps its latest anchored orbit, read only, so
an instance runs the loop once per horizon: the Halpern trace and the
Halpern check read the stored orbit with array operations.

The per-step checkers assert, along a computed orbit, the bounds the rate
theorems rest on.  These are theorems for exact arithmetic: a violation
beyond rounding tolerance indicates an implementation bug, which is exactly
why they are checked.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .checks import Row, Section, worst_row
from .geometry import Point, Points, Space, TreePoints
from .mappings import MappingFamily
from .sequences import ParamSchedule, _int_ceil, terms


#: How far T_0 .. T_9 may move the registered fixed point p.
FIXED_POINT_TOL = 1e-9

#: Rows per ``combine_array`` call when u_n is computed from the stored x_n.
BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A space, family, schedule, anchor u, start x0 and fixed point p.

    M is the integer ceiling of max(d(x0, p), d(u, p)), clamped to >= 1
    because every rate formula consumes a positive integer radius bound.
    Build instances through :meth:`create`, which derives M (or refuses a
    given M below it) and verifies that p is fixed by T_0 .. T_9 up to
    ``FIXED_POINT_TOL``.  ``_stored_orbit`` keeps the latest (horizon, x, u)
    that :func:`_orbit` computed for the instance.
    """

    space: Space
    family: MappingFamily
    schedule: ParamSchedule
    u: Point
    x0: Point
    p: Point
    M: int
    _stored_orbit: tuple | None = field(default=None, init=False, repr=False)

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
    ) -> "ProblemInstance":
        if p is None:
            p = family.fixed_point
        fixed = space.as_point(p)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            radii = space.dist_array(space.stack([x0, u]), fixed).tolist()
        for name, r in zip(("x0", "u"), radii):
            if not np.isfinite(r):
                raise ValueError(f"d({name}, p) = {r!r} is not finite")
        radius = max(radii)
        least = max(1, _int_ceil(radius))
        if M is None:
            M = least
        elif M < least:
            raise ValueError(
                f"M = {M} is below max(d(x0, p), d(u, p)) = {radius!r}; the rates need M >= {least}"
            )
        mapped = family.eval_array(space, np.arange(10), _repeat(space, fixed, 10))
        drift = space.dist_array(mapped, fixed)
        moved = np.flatnonzero(~(drift <= FIXED_POINT_TOL))  # a NaN drift is refused too
        if moved.size:
            n = int(moved[0])
            raise ValueError(
                f"registered point is not fixed by T_{n}: moved by {float(drift[n])!r}"
            )
        return cls(space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=M)


def _repeat(space: Space, point: Point, count: int) -> Points:
    """The point array holding ``point`` in each of ``count`` rows."""
    return space.stack([point])[np.zeros(count, dtype=int)]


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
        write_csv(path, header, zip(*columns))


def write_csv(path, header: list, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV lines ending in a bare newline."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _float_column(values):
    """The round-trip text of each float in ``values``."""
    return map(repr, map(float, values))


def _point_columns(points: Points) -> tuple[list[str], list]:
    """Header names and text columns of a point array."""
    if isinstance(points, TreePoints):
        return ["ray", "t"], [map(str, map(int, points.ray)), _float_column(points.t)]
    return [f"x{i}" for i in range(points.shape[1])], [_float_column(c) for c in points.T]


def _orbit(instance: ProblemInstance, horizon: int) -> tuple[Points, Points]:
    """The read-only point arrays x_0 .. x_horizon and u_0 .. u_{horizon-1}
    of the anchored iteration, computed once per instance and horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    stored = instance._stored_orbit
    if stored is not None and stored[0] == horizon:
        return stored[1:]
    sp, fn, sch = instance.space, instance.family.fn, instance.schedule
    # mix checks nothing: the loop checks the terms it reads once, here, and
    # each point it did not make itself as it arrives.  A memoryview of the
    # terms indexes as Python floats and keeps 8 bytes a term, a list 32.
    beta = sp._check_lambdas(terms(sch.beta, np.arange(horizon)))
    lam = memoryview(sp._check_lambdas(terms(sch.lam, np.arange(horizon))))
    mix, to_loop, from_loop = sp.mix, sp.to_loop, sp.from_loop

    u = to_loop(instance.u)

    def loop():
        x = to_loop(instance.x0)
        yield x
        for n, beta_n in enumerate(memoryview(beta)):
            u_n = mix(u, x, beta_n)
            x = mix(u_n, to_loop(fn(n, from_loop(u_n))), lam[n])
            yield x

    xs = sp.collect(loop(), horizon + 1)
    # u_n = W(u, x_n, beta_n), row by row as mix gives it, in blocks that
    # keep the temporaries of combine_array small
    us = sp.empty(horizon)
    anchor = _repeat(sp, instance.u, min(horizon, BLOCK_ROWS))
    for start in range(0, horizon, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, horizon))
        us[rows] = sp.combine_array(anchor[: rows.stop - start], xs[rows], beta[rows])
    # every trace built from the stored orbit shares these arrays
    for array in (xs.ray, xs.t, us.ray, us.t) if isinstance(xs, TreePoints) else (xs, us):
        array.flags.writeable = False
    object.__setattr__(instance, "_stored_orbit", (horizon, xs, us))
    return xs, us


def run_tikhonov_mann(instance: ProblemInstance, horizon: int) -> IterationTrace:
    """Run the anchored iteration for ``horizon`` steps and record its orbit
    and residuals."""
    xs, us = _orbit(instance, horizon)
    sp, fam, u, p = instance.space, instance.family, instance.u, instance.p
    dist = sp.dist_array
    steps = np.arange(horizon + 1)
    x_n = xs[:horizon]
    t_us = fam.eval_array(sp, steps[:-1], us)  # equal to the loop's T_n u_n bit for bit
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
    """The modified Halpern iteration from y_0 = (1 - beta_0) u + beta_0 x_0,
    read off the anchored orbit of :func:`_orbit`: y_n = u_n and v_n = x_{n+1}
    for n < horizon, and y_horizon = W(u, x_horizon, beta_horizon) from
    ``combine_array``, which checks beta_horizon; T_n y_n is ``eval_array``'s."""
    xs, us = _orbit(instance, horizon)
    sp, fam = instance.space, instance.family
    ys = sp.empty(horizon + 1)
    ys[:horizon] = us
    beta_H = terms(instance.schedule.beta, np.array([horizon]))
    ys[horizon:] = sp.combine_array(sp.stack([instance.u]), xs[horizon:], beta_H)
    return HalpernTrace(
        horizon=horizon,
        residual_step=sp.dist_array(us, ys[1:]),
        residual_T=sp.dist_array(us, fam.eval_array(sp, np.arange(horizon), us)),
        y=ys,
        v=xs[1:],
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Bounds on the worst pointwise gaps between the two iterations on a
    shared instance: max d(u_n, y_n) and max d(x_{n+1}, v_n)."""

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
    """Bound the gaps between the modified Halpern iteration and the
    instance's anchored orbit, computed by :func:`_orbit` only when no run
    of this horizon stored it.  No Halpern loop runs.

    Each Halpern step is applied to the stored orbit at once, with the
    array forms ``eval_array`` and ``combine_array``:

        V_n     = W(u_n, T_n u_n, lambda_n),     v-defect  d(x_{n+1}, V_n)
        Y_0     = W(u, x_0, beta_0),             y-defect  d(u_0, Y_0)
        Y_{n+1} = W(u, V_n, beta_{n+1}),         y-defect  d(u_{n+1}, Y_{n+1})

    for n < horizon (y-defects up to u_{horizon-1}).  When every T_n is
    nonexpansive and W satisfies (W4), the Halpern step
    y -> W(u, W(y, T_n y, lambda_n), beta_{n+1}) is nonexpansive, so a
    Halpern loop started at y_0 keeps d(u_n, y_n) within the running sum
    e_n of the y-defects up to n, and d(x_{n+1}, v_n) within e_n plus the
    v-defect at n.  ``max_u_y`` and ``max_x_v`` report the largest of these
    two bounds.  On a correct space and family the array forms equal ``mix``
    and ``fn`` row by row, so every defect is exactly 0.0 and the Halpern
    iteration is the orbit bit for bit, as :func:`run_modified_halpern`
    reads it.  The check catches a family's ``fn_array`` or a space's
    ``combine_array`` that disagrees with the ``fn`` or ``mix`` the loop calls.
    """
    xs, us = _orbit(instance, horizon)
    sp, fam, sch = instance.space, instance.family, instance.schedule
    dist, combine = sp.dist_array, sp.combine_array
    steps = np.arange(horizon)
    beta = terms(sch.beta, steps)
    anchor = _repeat(sp, instance.u, horizon)
    vs = combine(us, fam.eval_array(sp, steps, us), terms(sch.lam, steps))
    y_defect = np.concatenate(
        [
            dist(us[:1], combine(anchor[:1], xs[:1], beta[:1])),
            dist(us[1:], combine(anchor[1:], vs[:-1], beta[1:])),
        ]
    )
    gap_u_y = np.cumsum(y_defect)
    gap_x_v = gap_u_y + dist(xs[1:], vs)
    return EquivalenceReport(
        horizon=horizon,
        max_u_y=float(np.max(gap_u_y)),
        max_x_v=float(np.max(gap_x_v)),
        tol=tol,
    )


@dataclass(frozen=True, kw_only=True)
class BoundCheck(Row):
    """A bound row: the worst value of a distance sequence against a
    constant bound, so its worst excess is ``worst_value - bound``."""

    bound: float
    worst_value: float

    def excess(self) -> float:
        return self.worst_excess

    def line(self, width: int) -> str:
        return (
            f"{self.name:<{width}} worst {self.worst_value:.12g} vs bound {self.bound:.17g} "
            f"(at n={self.at})"
        )


def check_basic_bounds(
    instance: ProblemInstance, trace: IterationTrace, tol: float = 1e-9
) -> Section:
    """Orbit boundedness: scan d(x_n, p) <= M, d(x_n, u) <= 2M,
    d(u_n, p) <= M and d(u_n, T_n u_n) <= 2M along the whole recorded
    orbit."""
    M = float(instance.M)

    def worst(values: np.ndarray, name: str, bound: float) -> BoundCheck:
        idx = int(np.argmax(values))
        value = float(values[idx])
        return BoundCheck(name, value - bound, idx, bound=bound, worst_value=value)

    checks = (
        worst(trace.dist_x_p, "d(x_n, p)", M),
        worst(trace.dist_x_u, "d(x_n, u)", 2 * M),
        worst(trace.dist_u_p, "d(u_n, p)", M),
        worst(trace.dist_u_Tu, "d(u_n, T_n u_n)", 2 * M),
    )
    return Section(title="orbit bounds:", checks=checks, tol=tol)


#: The relative allowance of the per-step recursions, times max(1, right side).
RECURSION_REL = 1e-12


def check_recursive_inequalities(
    instance: ProblemInstance, trace: IterationTrace, tol: float = 1e-9
) -> Section:
    """Assert the three per-step recursions at every recorded step n:

    (a) d(u_{n+1}, u_n) <= beta_{n+1} d(x_{n+1}, x_n) + 2M |beta_{n+1} - beta_n|
    (b) d(x_{n+2}, x_{n+1}) <= beta_{n+1} d(x_{n+1}, x_n) + d(T_{n+1} u_n, T_n u_n)
                               + 2M (|lambda_{n+1} - lambda_n| + |beta_{n+1} - beta_n|)
    (c) lambda_n d(x_n, T_n x_n) <= d(x_n, x_{n+1}) + 2M (1 - beta_n)

    The comparison allows ``tol`` absolutely plus ``RECURSION_REL`` times
    the right side, absorbing rounding accumulated over long orbits.
    """
    if trace.horizon < 2:
        raise ValueError("recursion checks need a trace of at least 2 steps")
    M = float(instance.M)
    H = trace.horizon
    indices = np.arange(H + 1)
    beta = terms(instance.schedule.beta, indices)
    lam = terms(instance.schedule.lam, indices)
    dbeta = np.abs(np.diff(beta))
    dlam = np.abs(np.diff(lam))

    def scored(name: str, lhs: np.ndarray, rhs: np.ndarray) -> Row:
        return worst_row(name, lhs - rhs - RECURSION_REL * np.maximum(1.0, rhs))

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
    return Section(title="per-step recursions:", checks=checks, tol=tol)

