"""The Tikhonov-Mann family iteration, trace recording and per-step checks.

The iteration anchors a Krasnoselskii-Mann step at a point u:

    u_n     = (1 - beta_n) u + beta_n x_n
    x_{n+1} = (1 - lambda_n) u_n + lambda_n T_n u_n

As beta_n -> 1 the anchoring vanishes and the step approaches a plain Mann
step; the anchor is what buys strong convergence in the classical Hilbert
setting.  The modified Halpern iteration

    v_n     = (1 - lambda_n) y_n + lambda_n T_n y_n
    y_{n+1} = (1 - beta_{n+1}) u + beta_{n+1} v_n

walks the same orbit when started at y_0 = (1 - beta_0) u + beta_0 x_0,
which is u_0: then u_n = y_n and x_{n+1} = v_n for every n.  So the module
has one loop, the anchored one, which checks every schedule term it reads
before its first step and each point it did not make itself; the Halpern
trace replays each Halpern step on its stored orbit, from y_0 = u_0.

Only the recursion runs step by step, on the space's loop points: a list of
d Python floats on Euclidean space, which ``mix`` combines with no numpy
call, and a ``TreePoint`` on the star tree.  ``fn`` maps each u_n as that
loop point and may return a loop point or anything ``as_point`` accepts.
The loop reads beta_n and lambda_n a block of ``checks.BLOCK_ROWS`` steps at
a time and stores only x_n, in the read-only point array of the space's
``collect`` (an (n, d) float array on Euclidean space, ray and radius arrays
on the star tree).  Every reader of u_n rebuilds it from x_n with
:func:`u_points`, one ``combine_array`` per block, equal to the loop's u_n
row by row.  The three residual sequences, which ``trace.csv`` writes and
rate certification consumes, are computed from the stored orbit with array
operations in blocks of the same size, and the worst d(u_n, T_n u_n) in the
same pass.  The orbit checks read them, and compute the distances only they
need from the stored orbit, a block at a time, so no temporary spans the
horizon.  Each instance keeps its latest anchored orbit, read only, so an
instance runs the loop once per horizon: the Halpern trace replays the
Halpern steps on the stored orbit with array operations, and the Halpern
check reads its defects off that trace.

The per-step checkers assert, along a computed orbit, the bounds the rate
theorems rest on.  These are theorems for exact arithmetic: a violation
beyond rounding tolerance indicates an implementation bug, which is exactly
why they are checked.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .checks import Row, Section, blocks, worst_row
from .geometry import Point, Points, Space, TreePoints
from .mappings import MappingFamily
from .sequences import ParamSchedule, int_ceil, terms


#: How far T_0 .. T_9 may move the registered fixed point p.
FIXED_POINT_TOL = 1e-9

#: ``trace.csv`` keeps every step below this and a log-spaced grid above it
#: (:func:`trace_slices`); every shipped horizon is below it.
TRACE_DENSE = 4096


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A space, family, schedule, anchor u, start x0 and fixed point p.

    M is the integer ceiling of max(d(x0, p), d(u, p)), clamped to >= 1
    because every rate formula consumes a positive integer radius bound.
    Build instances through :meth:`create`, which derives M (or refuses a
    given M below it) and verifies that p is fixed by T_0 .. T_9, in both
    forms, up to ``FIXED_POINT_TOL``.  ``_stored_orbit`` keeps the latest
    (horizon, x) that :func:`_orbit` computed for the instance.
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
        least = max(1, int_ceil(radius))
        if M is None:
            M = least
        elif M < least:
            raise ValueError(
                f"M = {M} is below max(d(x0, p), d(u, p)) = {radius!r}; the rates need M >= {least}"
            )
        mapped = family.fn_array(np.arange(10), space.stack([fixed] * 10))
        space.as_point(mapped[0])  # an array form that broadcasts may leave the space
        point = space.to_loop(fixed)  # and fn must fix p too: the orbit runs fn
        looped = space.collect([space.to_loop(family.fn(n, point)) for n in range(10)], 10)
        drift = np.maximum(space.dist_array(mapped, fixed), space.dist_array(looped, fixed))
        moved = np.flatnonzero(~(drift <= FIXED_POINT_TOL))  # a NaN drift is refused too
        if moved.size:
            n = int(moved[0])
            raise ValueError(
                f"registered point is not fixed by T_{n}: moved by {float(drift[n])!r}"
            )
        return cls(space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=M)


def u_points(instance: ProblemInstance, xs: Points, rows: slice, beta=None) -> Points:
    """The points u_n = W(u, x_n, beta_n) for the steps n of ``rows``,
    rebuilt from the orbit ``xs`` with one ``combine_array``: the loop's u_n
    bit for bit.  ``beta`` holds beta_n for those steps, when the caller
    has them."""
    if beta is None:
        beta = terms(instance.schedule.beta, np.arange(rows.start, rows.stop))
    return instance.space.combine_array(instance.u, xs[rows], beta)


@dataclass(eq=False)
class IterationTrace:
    """Recorded orbit data: the orbit and the three residual sequences
    that ``trace.csv`` writes and rate certification reads, indexed by
    step n < horizon:

        residual_step[n] = d(x_n, x_{n+1})
        residual_T[n]    = d(x_n, T_n x_n)
        tfam_gap[n]      = d(T_{n+1} u_n, T_n u_n)

    ``x`` holds the horizon + 1 points x_n as a point array of the space;
    ``u_points(instance, trace.x, slice(a, b))`` rebuilds u_a .. u_{b-1}.
    ``u_residual`` is the worst d(u_n, T_n u_n) over n < horizon and its
    step, as a ``Row``.  The orbit checks compute any other distance they
    need from ``x``, a block at a time.
    """

    horizon: int
    residual_step: np.ndarray
    residual_T: np.ndarray
    tfam_gap: np.ndarray
    x: Points
    u_residual: Row

    def to_csv(self, path, include_points: bool = False) -> None:
        """Write one row for each step n of :func:`trace_slices`: n,
        residual_step, residual_T, tfam_gap, plus the coordinates of x_n
        when requested.  Each slice's columns are read from views of the
        stored arrays, so no column is copied.  CSV quotes none of the fields
        (ints, float reprs, plain names), so a line is their join."""
        header = ["n", "residual_step", "residual_T", "tfam_gap"]
        if include_points:
            header += _point_columns(self.x[:0])[0]
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for steps in trace_slices(self.horizon):
                columns = [map(str, range(self.horizon)[steps])] + [
                    _float_column(seq[steps])
                    for seq in (self.residual_step, self.residual_T, self.tfam_gap)
                ]
                if include_points:
                    columns += _point_columns(self.x[steps])[1]
                fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def trace_slices(horizon: int):
    """The basic slices of the steps n < ``horizon`` that ``trace.csv``
    keeps: every n below ``TRACE_DENSE``, every (2^j / 2048)-th n of each
    octave [2^j, 2^(j+1)) above it, so each octave keeps 2,048 rows, and
    the last step, horizon - 1."""
    yield slice(0, min(TRACE_DENSE, horizon))
    start, stride = TRACE_DENSE, 2
    while start < horizon:
        yield slice(start, min(2 * start, horizon), stride)
        start, stride = 2 * start, 2 * stride
    # the last slice's stride, 1 when there is no octave, divides its start
    if (horizon - 1) % (stride // 2):
        yield slice(horizon - 1, horizon)


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


def _orbit(instance: ProblemInstance, horizon: int) -> Points:
    """The read-only point array x_0 .. x_horizon of the anchored
    iteration, computed once per instance and horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    stored = instance._stored_orbit
    if stored is not None and stored[0] == horizon:
        return stored[1]
    sp, fn, sch = instance.space, instance.family.fn, instance.schedule
    mix, to_loop = sp.mix, sp.to_loop
    u = to_loop(instance.u)

    def loop():
        # mix checks nothing: with the store sized by collect, the loop checks
        # each term it reads here, then each point it did not make as it arrives
        for seq in (sch.beta, sch.lam):
            for rows in blocks(horizon):
                sp.check_lambdas(terms(seq, np.arange(rows.start, rows.stop)))
        x = to_loop(instance.x0)
        yield x
        for rows in blocks(horizon):
            ns = np.arange(rows.start, rows.stop)
            # a memoryview of the terms indexes as Python floats
            beta, lam = memoryview(terms(sch.beta, ns)), memoryview(terms(sch.lam, ns))
            for n, beta_n, lam_n in zip(range(rows.start, rows.stop), beta, lam):
                u_n = mix(u, x, beta_n)
                x = mix(u_n, to_loop(fn(n, u_n)), lam_n)
                yield x

    xs = sp.collect(loop(), horizon + 1)  # read-only: every trace shares it
    object.__setattr__(instance, "_stored_orbit", (horizon, xs))
    return xs


def run_tikhonov_mann(instance: ProblemInstance, horizon: int) -> IterationTrace:
    """Run the anchored iteration for ``horizon`` steps and record its orbit
    and residuals.  The three residual sequences and the worst
    d(u_n, T_n u_n) are computed in one pass, in blocks of ``BLOCK_ROWS``
    steps, so no temporary spans the horizon."""
    xs = _orbit(instance, horizon)
    fam, dist = instance.family, instance.space.dist_array
    step, res_T, gap = np.empty(horizon), np.empty(horizon), np.empty(horizon)

    def u_residuals():  # fills the three sequences as it yields d(u_n, T_n u_n)
        for rows in blocks(horizon):
            ns, x_n, u_n = np.arange(rows.start, rows.stop), xs[rows], u_points(instance, xs, rows)
            t_u = fam.fn_array(ns, u_n)
            step[rows] = dist(x_n, xs[rows.start + 1 : rows.stop + 1])
            res_T[rows] = dist(x_n, fam.fn_array(ns, x_n))
            gap[rows] = dist(fam.fn_array(ns + 1, u_n), t_u)
            yield dist(u_n, t_u)

    u_residual = worst_row("d(u_n, T_n u_n)", u_residuals())
    return IterationTrace(horizon, step, res_T, gap, x=xs, u_residual=u_residual)


@dataclass(eq=False)
class HalpernTrace:
    """The anchored orbit's u_0 .. u_{H-1} that the modified Halpern
    iteration was replayed from, and its v_0 .. v_{H-1} and
    y_1 .. y_H, as point arrays of horizon H rows each.  Its start
    y_0 = W(u, x_0, beta_0) is u_0, the same ``combine_array`` row of the
    same inputs.  It keeps no residuals: as y_n = u_n, d(y_n, T_n y_n) and
    d(y_{n+1}, y_n) are distances of the anchored orbit's u_n."""

    horizon: int
    u: Points
    y: Points
    v: Points


def run_modified_halpern(instance: ProblemInstance, horizon: int) -> HalpernTrace:
    """The modified Halpern iteration from y_0 = W(u, x_0, beta_0) = u_0,
    replayed on the anchored orbit of :func:`_orbit` with ``fn_array``
    and ``combine_array``: u_n from :func:`u_points`, which checks beta_0
    .. beta_{horizon-1}, v_n = W(u_n, T_n u_n, lambda_n) for n < horizon,
    and y_1 .. y_horizon from one ``combine_array`` of u with v_0 ..
    v_{horizon-1}, which checks beta_1 .. beta_horizon.  No Halpern loop
    runs; when the array forms equal ``mix`` and ``fn`` row by row,
    y_n = u_n and v_n = x_{n+1} bit for bit."""
    xs = _orbit(instance, horizon)
    sp, fam, sch = instance.space, instance.family, instance.schedule
    steps = np.arange(horizon + 1)
    beta = terms(sch.beta, steps)
    us = u_points(instance, xs, slice(0, horizon), beta[:-1])
    vs = sp.combine_array(us, fam.fn_array(steps[:-1], us), terms(sch.lam, steps[:-1]))
    ys = sp.combine_array(instance.u, vs, beta[1:])
    return HalpernTrace(horizon=horizon, u=us, y=ys, v=vs)


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
    anchored orbit by the one-step defects of the trace that
    :func:`run_modified_halpern` replays on it: the y-defects d(u_n, y_n)
    and the v-defects d(x_{n+1}, v_n).

    When every T_n is nonexpansive and W satisfies (W4), the Halpern step
    y -> W(u, W(y, T_n y, lambda_n), beta_{n+1}) is nonexpansive, so a
    Halpern loop from y_0 keeps d(u_n, y_n) within the running sum e_n of
    the y-defects up to n, and d(x_{n+1}, v_n) within e_n plus the v-defect
    at n; ``max_u_y`` and ``max_x_v`` are the largest of these bounds.  The
    y-defect at n = 0 is exactly 0.0, as y_0 is u_0.  The other defects
    are exactly 0.0 when the array forms equal ``mix`` and ``fn`` row by
    row, so the check catches an ``fn_array`` or ``combine_array`` that
    disagrees with the ``fn`` or ``mix`` the loop calls.
    """
    ha = run_modified_halpern(instance, horizon)
    dist = instance.space.dist_array
    gap_u_y = np.cumsum(np.concatenate(([0.0], dist(ha.u[1:], ha.y[:-1]))))
    gap_x_v = gap_u_y + dist(_orbit(instance, horizon)[1:], ha.v)
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
    """Orbit boundedness: scan d(x_n, p) <= M, d(x_n, u) <= 2M and
    d(u_n, p) <= M along the stored orbit, a block of ``BLOCK_ROWS`` steps
    at a time, and read d(u_n, T_n u_n) <= 2M off ``trace.u_residual``."""
    M, H, xs, u, p = float(instance.M), trace.horizon, trace.x, instance.u, instance.p
    dist = instance.space.dist_array

    def bounded(row: Row, bound: float) -> BoundCheck:
        value = row.worst_excess
        return BoundCheck(row.name, value - bound, row.at, bound=bound, worst_value=value)

    def scanned(name: str, count: int, distances) -> Row:
        return worst_row(name, map(distances, blocks(count)))

    checks = (
        bounded(scanned("d(x_n, p)", H + 1, lambda rows: dist(xs[rows], p)), M),
        bounded(scanned("d(x_n, u)", H + 1, lambda rows: dist(xs[rows], u)), 2 * M),
        bounded(scanned("d(u_n, p)", H, lambda rows: dist(u_points(instance, xs, rows), p)), M),
        bounded(trace.u_residual, 2 * M),
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
    M, H = float(instance.M), trace.horizon
    sch, step, gap = instance.schedule, trace.residual_step, trace.tfam_gap

    def scored(name: str, count: int, sides) -> Row:
        """The worst excess of the steps n < count, a block at a time:
        ``sides(rows, beta, lam)`` gives (lhs, rhs) for the steps of
        ``rows`` from beta and lambda at rows.start .. rows.stop."""

        def excess(rows):
            n = np.arange(rows.start, rows.stop + 1)
            lhs, rhs = sides(rows, terms(sch.beta, n), terms(sch.lam, n))
            return lhs - rhs - RECURSION_REL * np.maximum(1.0, rhs)

        return worst_row(name, map(excess, blocks(count)))

    def anchor_step(rows, beta, lam):  # (a), on u_n at rows.start .. rows.stop
        us = u_points(instance, trace.x, slice(rows.start, rows.stop + 1), beta)
        lhs = instance.space.dist_array(us[1:], us[:-1])
        return lhs, beta[1:] * step[rows] + 2 * M * np.abs(np.diff(beta))

    def main_recursion(rows, beta, lam):  # (b)
        drift = np.abs(np.diff(lam)) + np.abs(np.diff(beta))
        lhs = step[rows.start + 1 : rows.stop + 1]
        return lhs, beta[1:] * step[rows] + gap[rows] + 2 * M * drift

    def residual_link(rows, beta, lam):  # (c)
        return lam[:-1] * trace.residual_T[rows], step[rows] + 2 * M * (1.0 - beta[:-1])

    checks = (
        scored("anchor_step (a)", H - 1, anchor_step),
        scored("main_recursion (b)", H - 1, main_recursion),
        scored("residual_link (c)", H, residual_link),
    )
    return Section(title="per-step recursions:", checks=checks, tol=tol)
