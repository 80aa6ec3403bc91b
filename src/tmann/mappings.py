"""Families (T_n) of nonexpansive self-maps and their gap-series certificates.

The iteration machinery needs three things from a family: evaluation of T_n
at a point, a registered common fixed point (the radius bound M is computed
from it, so finding fixed points is out of scope here), and a certificate
controlling the gap series sum_n d(T_{n+1} u_n, T_n u_n).  A family carries
its certificate in one of two fields:

* ``chi_T``, a declared Cauchy modulus; a constant family declares k -> 0,
  since its gap series vanishes;
* ``gamma``, for a family satisfying the cross-index comparison

      d(T_m x, T_n x) <= |gamma_m - gamma_n| / gamma_n * d(T_n x, x),

  for which ``chi_T_from_gamma`` turns a Cauchy modulus for the gamma
  difference series into one for the gap series, when ``gamma`` is the
  schedule's own.

Resolvent families J_{gamma_n A} of a single maximally monotone operator
satisfy the comparison; only operators with closed-form resolvents are
implemented (soft thresholding, box projections, linear positive
semidefinite maps) so that every example stays exactly checkable.

So does anchored forward-backward splitting with variable step size.  For
a maximally monotone operator A (given through its resolvent
J_{gamma A} = (Id + gamma A)^{-1}) and a beta-cocoercive operator B, the
forward-backward map

    T_gamma = J_{gamma A} (Id - gamma B),        gamma in (0, 2 beta),

is 2beta/(4beta - gamma)-averaged, hence nonexpansive, and its fixed points
are exactly the zeros of A + B; the family T_n = T_{gamma_n} satisfies the
comparison with respect to (gamma_n).  Only Euclidean operators with closed
forms ship, and cocoercivity constants are supplied analytically (the
gradient of an L-smooth convex function is 1/L-cocoercive).  The rates
need only that every T_n is nonexpansive and that the family satisfies the
comparison, so the harness samples those on the family itself
(``check_nonexpansive``, ``check_jp2_consequence``) and not the operator
properties that suffice for them.  An overstated cocoercivity constant
matters only where it lets some T_n expand, which the nonexpansiveness
check samples; an operator that is not firmly nonexpansive, but leaves the
family nonexpansive and the comparison intact, does not break the rates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import Section, worst_row
from .geometry import Point, Points, Space, TreePoint, TreePoints
from .sequences import ParamSchedule, RateFn, terms


@dataclass(frozen=True, eq=False)
class MappingFamily:
    """An indexed family of self-maps and the certificate for its gap series.

    A family certifies its gap series in one of two ways.  ``gamma`` is the
    step-size sequence of a family satisfying the cross-index comparison
    in it (resolvents and forward-backward families); ``chi_T_for`` derives
    the modulus from it when it is the schedule's own gamma, and
    ``check_jp2_consequence`` samples the comparison.  ``chi_T`` is a
    declared Cauchy modulus for the gap series: 0 for a constant family.
    A family with neither has no certificate, and its gap series can only
    be validated along a computed orbit.

    ``fn(n, x)`` maps one point: ``x`` is a point as the space's
    ``as_point`` gives it (an ndarray on Euclidean space), and the result
    may be anything ``as_point`` accepts or a loop point of the space (a
    list of d floats on Euclidean space).  ``fn_array`` optionally
    evaluates the family over an index array and a point array at once,
    equal bit for bit to ``fn`` applied row by row; without it
    ``eval_array`` loops.
    """

    name: str
    fn: Callable[[int, Point], Point]
    fixed_point: Point
    gamma: Callable[[int], float] | None = None
    chi_T: RateFn | None = None
    fn_array: Callable[[np.ndarray, Points], Points] | None = None

    def eval_array(self, space: Space, ns: np.ndarray, xs: Points) -> Points:
        """The point array of T_{ns[i]} xs[i] for every row i."""
        if self.fn_array is not None:
            return self.fn_array(ns, xs)
        return space.stack([self.fn(int(n), xs[i]) for i, n in enumerate(ns)])


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    """Componentwise shrinkage toward zero by ``threshold``.

    This is the resolvent of the scaled subdifferential of the l1 norm:
    entries with magnitude below the threshold collapse to zero, the rest
    move toward zero by exactly the threshold.
    """
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def gamma_column(gamma: Callable[[int], float], ns: np.ndarray) -> np.ndarray:
    """The step sizes gamma(n) for n in ``ns``, as an (len(ns), 1) column
    that broadcasts against a point array."""
    return terms(gamma, ns).reshape(-1, 1)


def identity_family(fixed_point: Point) -> MappingFamily:
    """T_n = Id for every n; every point is fixed, one must still be registered."""
    return MappingFamily(
        name="identity",
        fn=lambda n, x: x,
        fixed_point=fixed_point,
        chi_T=constant_family_chi_T(),
        fn_array=lambda ns, xs: xs,
    )


def _box_projector(lo, hi) -> tuple[np.ndarray, np.ndarray, Callable]:
    """The corners of the nonempty box [lo, hi] as float arrays, and the
    componentwise projection onto it, of one point or a point array.

    The projection is np.minimum(np.maximum(x, lo), hi), at half the call
    overhead of np.clip on one point.  It equals np.clip bit for bit unless
    a bound is -0.0 or +0.0: np.clip(-0.0, 0.0, 1.0) is -0.0, this is 0.0.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        raise ValueError(f"box corners must share a shape, got {lo.shape} and {hi.shape}")
    if np.any(lo > hi):
        raise ValueError("box is empty: some lo component exceeds hi")
    return lo, hi, lambda x: np.minimum(np.maximum(x, lo), hi)


# Single-point forms on Python floats.  Each takes the float operations of
# its numpy counterpart in the same order, and takes numpy's choice where
# Python's differs: np.maximum(a, b) and np.minimum(a, b) return a NaN
# operand, the first of two, and return b on a tie, so that
# np.maximum(-0.0, 0.0) is 0.0 and np.maximum(0.0, -0.0) is -0.0; np.sign
# of either zero is 0.0, and of a NaN the NaN itself.  Which NaN a Python
# product of two NaNs keeps depends on the interpreter's state, so no form
# multiplies two.


def box_projection_family(lo, hi) -> MappingFamily:
    """Constant family projecting onto the box [lo, hi] componentwise.

    Projections onto closed convex sets are nonexpansive; every point of the
    box is fixed.  The registered fixed point is the box midpoint.
    """
    lo, hi, project = _box_projector(lo, hi)
    if lo.ndim != 1:
        raise ValueError(f"box corners must be 1-D, got shape {lo.shape}")
    corners = list(zip(lo.tolist(), hi.tolist()))

    def project_point(n: int, x) -> list:
        out = []
        for c, (a, b) in zip(x.tolist(), corners, strict=True):
            c = c if c > a or c != c else a  # np.maximum(c, a)
            out.append(c if c < b or c != c else b)  # np.minimum(c, b)
        return out

    return MappingFamily(
        name="box_projection",
        fn=project_point,
        fixed_point=(lo + hi) / 2.0,
        chi_T=constant_family_chi_T(),
        fn_array=lambda ns, xs: project(xs),
    )


def tree_contraction_family(factor: float) -> MappingFamily:
    """Constant family scaling the radial coordinate of a star-tree point.

    For factor in [0, 1] the map is nonexpansive in the path metric and the
    origin is its fixed point.
    """
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"contraction factor must lie in [0, 1], got {factor}")

    def contract_array(ns: np.ndarray, xs: TreePoints) -> TreePoints:
        t = factor * xs.t
        return TreePoints(np.where(t == 0.0, 0, xs.ray), t)  # the origin is ray 0

    return MappingFamily(
        name=f"tree_contraction({factor})",
        fn=lambda n, x: TreePoint(x.ray, factor * x.t),
        fixed_point=TreePoint(0, 0.0),
        chi_T=constant_family_chi_T(),
        fn_array=contract_array,
    )


def resolvent_l1_family(
    gamma: Callable[[int], float], dim: int = 1, weight: float = 1.0
) -> MappingFamily:
    """Resolvents of the scaled l1 subdifferential: T_n = soft threshold by
    weight * gamma_n.  Zero is the common fixed point."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")

    def shrink_point(n: int, x) -> list:
        threshold = weight * gamma(n)
        out = []
        for c in x.tolist():
            if c != c:  # np.sign(c) is c, and numpy's product keeps its first NaN
                out.append(c)
                continue
            m = abs(c) - threshold
            m = m if m > 0.0 or m != m else 0.0  # np.maximum(m, 0.0)
            out.append((1.0 if c > 0.0 else -1.0 if c < 0.0 else 0.0) * m)  # np.sign(c) * m
        return out

    return MappingFamily(
        name="resolvent_l1",
        fn=shrink_point,
        fixed_point=np.zeros(dim),
        gamma=gamma,
        fn_array=lambda ns, xs: soft_threshold(xs, weight * gamma_column(gamma, ns)),
    )


def resolvent_quadratic_family(Q, gamma: Callable[[int], float]) -> MappingFamily:
    """Resolvents of a linear positive semidefinite map: T_n x solves
    (I + gamma_n Q) y = x.  Zero is the common fixed point."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if eigs.min() < -1e-10:
        raise ValueError(f"Q must be positive semidefinite, smallest eigenvalue {eigs.min()}")
    dim = Q.shape[0]
    eye = np.eye(dim)

    def resolvent(n: int, x: np.ndarray) -> np.ndarray:
        return np.linalg.solve(eye + gamma(n) * Q, x)

    def resolvent_array(ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
        # one stacked solve, equal to the per-point solves bit for bit
        systems = eye + terms(gamma, ns)[:, None, None] * Q
        return np.linalg.solve(systems, xs[..., None])[..., 0]

    return MappingFamily(
        name="resolvent_quadratic",
        fn=resolvent,
        fixed_point=np.zeros(dim),
        gamma=gamma,
        fn_array=resolvent_array,
    )


@dataclass(frozen=True)
class MonotoneOp:
    """A maximally monotone operator given through its resolvent oracle.

    ``prox(gamma, x)`` must return J_{gamma A}(x) = (Id + gamma A)^{-1}(x),
    for one point and a float step size, and row by row for a point array
    and a column of step sizes.  Resolvents are firmly nonexpansive; that is
    not checked here, since the family checks sample what the rates use.
    """

    name: str
    prox: Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CocoerciveOp:
    """A single-valued operator with a declared cocoercivity constant:
    <x - y, Bx - By> >= beta_coco ||Bx - By||^2.  ``fn`` takes one point,
    or a point array and then acts row by row."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    beta_coco: float


def l1_operator(weight: float = 1.0) -> MonotoneOp:
    """Subdifferential of weight * l1 norm; resolvent is soft thresholding."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    return MonotoneOp(
        name=f"l1({weight:g})", prox=lambda gamma, x: soft_threshold(x, gamma * weight)
    )


def box_operator(lo, hi) -> MonotoneOp:
    """Normal cone of the box [lo, hi]; resolvent is the projection, for
    every step size."""
    _, _, project = _box_projector(lo, hi)
    return MonotoneOp(name="box", prox=lambda gamma, x: project(x))


def zero_operator() -> MonotoneOp:
    """The zero operator; its resolvent is the identity."""
    return MonotoneOp(name="zero", prox=lambda gamma, x: np.asarray(x, dtype=float))


def quadratic_gradient(diag, b) -> CocoerciveOp:
    """Gradient of x -> 0.5 ||D x - b||^2 for diagonal D: B x = D^2 x - D b.

    The gradient is L-smooth with L = max(diag^2), hence 1/L-cocoercive;
    an all-zero diagonal gives the zero operator (cocoercive for every
    constant, recorded as infinity).
    """
    d = np.asarray(diag, dtype=float)
    b = np.asarray(b, dtype=float)
    if d.shape != b.shape:
        raise ValueError(f"diag and b must share a shape, got {d.shape} and {b.shape}")
    d2, db = d * d, d * b
    lipschitz = float(np.max(d2))
    beta = math.inf if lipschitz == 0.0 else 1.0 / lipschitz
    return CocoerciveOp(name="quadratic_gradient", fn=lambda x: d2 * x - db, beta_coco=beta)


def zero_cocoercive() -> CocoerciveOp:
    """The zero operator, cocoercive for every constant."""
    return CocoerciveOp(name="zero", fn=np.zeros_like, beta_coco=math.inf)


def check_step_sizes(B: CocoerciveOp, gamma, start: int | None = None) -> None:
    """The step-size rule of forward-backward splitting: raise ValueError
    naming the first step size outside (0, 2 beta) in ``gamma``, one number
    or an array of gamma_start, gamma_start + 1, ... when ``start`` is given."""
    cap = 2.0 * B.beta_coco
    if not (np.isscalar(gamma) and 0.0 < gamma < cap):  # no numpy call for one good step
        gammas = np.ravel(gamma)
        outside = ~((0.0 < gammas) & (gammas < cap))
        i = int(np.argmax(outside))  # the first outside, if any
        if outside[i]:
            name = "gamma" if start is None else f"gamma_{start + i}"
            raise ValueError(f"step size {name} = {float(gammas[i])!r} outside (0, {cap!r})")


def forward_backward_map(
    A: MonotoneOp, B: CocoerciveOp, gamma: float, x: np.ndarray
) -> np.ndarray:
    """One forward-backward application: J_{gamma A}(x - gamma B x).

    ``gamma`` may also be a column of step sizes and ``x`` an array with one
    point per row; every step size must pass ``check_step_sizes``.
    """
    check_step_sizes(B, gamma)
    x = np.asarray(x, dtype=float)
    return A.prox(gamma, x - gamma * B.fn(x))


def forward_backward_family(
    A: MonotoneOp, B: CocoerciveOp, gamma: Callable[[int], float], zero_point: np.ndarray
) -> MappingFamily:
    """The family T_n = J_{gamma_n A}(Id - gamma_n B) with a registered zero
    of A + B as its common fixed point."""
    return MappingFamily(
        name=f"fb[{A.name}+{B.name}]",
        fn=lambda n, x: forward_backward_map(A, B, gamma(n), x),
        fixed_point=np.asarray(zero_point, dtype=float),
        gamma=gamma,
        fn_array=lambda ns, xs: forward_backward_map(A, B, gamma_column(gamma, ns), xs),
    )


#: The family checks draw their indices n from 0 .. INDEX_MAX.
INDEX_MAX = 50

#: The worst samples of the family checks, named for the report.
PointPair = namedtuple("PointPair", "n x y")
IndexPair = namedtuple("IndexPair", "m n x")


def check_nonexpansive(
    family: MappingFamily,
    space: Space,
    samples: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> Section:
    """Sample (n, x, y) and report the worst d(T_n x, T_n y) - d(x, y),
    with the sample (n, x, y) realizing it; a NaN excess is the worst and
    fails.

    The draws are blocks: every index n, then the point arrays x and y.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ns = rng.integers(0, INDEX_MAX + 1, size=samples)
    x = space.sample(rng, samples)
    y = space.sample(rng, samples)
    dist = space.dist_array
    excess = dist(family.eval_array(space, ns, x), family.eval_array(space, ns, y)) - dist(x, y)
    at = lambda i: PointPair(int(ns[i]), x[i], y[i])
    row = worst_row("d(T_n x, T_n y) <= d(x, y)", (excess,), at=at)
    return Section(
        title=f"nonexpansive[{family.name}] on {space.name}: {samples} samples, tol {tol!r}",
        checks=(row,),
        tol=tol,
    )


def check_jp2_consequence(
    family: MappingFamily,
    space: Space,
    samples: int,
    index_pairs: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> Section:
    """Check d(T_m x, T_n x) <= |gamma_m - gamma_n| / gamma_n * d(T_n x, x)
    on sampled points and index pairs, in the family's own ``gamma``; a
    family that carries none raises ValueError.

    The draws are blocks: the point array x, then ``index_pairs`` pairs
    (i, j) per point.  The inequality is asymmetric in (m, n), so every
    pair is checked as (i, j) and as (j, i).  The row holds the worst
    excess and the sample (m, n, x) realizing it; a NaN excess is the worst
    and fails.
    """
    if family.gamma is None:
        raise ValueError(f"family {family.name} carries no gamma to compare indices in")
    if samples < 1 or index_pairs < 1:
        raise ValueError("samples and index_pairs must be >= 1")
    x = space.sample(rng, samples)
    pairs = rng.integers(0, INDEX_MAX + 1, size=(samples, index_pairs, 2))
    ms, ns = pairs.ravel(), pairs[..., ::-1].ravel()  # rows (i, j), (j, i) per pair
    rows = np.repeat(np.arange(samples), 2 * index_pairs)
    xs = x[rows]
    tn_x = family.eval_array(space, ns, xs)
    lhs = space.dist_array(family.eval_array(space, ms, xs), tn_x)
    gamma_m, gamma_n = terms(family.gamma, ms), terms(family.gamma, ns)
    excess = lhs - np.abs(gamma_m - gamma_n) / gamma_n * space.dist_array(tn_x, xs)
    row = worst_row(
        "d(T_m x, T_n x) <= |gamma_m - gamma_n|/gamma_n d(T_n x, x)",
        (excess,),
        at=lambda i: IndexPair(int(ms[i]), int(ns[i]), x[rows[i]]),
    )
    return Section(
        title=f"jp2_consequence[{family.name}] on {space.name}: "
        f"{len(excess)} samples, tol {tol!r}",
        checks=(row,),
        tol=tol,
    )


def chi_T_from_gamma(M: int, Gamma_cap: int, N_Gamma: int, chi_gamma: RateFn) -> RateFn:
    """Cauchy modulus for the gap series of a gamma-certified family:

        k -> max(N_Gamma, chi_gamma(2 M Gamma (k+1) - 1)).
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if Gamma_cap < 1:
        raise ValueError(f"Gamma_cap must be >= 1, got {Gamma_cap}")
    return lambda k: max(N_Gamma, chi_gamma(2 * M * Gamma_cap * (k + 1) - 1))


def constant_family_chi_T() -> RateFn:
    """Gap-series Cauchy modulus of a constant family: identically zero."""
    return lambda k: 0


def chi_T_for(family: MappingFamily, schedule: ParamSchedule, M: int) -> RateFn | None:
    """The gap-series modulus of a family under a schedule.

    A family whose ``gamma`` is the schedule's own ``gamma`` object gets the
    modulus ``chi_T_from_gamma`` builds from the schedule's gamma
    certificate, even if it declares a ``chi_T``: that modulus is only sound
    when the family's step sizes ARE the schedule's gamma sequence.  Every
    other family gets its declared ``chi_T``, None when it declares none; a
    gap series without a certificate can only be validated along a
    computed orbit.
    """
    if family.gamma is not None and family.gamma is schedule.gamma:
        return chi_T_from_gamma(M, schedule.Gamma_cap, schedule.N_Gamma, schedule.chi_gamma)
    return family.chi_T
