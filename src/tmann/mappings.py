"""Families (T_n) of nonexpansive self-maps with structural certificates.

The iteration machinery needs three things from a family: evaluation of T_n
at a point, a registered common fixed point (the radius bound M is computed
from it, so finding fixed points is out of scope here), and a certificate
controlling the gap series sum_n d(T_{n+1} u_n, T_n u_n).  Certificates come
in two useful shapes:

* constant families: the gap series vanishes, its Cauchy modulus is k -> 0;
* gamma-indexed families satisfying the cross-index comparison

      d(T_m x, T_n x) <= |gamma_m - gamma_n| / gamma_n * d(T_n x, x),

  for which ``chi_T_from_gamma`` turns a Cauchy modulus for the gamma
  difference series into one for the gap series.

Resolvent families J_{gamma_n A} of a single maximally monotone operator
satisfy the comparison; only operators with closed-form resolvents are
implemented (soft thresholding, box projections, linear positive
semidefinite maps) so that every example stays exactly checkable.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import Section, worst_row
from .geometry import Point, Points, Space, TreePoint, TreePoints
from .sequences import ParamSchedule, RateFn, terms

KINDS = ("constant", "jp2_with_gamma", "custom")


@dataclass(frozen=True, eq=False)
class MappingFamily:
    """An indexed family of self-maps with optional structural certificates.

    ``kind`` is one of ``constant``, ``jp2_with_gamma`` (gamma-indexed
    families satisfying the cross-index comparison, resolvents included) or
    ``custom``.  ``gamma`` is carried by gamma-indexed families so checkers
    can exercise the cross-index comparison; ``chi_T`` is an optional
    declared Cauchy modulus for the gap series of a custom family (for
    custom families without any certificate the gap series can only be
    validated along a computed orbit).  ``fn_array`` optionally evaluates
    the family over an index array and a point array at once, equal bit for
    bit to ``fn`` applied row by row; without it ``eval_array`` loops.
    """

    name: str
    kind: str
    fn: Callable[[int, Point], Point]
    fixed_point: Point
    gamma: Callable[[int], float] | None = None
    chi_T: RateFn | None = None
    fn_array: Callable[[np.ndarray, Points], Points] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}, expected one of {KINDS}")

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
        kind="constant",
        fn=lambda n, x: x,
        fixed_point=fixed_point,
        fn_array=lambda ns, xs: xs,
    )


def box_projection_family(lo, hi) -> MappingFamily:
    """Constant family projecting onto the box [lo, hi] componentwise.

    Projections onto closed convex sets are nonexpansive; every point of the
    box is fixed.  The registered fixed point is the box midpoint.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        raise ValueError(f"box corners must share a shape, got {lo.shape} and {hi.shape}")
    if np.any(lo > hi):
        raise ValueError("box is empty: some lo component exceeds hi")
    # np.clip's result bit for bit, at half its call overhead on one point
    return MappingFamily(
        name="box_projection",
        kind="constant",
        fn=lambda n, x: np.minimum(np.maximum(x, lo), hi),
        fixed_point=(lo + hi) / 2.0,
        fn_array=lambda ns, xs: np.minimum(np.maximum(xs, lo), hi),
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
        kind="constant",
        fn=lambda n, x: TreePoint(x.ray, factor * x.t),
        fixed_point=TreePoint(0, 0.0),
        fn_array=contract_array,
    )


def resolvent_l1_family(
    gamma: Callable[[int], float], dim: int = 1, weight: float = 1.0
) -> MappingFamily:
    """Resolvents of the scaled l1 subdifferential: T_n = soft threshold by
    weight * gamma_n.  Zero is the common fixed point."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    return MappingFamily(
        name="resolvent_l1",
        kind="jp2_with_gamma",
        fn=lambda n, x: soft_threshold(x, weight * gamma(n)),
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
        kind="jp2_with_gamma",
        fn=resolvent,
        fixed_point=np.zeros(dim),
        gamma=gamma,
        fn_array=resolvent_array,
    )


#: The worst samples of the two family checks, named for the report.
PointPair = namedtuple("PointPair", "n x y")
IndexPair = namedtuple("IndexPair", "m n x")


def check_nonexpansive(
    family: MappingFamily,
    space: Space,
    samples: int,
    rng: np.random.Generator,
    n_max: int = 50,
    tol: float = 1e-9,
) -> Section:
    """Sample (n, x, y) and report the worst d(T_n x, T_n y) - d(x, y),
    with the sample (n, x, y) realizing it; a NaN excess is the worst and
    fails.

    The draws are blocks: every index n, then the point arrays x and y.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ns = rng.integers(0, n_max + 1, size=samples)
    x = space.sample(rng, samples)
    y = space.sample(rng, samples)
    dist = space.dist_array
    excess = dist(family.eval_array(space, ns, x), family.eval_array(space, ns, y)) - dist(x, y)
    at = lambda i: PointPair(int(ns[i]), x[i], y[i])
    row = worst_row("d(T_n x, T_n y) <= d(x, y)", excess, at=at)
    return Section(
        title=f"nonexpansive[{family.name}] on {space.name}: {samples} samples, tol {tol!r}",
        checks=(row,),
        tol=tol,
    )


def check_jp2_consequence(
    family: MappingFamily,
    gamma: Callable[[int], float],
    space: Space,
    samples: int,
    index_pairs: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
    n_max: int = 50,
) -> Section:
    """Check d(T_m x, T_n x) <= |gamma_m - gamma_n| / gamma_n * d(T_n x, x)
    on sampled points and index pairs.

    The draws are blocks: the point array x, then ``index_pairs`` pairs
    (i, j) per point.  The inequality is asymmetric in (m, n), so every
    pair is checked as (i, j) and as (j, i).  The row holds the worst
    excess and the sample (m, n, x) realizing it; a NaN excess is the worst
    and fails.
    """
    if samples < 1 or index_pairs < 1:
        raise ValueError("samples and index_pairs must be >= 1")
    x = space.sample(rng, samples)
    pairs = rng.integers(0, n_max + 1, size=(samples, index_pairs, 2))
    ms, ns = pairs.ravel(), pairs[..., ::-1].ravel()  # rows (i, j), (j, i) per pair
    rows = np.repeat(np.arange(samples), 2 * index_pairs)
    xs = x[rows]
    tn_x = family.eval_array(space, ns, xs)
    lhs = space.dist_array(family.eval_array(space, ms, xs), tn_x)
    gamma_m, gamma_n = terms(gamma, ms), terms(gamma, ns)
    excess = lhs - np.abs(gamma_m - gamma_n) / gamma_n * space.dist_array(tn_x, xs)
    row = worst_row(
        "d(T_m x, T_n x) <= |gamma_m - gamma_n|/gamma_n d(T_n x, x)",
        excess,
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
    """Best available gap-series modulus for a family under a schedule.

    Preference order: constant families need no data; gamma-certified
    families (resolvents included) combine the schedule's gamma modulus,
    which is only sound when the family's step sizes ARE the schedule's
    gamma sequence, so it is used only when the family's ``gamma`` is the
    schedule's ``gamma`` object (configs assembled through the constructors
    here pass it on); otherwise a declared modulus on the family is used as
    given.  Returns None when no certificate exists, in which case only a
    posteriori validation along a computed orbit is possible.
    """
    if family.kind == "constant":
        return constant_family_chi_T()
    if family.kind == "jp2_with_gamma" and schedule.has_gamma and family.gamma is schedule.gamma:
        return chi_T_from_gamma(M, schedule.Gamma_cap, schedule.N_Gamma, schedule.chi_gamma)
    return family.chi_T
