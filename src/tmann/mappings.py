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

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .geometry import Point, Points, Space, TreePoint, TreePoints
from .sequences import ParamSchedule, RateFn

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

    def eval(self, n: int, x: Point) -> Point:
        return self.fn(n, x)

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
    return np.array([gamma(n) for n in ns.tolist()], dtype=float).reshape(-1, 1)


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
    return MappingFamily(
        name="box_projection",
        kind="constant",
        fn=lambda n, x: np.clip(x, lo, hi),
        fixed_point=(lo + hi) / 2.0,
        fn_array=lambda ns, xs: np.clip(xs, lo, hi),
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

    return MappingFamily(
        name="resolvent_quadratic",
        kind="jp2_with_gamma",
        fn=resolvent,
        fixed_point=np.zeros(dim),
        gamma=gamma,
    )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled inequality check: the worst excess of the left
    side over the right, and the sample realizing it."""

    name: str
    samples: int
    tol: float
    max_excess: float
    worst: Any = None

    @property
    def passed(self) -> bool:
        return self.max_excess <= self.tol

    def summary(self) -> str:
        status = "ok" if self.passed else "VIOLATED"
        return f"{self.name}: max excess {self.max_excess: .3e} over {self.samples} samples  {status}"


def check_nonexpansive(
    family: MappingFamily,
    space: Space,
    samples: int,
    n_max: int = 50,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> CheckReport:
    """Sample (n, x, y) and report the worst d(T_n x, T_n y) - d(x, y)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if rng is None:
        rng = np.random.default_rng(seed)
    max_excess = -math.inf
    worst = None
    for _ in range(samples):
        n = int(rng.integers(0, n_max + 1))
        x = space.sample(rng)
        y = space.sample(rng)
        excess = space.dist(family.eval(n, x), family.eval(n, y)) - space.dist(x, y)
        if excess > max_excess:
            max_excess = excess
            worst = (n, x, y)
    return CheckReport(
        name=f"nonexpansive[{family.name}]",
        samples=samples,
        tol=tol,
        max_excess=max_excess,
        worst=worst,
    )


def check_jp2_consequence(
    family: MappingFamily,
    gamma: Callable[[int], float],
    space: Space,
    samples: int,
    index_pairs: int,
    tol: float = 1e-9,
    n_max: int = 50,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> CheckReport:
    """Check d(T_m x, T_n x) <= |gamma_m - gamma_n| / gamma_n * d(T_n x, x)
    on sampled points and index pairs.

    The inequality is asymmetric in (m, n), so every drawn pair is checked
    in both orders.
    """
    if samples < 1 or index_pairs < 1:
        raise ValueError("samples and index_pairs must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    max_excess = -math.inf
    worst = None
    for _ in range(samples):
        x = space.sample(rng)
        for _ in range(index_pairs):
            i = int(rng.integers(0, n_max + 1))
            j = int(rng.integers(0, n_max + 1))
            for m, n in ((i, j), (j, i)):
                tn_x = family.eval(n, x)
                lhs = space.dist(family.eval(m, x), tn_x)
                rhs = abs(gamma(m) - gamma(n)) / gamma(n) * space.dist(tn_x, x)
                excess = lhs - rhs
                if excess > max_excess:
                    max_excess = excess
                    worst = (m, n, x)
    return CheckReport(
        name=f"jp2_consequence[{family.name}]",
        samples=samples * index_pairs * 2,
        tol=tol,
        max_excess=max_excess,
        worst=worst,
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
    gamma sequence (the constructors here take the schedule's gamma, so
    configs assembled through them satisfy this); a declared modulus on the
    family is used as given.  Returns None when no certificate exists, in
    which case only a posteriori validation along a computed orbit is
    possible.
    """
    if family.kind == "constant":
        return constant_family_chi_T()
    if family.kind == "jp2_with_gamma" and schedule.has_gamma:
        return chi_T_from_gamma(M, schedule.Gamma_cap, schedule.N_Gamma, schedule.chi_gamma)
    return family.chi_T
