"""Anchored forward-backward splitting with variable step size.

For a maximally monotone operator A (given through its resolvent
J_{gamma A} = (Id + gamma A)^{-1}) and a beta-cocoercive operator B, the
forward-backward map

    T_gamma = J_{gamma A} (Id - gamma B),        gamma in (0, 2 beta),

is 2beta/(4beta - gamma)-averaged, hence nonexpansive, and its fixed points
are exactly the zeros of A + B.  Running the anchored iteration over the
family T_n = T_{gamma_n} gives the variable-step-size splitting scheme; the
family satisfies the cross-index comparison with respect to (gamma_n), so
the gap-series modulus and the whole rate bundle follow from the schedule's
gamma data alone.

Only finite-dimensional Euclidean problems are treated, and only operators
with closed-form resolvents ship; cocoercivity constants are supplied
analytically (the gradient of an L-smooth convex function is 1/L-cocoercive)
and spot-verified by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mappings import MappingFamily, gamma_column, soft_threshold


@dataclass(frozen=True)
class MonotoneOp:
    """A maximally monotone operator given through its resolvent oracle.

    ``prox(gamma, x)`` must return J_{gamma A}(x) = (Id + gamma A)^{-1}(x).
    Resolvents are firmly nonexpansive; ``check_firmly_nonexpansive`` spot
    checks that on samples.  ``rowwise`` declares that ``prox`` also takes a
    column of step sizes with one point per row and then acts row by row.
    """

    name: str
    prox: Callable[[float, np.ndarray], np.ndarray]
    rowwise: bool = False


@dataclass(frozen=True)
class CocoerciveOp:
    """A single-valued operator with a declared cocoercivity constant:
    <x - y, Bx - By> >= beta_coco ||Bx - By||^2.  ``rowwise`` declares that
    ``fn`` also acts row by row on an array with one point per row."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    beta_coco: float
    rowwise: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def l1_operator(weight: float = 1.0) -> MonotoneOp:
    """Subdifferential of weight * l1 norm; resolvent is soft thresholding."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    return MonotoneOp(
        name=f"l1({weight:g})",
        prox=lambda gamma, x: soft_threshold(x, gamma * weight),
        rowwise=True,
    )


def box_operator(lo, hi) -> MonotoneOp:
    """Normal cone of the box [lo, hi]; resolvent is the projection, for
    every step size."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box is empty: some lo component exceeds hi")
    return MonotoneOp(name="box", prox=lambda gamma, x: np.clip(x, lo, hi), rowwise=True)


def zero_operator() -> MonotoneOp:
    """The zero operator; its resolvent is the identity."""
    return MonotoneOp(
        name="zero", prox=lambda gamma, x: np.asarray(x, dtype=float), rowwise=True
    )


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
    lipschitz = float(np.max(d * d))
    beta = math.inf if lipschitz == 0.0 else 1.0 / lipschitz
    d2 = d * d
    db = d * b
    return CocoerciveOp(
        name="quadratic_gradient", fn=lambda x: d2 * x - db, beta_coco=beta, rowwise=True
    )


def zero_cocoercive(dim: int) -> CocoerciveOp:
    """The zero operator, cocoercive for every constant."""
    zero = np.zeros(dim)
    return CocoerciveOp(name="zero", fn=lambda x: zero, beta_coco=math.inf, rowwise=True)


def forward_backward_map(
    A: MonotoneOp, B: CocoerciveOp, gamma: float, x: np.ndarray
) -> np.ndarray:
    """One forward-backward application: J_{gamma A}(x - gamma B x).

    ``gamma`` may also be a column of step sizes and ``x`` an array with one
    point per row; every step size must lie in (0, 2 beta).
    """
    for g in (gamma,) if np.isscalar(gamma) else (gamma.min(), gamma.max()):
        if not 0.0 < g < 2.0 * B.beta_coco:
            raise ValueError(
                f"step size must lie in (0, 2 beta) = (0, {2.0 * B.beta_coco!r}), got {g}"
            )
    x = np.asarray(x, dtype=float)
    return A.prox(gamma, x - gamma * B(x))


def forward_backward_family(
    A: MonotoneOp, B: CocoerciveOp, gamma: Callable[[int], float], zero_point: np.ndarray
) -> MappingFamily:
    """The family T_n = J_{gamma_n A}(Id - gamma_n B) with a registered zero
    of A + B as its common fixed point.  It evaluates a whole orbit at once
    only if both operators are ``rowwise``; otherwise ``eval_array`` loops."""

    def fb_array(ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return forward_backward_map(A, B, gamma_column(gamma, ns), xs)

    return MappingFamily(
        name=f"fb[{A.name}+{B.name}]",
        kind="jp2_with_gamma",
        fn=lambda n, x: forward_backward_map(A, B, gamma(n), x),
        fixed_point=np.asarray(zero_point, dtype=float),
        gamma=gamma,
        fn_array=fb_array if A.rowwise and B.rowwise else None,
    )


def check_firmly_nonexpansive(
    A: MonotoneOp,
    dim: int,
    gammas,
    samples: int = 200,
    rng: np.random.Generator | None = None,
    seed: int = 0,
    box_radius: float = 5.0,
) -> float:
    """Worst violation of firm nonexpansiveness of the resolvent on samples:
    ||Jx - Jy||^2 <= <x - y, Jx - Jy>."""
    if rng is None:
        rng = np.random.default_rng(seed)
    worst = -math.inf
    gammas = list(gammas)
    for _ in range(samples):
        gamma = gammas[int(rng.integers(len(gammas)))]
        x = rng.uniform(-box_radius, box_radius, size=dim)
        y = rng.uniform(-box_radius, box_radius, size=dim)
        jx = A.prox(gamma, x)
        jy = A.prox(gamma, y)
        diff = jx - jy
        worst = max(worst, float(diff @ diff - (x - y) @ diff))
    return worst


def check_cocoercive(
    B: CocoerciveOp,
    dim: int,
    samples: int = 200,
    rng: np.random.Generator | None = None,
    seed: int = 0,
    box_radius: float = 5.0,
) -> float:
    """Worst violation of <x - y, Bx - By> >= beta ||Bx - By||^2 on samples."""
    if rng is None:
        rng = np.random.default_rng(seed)
    beta = B.beta_coco
    worst = -math.inf
    for _ in range(samples):
        x = rng.uniform(-box_radius, box_radius, size=dim)
        y = rng.uniform(-box_radius, box_radius, size=dim)
        bx_by = B(x) - B(y)
        quad = float(bx_by @ bx_by)
        inner = float((x - y) @ bx_by)
        if math.isinf(beta):
            worst = max(worst, quad)  # zero operator: both sides vanish
        else:
            worst = max(worst, beta * quad - inner)
    return worst
