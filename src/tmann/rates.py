"""Rate formulas as composable integer functions, plus the empirical certifier.

A rate here is a total function k -> index: residuals must stay at or below
1/(k+1) from that index on.  Rates compose by plugging scaled precision
levels into given moduli; all compositions below are pure integer arithmetic
(Python integers, so no overflow for any desk-scale k).

The combined modulus for the driving perturbation series is

    chi(k) = max(chi_T(2(k+1) - 1), chi_lambda(8M(k+1) - 1), chi_beta(8M(k+1) - 1)),

the asymptotic-regularity rate built from it is

    Sigma(k) = max(sigma_beta(6M(k+1) psi0(k) - 1), chi(3k+2) + 1) + 1,

where psi0(k) is a positive integer with 1/psi0(k) <= prod_{n=0}^{chi(3k+2)}
beta_{n+1}, and the translation to a rate for d(x_n, T_n x_n) is

    Sigma_T(k) = max(N_Lambda, Sigma(2 Lambda (k+1) - 1), sigma(4 M Lambda (k+1) - 1)).

Two constructions of the quadratic-schedule rates ship side by side: the
composition above and the closed-form polynomials it collapses to.  They are
tested for exact integer equality, which catches transcription slips in
either path.

``certify_rate`` is the empirical side: given a residual sequence and a
claimed rate, it checks the defining property on the observed window and
also reports the empirically minimal index that would have worked, so the
slack of a certified rate is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .checks import Row, Section, blocks, settle_indices, worst_row
from .sequences import ParamSchedule, RateFn, ceil_reciprocal

PROVENANCES = ("general_theorem", "example_closed_form", "linear_theorem", "halpern_translated")


@dataclass(frozen=True)
class RateBundle:
    """The rates produced by one construction route, and how to certify them.

    ``chi`` is the combined perturbation modulus (absent for routes that do
    not go through it), ``Sigma`` the asymptotic-regularity rate for
    d(x_n, x_{n+1}), ``Sigma_T`` the rate for d(x_n, T_n x_n) (absent when
    the schedule carries no rate for beta_n -> 1 or no lambda lower bound).
    ``checks(instance, trace, tol)`` returns the (section name, ``Section``)
    of each orbit check the route's theorem adds, run before the rates are
    certified.  With ``advisory`` the step rate Sigma is also read against
    d(x_n, T_n x_n), for information only.
    """

    provenance: str
    Sigma: RateFn
    Sigma_T: RateFn | None = None
    chi: RateFn | None = None
    advisory: bool = True
    checks: Callable[[Any, Any, float], list] = lambda instance, trace, tol: []

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(
                f"unknown provenance {self.provenance!r}, expected one of {PROVENANCES}"
            )

    def rows(self, k_max: int) -> list[tuple[str, str, int, int]]:
        """The (provenance, rate, k, value) rows of every rate for k <= k_max."""
        named = (("Sigma", self.Sigma), ("Sigma_T", self.Sigma_T), ("chi", self.chi))
        return [
            (self.provenance, name, k, int(fn(k)))
            for name, fn in named
            if fn is not None
            for k in range(k_max + 1)
        ]


def chi_combined(chi_T: RateFn, chi_lambda: RateFn, chi_beta: RateFn, M: int) -> RateFn:
    """Combined Cauchy modulus for the perturbation series driving the
    step-difference recursion."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return lambda k: max(
        chi_T(2 * (k + 1) - 1),
        chi_lambda(8 * M * (k + 1) - 1),
        chi_beta(8 * M * (k + 1) - 1),
    )


def sigma_ar(
    sigma_beta: RateFn, chi: RateFn, psi0: Callable[[int], int], M: int
) -> RateFn:
    """Rate of asymptotic regularity composed from the product rate, the
    combined modulus and a reciprocal product bound psi0."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")

    def rate(k: int) -> int:
        p = psi0(k)
        if p < 1:
            raise ValueError(f"psi0({k}) must be a positive integer, got {p}")
        return max(sigma_beta(6 * M * (k + 1) * p - 1), chi(3 * k + 2) + 1) + 1

    return rate


def translate_ar_to_tn_ar(
    phi: RateFn, M: int, Lambda_cap: int, N_Lambda: int, sigma: RateFn
) -> RateFn:
    """Turn a rate of asymptotic regularity into one for d(x_n, T_n x_n).

    Requires the rate sigma for beta_n -> 1 and the lower bound
    lambda_n >= 1/Lambda_cap from index N_Lambda on.
    """
    if M < 1 or Lambda_cap < 1:
        raise ValueError("M and Lambda_cap must be >= 1")
    return lambda k: max(
        N_Lambda,
        phi(2 * Lambda_cap * (k + 1) - 1),
        sigma(4 * M * Lambda_cap * (k + 1) - 1),
    )


def halpern_translate(Sigma: RateFn, sigma: RateFn, M: int) -> RateFn:
    """Carry a rate across the orbit identification with the modified
    Halpern iteration: Sigma'(k) = max(alpha(3k+2), Sigma(3k+2)) with
    alpha(k) = sigma(2M(k+1) - 1)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    alpha = lambda k: sigma(2 * M * (k + 1) - 1)
    return lambda k: max(alpha(3 * k + 2), Sigma(3 * k + 2))


def halpern_translated_bundle(bundle: RateBundle, sigma: RateFn, M: int) -> RateBundle:
    """Carry a whole bundle across the orbit identification with the
    modified Halpern iteration."""
    return RateBundle(
        provenance="halpern_translated",
        Sigma=halpern_translate(bundle.Sigma, sigma, M),
        Sigma_T=(
            halpern_translate(bundle.Sigma_T, sigma, M) if bundle.Sigma_T is not None else None
        ),
    )


def psi0_from_chi(schedule: ParamSchedule, chi: RateFn, k: int) -> int:
    """The closed-form choice psi0(k) = chi(3k+2), clamped to >= 1; it
    reads no schedule term.

    This is below the least psi0 the hypothesis admits.  With N = chi(3k+2),
    the product up to N telescopes to 1/(N + 2) on the ``example`` schedule,
    so the choice falls short by 2, and to 2/((N+2)(N+3)) on the ``linear``
    schedule, which needs psi0 = (N+2)(N+3)/2.  It is the choice under which
    the composed rate collapses to the polynomials of
    ``example_closed_form_rates``, and the CLI's ``general_theorem`` rows
    use it.  Use ``sequences.psi0`` for the least valid value.
    """
    return max(1, chi(3 * k + 2))


def general_rates(
    schedule: ParamSchedule,
    M: int,
    chi_T: RateFn,
    psi0: Callable[[ParamSchedule, RateFn, int], int] = psi0_from_chi,
) -> RateBundle:
    """Compose the full rate bundle from a schedule's declared moduli and a
    gap-series modulus chi_T.

    ``psi0(schedule, chi, k)`` is the reciprocal product bound: the
    closed-form ``psi0_from_chi`` by default (the CLI's ``general_theorem``
    rows use it; its docstring says how far it falls below the least valid
    value), or ``sequences.psi0`` for the least valid value.
    """
    chi = chi_combined(chi_T, schedule.chi_lambda, schedule.chi_beta, M)
    Sigma = sigma_ar(schedule.sigma_beta, chi, lambda k: psi0(schedule, chi, k), M)
    Sigma_T = translate_ar_to_tn_ar(
        Sigma, M, schedule.Lambda_cap, schedule.N_Lambda, schedule.sigma
    )
    return RateBundle(provenance="general_theorem", Sigma=Sigma, Sigma_T=Sigma_T, chi=chi)


def example_closed_form_rates(M: int, lambda_const: float) -> RateBundle:
    """Closed-form polynomials for the quadratic builtin schedule:

        Sigma(k)   = 144 M^2 (k+1)^2 - 6 M (k+1)
        Sigma_T(k) = 576 M^2 ceil(1/lambda)^2 (k+1)^2 - 12 M ceil(1/lambda) (k+1)
        chi(k)     = 8 M (k+1) - 1
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    L = ceil_reciprocal(lambda_const)
    return RateBundle(
        provenance="example_closed_form",
        Sigma=lambda k: 144 * M * M * (k + 1) ** 2 - 6 * M * (k + 1),
        Sigma_T=lambda k: 576 * M * M * L * L * (k + 1) ** 2 - 12 * M * L * (k + 1),
        chi=lambda k: 8 * M * (k + 1) - 1,
    )


@dataclass(frozen=True)
class LinearRates:
    """Linear-schedule rates and their pointwise bounds.

    Valid for beta_n = 1 - 2/(n+2), constant lambda, and a family satisfying
    the cross-index comparison with gamma_n = (n+3)/(n+2):

        d(x_n, x_{n+1})  <= 6M / (n+2)
        d(x_n, T_n x_n)  <= 10M / (lambda (n+2))
        d(x_n, T_m x_n)  <= 20M / (lambda (n+2))   for every m
    """

    M: int
    lambda_const: float

    def bound_step(self, n):  # an index or an index array
        return 6.0 * self.M / (n + 2)

    def bound_T(self, n):  # an index or an index array
        return 10.0 * self.M / (self.lambda_const * (n + 2))

    def bound_cross(self, n):  # an index or an index array
        return 20.0 * self.M / (self.lambda_const * (n + 2))

    def rate_step(self, k: int) -> int:
        return 6 * self.M * (k + 1) - 2

    def rate_T(self, k: int) -> int:
        return 10 * self.M * ceil_reciprocal(self.lambda_const) * (k + 1) - 2

    def bundle(self) -> RateBundle:
        """The linear-theorem rates with the orbit checks of their bounds.  The
        map rate is its own, so the step rate gets no advisory reading."""
        return RateBundle(
            provenance="linear_theorem", Sigma=self.rate_step, Sigma_T=self.rate_T,
            advisory=False, checks=self.orbit_checks,
        )

    def orbit_checks(self, instance, trace, tol: float) -> list[tuple[str, Section]]:
        """The two pointwise bounds, the Sabach-Shtern recursion with L = 3M,
        and a spot check of d(x_n, T_m x_n) <= 20M/(lambda(n+2)) for m in
        {0, n//2, 2n} at 25 log-spaced n."""
        step = check_pointwise_bound(
            trace.residual_step, self.bound_step, tol=tol, name="d(x_n, x_n+1) <= 6M/(n+2)"
        )
        t_map = check_pointwise_bound(
            trace.residual_T, self.bound_T, tol=tol, name="d(x_n, T_n x_n) <= 10M/(lam(n+2))"
        )
        ss = sabach_shtern_check(trace.residual_step, L=3.0 * self.M, tol=tol)
        space, family = instance.space, instance.family
        # not np.unique, whose first call imports numpy.ma: 14 ms per process
        sample_ns = sorted(set(np.geomspace(1, max(trace.horizon - 1, 1), 25).astype(int).tolist()))
        ns = np.repeat(sample_ns, 3)
        ms = np.array([(0, n // 2, 2 * n) for n in sample_ns]).ravel()
        xs = trace.x[ns]
        excesses = space.dist_array(xs, family.fn_array(ms, xs)) - self.bound_cross(ns)
        row = worst_row(
            "d(x_n, T_m x_n) <= 20M/(lam(n+2))", (excesses,), at=lambda i: int(sample_ns[i // 3])
        )
        cross = Section(
            title=f"spot check at {len(sample_ns)} sampled n, m in {{0, n//2, 2n}}:",
            checks=(row,),
            tol=tol,
        )
        return [
            ("linear pointwise step bound", step),
            ("linear pointwise map bound", t_map),
            ("sabach-shtern recursion", ss),
            ("linear cross-index spot check", cross),
        ]


def linear_rates(M: int, lambda_const: float) -> LinearRates:
    """Linear rate package for the linear builtin schedule."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if not 0 < lambda_const < 1:
        raise ValueError(f"lambda must lie in (0, 1), got {lambda_const}")
    return LinearRates(M=M, lambda_const=float(lambda_const))


def sabach_shtern_check(s: Sequence[float], L: float, tol: float = 1e-9) -> Section:
    """Check the Sabach-Shtern recursion and its conclusion on a sequence.

    With a_n = 2/(n+2), a nonnegative sequence with s_0 <= L satisfying

        s_{n+1} <= (1 - a_{n+1}) s_n + (a_n - a_{n+1}) L

    obeys s_n <= 2L/(n+2).  The rows are the excess of s_0 over L, the
    worst excess of the recursion (at the n it steps from) and that of the
    conclusion; a NaN entry is the worst and fails.
    """
    values = np.asarray(s, dtype=float)
    horizon = len(values) - 1
    if horizon < 1:
        raise ValueError("need at least two sequence entries")

    def recursion(rows):  # for the steps n of rows, with a at n .. rows.stop
        a = 2.0 / (np.arange(rows.start, rows.stop + 1, dtype=float) + 2.0)
        rhs = (1.0 - a[1:]) * values[rows] + (a[:-1] - a[1:]) * L
        return values[rows.start + 1 : rows.stop + 1] - rhs

    def conclusion(rows):
        return values[rows] - 2.0 * L / (np.arange(rows.start, rows.stop, dtype=float) + 2.0)

    checks = (
        Row("s_0 <= L", float(values[0] - L), 0),
        worst_row("recursion", map(recursion, blocks(horizon))),
        worst_row("conclusion s_n <= 2L/(n+2)", map(conclusion, blocks(horizon + 1))),
    )
    return Section(
        title=f"sabach-shtern check (L={L:g}, {horizon} steps):", checks=checks, tol=tol
    )


@dataclass(frozen=True)
class CertRow:
    k: int
    rate_index: int
    threshold: float
    worst_excess: float | None
    empirical_min_index: int
    status: str  # pass | fail | inconclusive


@dataclass(frozen=True)
class CertificationReport:
    """Per-level outcome of certifying a claimed rate against residuals.

    A level k passes when every residual from index rate(k) to the horizon
    stays at or below 1/(k+1) plus the tolerance; it is inconclusive when
    rate(k) exceeds the horizon (the claim is simply not observable).  The
    empirically minimal index that would have certified is reported for
    comparison (-1 when no index in the window works).
    """

    label: str
    horizon: int
    tol: float
    rows: tuple

    @property
    def acceptable(self) -> bool:
        """No hard failure; inconclusive levels are not counted against."""
        return all(r.status != "fail" for r in self.rows)

    @property
    def status(self) -> str:
        """"fail" on a failed level, else "pass" if some level passed."""
        if not self.acceptable:
            return "fail"
        return "pass" if any(r.status == "pass" for r in self.rows) else "inconclusive"

    def summary(self) -> str:
        lines = [f"certification of {self.label} (horizon {self.horizon}, tol {self.tol!r}):"]
        for r in self.rows:
            if r.status == "inconclusive":
                lines.append(f"  k={r.k:<3} rate {r.rate_index} beyond horizon  inconclusive")
            else:
                lines.append(
                    f"  k={r.k:<3} rate {r.rate_index:<10} worst excess {r.worst_excess: .3e} "
                    f"empirical minimum {r.empirical_min_index:<8} {r.status}"
                )
        return "\n".join(lines)


def certify_rate(
    residuals: Sequence[float],
    rate: RateFn,
    k_max: int,
    tol: float = 1e-12,
    label: str = "rate",
) -> CertificationReport:
    """Check a claimed rate against an observed residual sequence; the
    window is the whole sequence, so the horizon is its last index.

    The comparison allows an absolute tolerance (default 1e-12) because the
    bounds are exact real statements checked in floating point.  Any rate
    that dominates a passing rate pointwise also passes: shrinking the
    window can only remove residuals from consideration.

    The worst excess at level k is the largest residual from rate(k) on (a
    NaN is the largest) less 1/(k+1).  The empirical minimum index is the
    ``checks.settle_indices`` of 1/(k+1) + tol, or -1 past the horizon.
    """
    values = np.asarray(residuals, dtype=float)
    horizon = len(values) - 1
    if horizon < 0:
        raise ValueError("need at least one sequence entry")
    thresholds = [1.0 / (k + 1) for k in range(k_max + 1)]
    settle = settle_indices(values, [thr + tol for thr in thresholds])
    rows = []
    for k, (thr, first) in enumerate(zip(thresholds, settle)):
        n0 = max(0, int(rate(k)))
        excess = float(values[n0:].max() - thr) if n0 <= horizon else None
        status = "inconclusive" if excess is None else "pass" if excess <= tol else "fail"
        rows.append(CertRow(k, n0, thr, excess, first if first <= horizon else -1, status))
    return CertificationReport(label=label, horizon=horizon, tol=tol, rows=tuple(rows))


def check_pointwise_bound(
    values: Sequence[float], bound: Callable, tol: float = 1e-9, name: str = "bound"
) -> Section:
    """Scan values[n] <= bound(n) + tol for every recorded n; a NaN excess
    is the worst.  ``bound`` is called once per block of ``BLOCK_ROWS``
    steps, on that block's index array, and returns the bounds as an array
    of its length or one number, so it must act element by element.
    Raises ValueError, naming the check, when ``values`` is empty."""
    vals = np.asarray(values, dtype=float)

    def excess(rows):
        return vals[rows] - bound(np.arange(rows.start, rows.stop))

    return Section(
        title=f"pointwise bound over {len(vals)} steps:",
        checks=(worst_row(name, map(excess, blocks(len(vals)))),),
        tol=tol,
    )
