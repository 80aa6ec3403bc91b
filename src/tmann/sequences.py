"""Scalar parameter schedules and their quantitative moduli.

A *rate function* maps a precision level k to an index after which some
quantity stays at or below 1/(k + 1).  Three flavours appear here:

* a rate for a product:   prod_{n=0}^{N} beta_{n+1} <= 1/(k+1) for N >= rate(k);
* a rate for a limit:     |a_n - a| <= 1/(k+1) for n >= rate(k);
* a Cauchy modulus for a series with partial sums (s_n):
  s_{n+j} - s_n <= 1/(k+1) for all n >= modulus(k) and all j.

A ``ParamSchedule`` bundles the sequences (beta_n), (lambda_n) and optionally
(gamma_n) with *declared* moduli for the conditions the convergence theorems
consume.  Moduli are stored as data, not re-derived: the theorems take given
moduli as inputs.  The brute-force oracles in this module exist only to
validate declared moduli against the actually generated sequences.

Oracle semantics are deliberately honest about finiteness: a finite horizon
cannot refute a statement about infinite tails, so results that rest on too
small an observed window are flagged inconclusive rather than passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

RateFn = Callable[[int], int]
"""A total function from precision levels k >= 0 to indices."""

#: Relative slack used when comparing against 1/(k+1).  The builtin schedules
#: have closed-form telescoping sums that land exactly on the threshold; the
#: slack absorbs the last few ulps of rounding so minimal indices come out
#: deterministic.
_BOUNDARY_REL = 1e-9

#: Use log-space accumulation for products over ranges longer than this.
_LOG_SPACE_CUTOFF = 10_000


def _int_ceil(value: float, guard: float = 1e-12) -> int:
    """Ceiling that treats values within ``guard`` (relative) of an integer
    as that integer, protecting against float noise like 3.0000000000000004."""
    return math.ceil(value - guard * max(1.0, abs(value)))


def ceil_reciprocal(lam: float) -> int:
    """ceil(1 / lam) for lam in (0, 1], computed robustly."""
    if not 0 < lam <= 1:
        raise ValueError(f"expected a value in (0, 1], got {lam}")
    return max(1, _int_ceil(1.0 / lam))


@dataclass(frozen=True)
class ParamSchedule:
    """Parameter sequences with their declared quantitative moduli.

    beta, lam           sequences in [0, 1]
    gamma               optional sequence of positive step sizes
    sigma_beta          rate for prod_{n=0}^{N} beta_{n+1} -> 0
    chi_beta            Cauchy modulus for sum |beta_{n+1} - beta_n|
    chi_lambda          Cauchy modulus for sum |lambda_{n+1} - lambda_n|
    sigma               rate for beta_n -> 1
    Lambda_cap, N_Lambda   lambda_n >= 1/Lambda_cap for all n >= N_Lambda
    chi_gamma           Cauchy modulus for sum |gamma_{n+1} - gamma_n|
    Gamma_cap, N_Gamma  gamma_n >= 1/Gamma_cap for all n >= N_Gamma
    certificates        M -> the ``rates.Certificate`` records this schedule
                        certifies beyond the general theorem (none by default)

    The gamma certificate (gamma, chi_gamma, Gamma_cap, N_Gamma) is given
    whole or not at all.  ``name`` only labels the schedule.
    """

    name: str
    beta: Callable[[int], float]
    lam: Callable[[int], float]
    sigma_beta: RateFn
    chi_beta: RateFn
    chi_lambda: RateFn
    sigma: RateFn
    Lambda_cap: int
    N_Lambda: int
    gamma: Callable[[int], float] | None = None
    chi_gamma: RateFn | None = None
    Gamma_cap: int | None = None
    N_Gamma: int | None = None
    certificates: Callable[[int], tuple] = lambda M: ()

    def __post_init__(self) -> None:
        gamma_parts = ("gamma", "chi_gamma", "Gamma_cap", "N_Gamma")
        missing = [part for part in gamma_parts if getattr(self, part) is None]
        if 0 < len(missing) < len(gamma_parts):
            raise ValueError(
                f"incomplete gamma certificate: missing {', '.join(missing)} "
                "(give gamma, chi_gamma, Gamma_cap and N_Gamma together, or none)"
            )

    @property
    def has_gamma(self) -> bool:
        return self.gamma is not None


def builtin_example_schedule(lambda_const: float) -> ParamSchedule:
    """The quadratic-rate schedule: beta_n = 1 - 1/(n+1), lambda_n constant,
    gamma_n = 1 + 1/(n+1).

    Closed forms behind the declared moduli:

    * prod_{n=0}^{N} beta_{n+1} telescopes to 1/(N+2), so sigma_beta(k) = k;
    * sum_{i=0}^{n} |beta_{i+1} - beta_i| = 1 - 1/(n+2); the tail from index
      n is 1/(n+1), so chi_beta(k) = k;
    * lambda is constant, so chi_lambda(k) = 0;
    * 1 - beta_n = 1/(n+1), so sigma(k) = k;
    * lambda_n = lambda >= 1/ceil(1/lambda) everywhere: N_Lambda = 0;
    * |gamma_{i+1} - gamma_i| sums like the beta differences: chi_gamma(k) = k;
      gamma_n >= 1 everywhere, so Gamma_cap = 1, N_Gamma = 0.

    Beyond the general theorem it certifies the closed-form polynomials of
    ``rates.example_closed_form_rates``.
    """
    from . import rates  # rates imports this module

    if not 0 < lambda_const < 1:
        raise ValueError(f"lambda must lie in (0, 1), got {lambda_const}")
    lam = float(lambda_const)
    return ParamSchedule(
        name="example",
        beta=lambda n: 1.0 - 1.0 / (n + 1),
        lam=lambda n: lam,
        sigma_beta=lambda k: k,
        chi_beta=lambda k: k,
        chi_lambda=lambda k: 0,
        sigma=lambda k: k,
        Lambda_cap=ceil_reciprocal(lam),
        N_Lambda=0,
        gamma=lambda n: 1.0 + 1.0 / (n + 1),
        chi_gamma=lambda k: k,
        Gamma_cap=1,
        N_Gamma=0,
        certificates=lambda M: (rates.Certificate(rates.example_closed_form_rates(M, lam)),),
    )


def builtin_linear_schedule(lambda_const: float) -> ParamSchedule:
    """The linear-rate schedule: beta_n = 1 - 2/(n+2), lambda_n constant,
    gamma_n = (n+3)/(n+2).

    Closed forms behind the declared moduli:

    * prod_{n=0}^{N} beta_{n+1} = prod (n+1)/(n+3) = 2/((N+2)(N+3)), and
      (k+2)(k+3) >= 2(k+1) for every k, so sigma_beta(k) = k is valid;
    * beta_{n+1} - beta_n = 2/((n+2)(n+3)); the tail from index n is
      2/(n+2), which is <= 1/(k+1) once n >= 2k, so chi_beta(k) = 2k;
    * chi_lambda(k) = 0 (constant lambda);
    * 1 - beta_n = 2/(n+2) <= 1/(k+1) iff n >= 2k, so sigma(k) = 2k;
    * |gamma_{i+1} - gamma_i| = 1/((n+2)(n+3)) with tail 1/(n+2) from index
      n, so chi_gamma(k) = k; gamma_n >= 1, so Gamma_cap = 1, N_Gamma = 0.

    Beyond the general theorem it certifies ``rates.linear_rates`` with its
    pointwise bounds, the Sabach-Shtern recursion and the cross-index spot
    check.
    """
    from . import rates  # rates imports this module

    if not 0 < lambda_const < 1:
        raise ValueError(f"lambda must lie in (0, 1), got {lambda_const}")
    lam = float(lambda_const)
    return ParamSchedule(
        name="linear",
        beta=lambda n: 1.0 - 2.0 / (n + 2),
        lam=lambda n: lam,
        sigma_beta=lambda k: k,
        chi_beta=lambda k: 2 * k,
        chi_lambda=lambda k: 0,
        sigma=lambda k: 2 * k,
        Lambda_cap=ceil_reciprocal(lam),
        N_Lambda=0,
        gamma=lambda n: (n + 3) / (n + 2),
        chi_gamma=lambda k: k,
        Gamma_cap=1,
        N_Gamma=0,
        certificates=lambda M: (rates.linear_rates(M, lam).certificate(),),
    )


def _table_fn(values: Sequence[float]) -> Callable[[int], float]:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("table must be nonempty")
    last = vals[-1]
    return lambda n: vals[n] if n < len(vals) else last


def _table_rate(values: Sequence[int]) -> RateFn:
    vals = [int(v) for v in values]
    if not vals:
        raise ValueError("rate table must be nonempty")
    last = vals[-1]
    return lambda k: vals[k] if k < len(vals) else last


def schedule_from_tables(
    name: str,
    beta: Sequence[float],
    lam: Sequence[float],
    sigma_beta: Sequence[int],
    chi_beta: Sequence[int],
    chi_lambda: Sequence[int],
    sigma: Sequence[int],
    Lambda_cap: int,
    N_Lambda: int,
    gamma: Sequence[float] | None = None,
    chi_gamma: Sequence[int] | None = None,
    Gamma_cap: int | None = None,
    N_Gamma: int | None = None,
) -> ParamSchedule:
    """Build a schedule from finite value tables.

    Sequences and rate tables extend beyond their last entry by repeating
    it, which suits finite-horizon experiments with eventually constant
    parameters.  Declared moduli still go through the oracles like any
    other schedule.  Every beta and lambda entry must lie in [0, 1] and
    every gamma entry must be positive.
    """
    for label, values, ok in (
        ("beta", beta, lambda v: 0.0 <= v <= 1.0),
        ("lambda", lam, lambda v: 0.0 <= v <= 1.0),
        ("gamma", () if gamma is None else gamma, lambda v: v > 0.0),
    ):
        for n, value in enumerate(values):
            if not ok(float(value)):
                raise ValueError(f"{label}[{n}] = {value!r} is out of range")
    return ParamSchedule(
        name=name,
        beta=_table_fn(beta),
        lam=_table_fn(lam),
        sigma_beta=_table_rate(sigma_beta),
        chi_beta=_table_rate(chi_beta),
        chi_lambda=_table_rate(chi_lambda),
        sigma=_table_rate(sigma),
        Lambda_cap=int(Lambda_cap),
        N_Lambda=int(N_Lambda),
        gamma=_table_fn(gamma) if gamma is not None else None,
        chi_gamma=_table_rate(chi_gamma) if chi_gamma is not None else None,
        Gamma_cap=int(Gamma_cap) if Gamma_cap is not None else None,
        N_Gamma=int(N_Gamma) if N_Gamma is not None else None,
    )


def _as_values(terms, count: int) -> np.ndarray:
    if callable(terms):
        return np.fromiter((terms(i) for i in range(count)), dtype=float, count=count)
    arr = np.asarray(terms, dtype=float)
    if len(arr) < count:
        raise ValueError(f"need {count} terms, got {len(arr)}")
    return arr[:count]


@dataclass(frozen=True)
class OracleTable:
    """Brute-force minimal indices per precision level k.

    ``minimal[k]`` is the least index at which the checked quantity stays at
    or below 1/(k+1) out to the horizon, or None when no index qualifies.
    ``conclusive[k]`` is False when that index falls inside the final guard
    stretch of the horizon (less than 1% of the window left to confirm it);
    such entries must not be counted as passes.
    """

    kind: str
    horizon: int
    minimal: tuple
    conclusive: tuple

    def validate(self, declared: RateFn) -> "ModulusValidation":
        """Check that a declared modulus dominates the brute-force minimum."""
        statuses = []
        for k, (m, ok) in enumerate(zip(self.minimal, self.conclusive)):
            if m is None or not ok:
                statuses.append("inconclusive")
            elif declared(k) >= m:
                statuses.append("pass")
            else:
                statuses.append("fail")
        return ModulusValidation(kind=self.kind, statuses=tuple(statuses), minimal=self.minimal)


@dataclass(frozen=True)
class ModulusValidation:
    kind: str
    statuses: tuple
    minimal: tuple

    @property
    def all_pass(self) -> bool:
        return all(s == "pass" for s in self.statuses)

    @property
    def no_failure(self) -> bool:
        return all(s != "fail" for s in self.statuses)

    def first_failure(self) -> int | None:
        for k, s in enumerate(self.statuses):
            if s == "fail":
                return k
        return None


def _guard_window(horizon: int) -> int:
    return max(1, horizon // 100)


def _minimal_indices(qualifies: np.ndarray, horizon: int) -> tuple:
    """First index where a monotone qualification array turns True, else None."""
    if not qualifies[-1]:
        return None, False
    idx = int(np.argmax(qualifies))
    return idx, idx <= horizon - _guard_window(horizon)


def oracle_cauchy_modulus(
    series_terms,
    k_max: int,
    horizon: int,
    include_start: bool = True,
) -> OracleTable:
    """Minimal Cauchy-modulus indices for a series of nonnegative terms.

    For each k <= k_max, returns the least n such that the observed tail sum
    from index n out to the horizon stays at or below 1/(k+1).  With
    ``include_start`` the window opens at n itself (the conservative reading:
    an index passing here also bounds every window opening after n); with
    ``include_start=False`` the window opens at n + 1, which is the exact
    quantity the iteration theorems consume.

    The horizon is the caller's responsibility: it must be large enough that
    the unobserved tail is negligible for the series at hand.  Indices found
    only inside the final guard stretch are flagged inconclusive.
    """
    values = _as_values(series_terms, horizon + 1)
    if np.any(values < 0):
        raise ValueError("series terms must be nonnegative")
    # rev[n] = sum over i in [n, horizon]
    rev = np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])
    tails = rev[:-1] if include_start else rev[1:]
    minimal, conclusive = [], []
    for k in range(k_max + 1):
        thr = (1.0 / (k + 1)) * (1.0 + _BOUNDARY_REL)
        m, ok = _minimal_indices(tails <= thr, horizon)
        minimal.append(m)
        conclusive.append(ok)
    return OracleTable(
        kind="cauchy_modulus", horizon=horizon, minimal=tuple(minimal), conclusive=tuple(conclusive)
    )


def oracle_product_rate(beta, k_max: int, horizon: int) -> OracleTable:
    """Minimal indices N with prod_{n=0}^{N} beta_{n+1} <= 1/(k+1).

    Factors must lie in [0, 1], so the running product is nonincreasing and
    the minimal index is well defined.  Products over ranges longer than
    10^4 accumulate in log space to dodge underflow.  A product that never
    reaches the threshold within the horizon yields an inconclusive entry.
    """
    if callable(beta):
        factors = np.fromiter(
            (beta(n + 1) for n in range(horizon + 1)), dtype=float, count=horizon + 1
        )
    else:
        factors = _as_values(beta, horizon + 2)[1:]
    if np.any((factors < 0) | (factors > 1)):
        raise ValueError("beta values must lie in [0, 1]")
    if horizon > _LOG_SPACE_CUTOFF:
        with np.errstate(divide="ignore"):
            logs = np.where(factors > 0, np.log(np.maximum(factors, 1e-300)), -np.inf)
        running = np.cumsum(logs)
        threshold = lambda k: math.log((1.0 / (k + 1)) * (1.0 + _BOUNDARY_REL))
    else:
        running = np.cumprod(factors)
        threshold = lambda k: (1.0 / (k + 1)) * (1.0 + _BOUNDARY_REL)
    minimal, conclusive = [], []
    for k in range(k_max + 1):
        m, ok = _minimal_indices(running <= threshold(k), horizon)
        minimal.append(m)
        conclusive.append(ok)
    return OracleTable(
        kind="product_rate", horizon=horizon, minimal=tuple(minimal), conclusive=tuple(conclusive)
    )


def oracle_convergence_rate(values, limit: float, k_max: int, horizon: int) -> OracleTable:
    """Minimal indices n with |a_m - limit| <= 1/(k+1) for all m in [n, horizon]."""
    vals = _as_values(values, horizon + 1)
    dev = np.abs(vals - float(limit))
    # revmax[n] = max deviation over [n, horizon]
    revmax = np.maximum.accumulate(dev[::-1])[::-1]
    minimal, conclusive = [], []
    for k in range(k_max + 1):
        thr = (1.0 / (k + 1)) * (1.0 + _BOUNDARY_REL)
        m, ok = _minimal_indices(revmax <= thr, horizon)
        minimal.append(m)
        conclusive.append(ok)
    return OracleTable(
        kind="convergence_rate", horizon=horizon, minimal=tuple(minimal), conclusive=tuple(conclusive)
    )


def psi0(schedule: ParamSchedule, chi: RateFn, k: int) -> int:
    """Least positive integer P with 1/P <= prod_{n=0}^{chi(3k+2)} beta_{n+1}.

    Evaluates the finite product and takes the integer ceiling of its
    reciprocal; the returned P always satisfies 1/P <= product.  Ranges
    longer than 10^4 accumulate in log space; if the reciprocal then
    overflows double precision the ceiling is assembled from its decimal
    exponent, accurate to roughly 1e-11 relative (documented approximation;
    exact ceiling semantics hold on the non-overflow paths).

    Raises when some beta_{n+1} vanishes on the range, in which case no
    finite P exists and the caller must supply a schedule with positive
    beta_{n+1} or declare a value by hand.
    """
    upper = chi(3 * k + 2)
    if upper < 0:
        raise ValueError(f"chi(3k+2) must be >= 0, got {upper}")
    count = upper + 1
    factors = np.fromiter((schedule.beta(n + 1) for n in range(count)), dtype=float, count=count)
    if np.any(factors <= 0):
        bad = int(np.argmax(factors <= 0))
        raise ValueError(
            f"psi0 undefined: beta_{{{bad + 1}}} = {factors[bad]!r} is not positive "
            f"at or below index chi(3k+2) = {upper}"
        )
    if count > _LOG_SPACE_CUTOFF:
        neg_log = -float(np.sum(np.log(factors)))
        if neg_log <= 700.0:
            product = math.exp(-neg_log)
        else:
            # Reciprocal overflows double precision; build the ceiling from
            # the decimal exponent, keeping ~15 significant digits.
            digits = neg_log / math.log(10.0)
            shift = int(digits) - 15
            mantissa = 10.0 ** (digits - shift)
            return max(1, math.ceil(mantissa) * 10**shift)
    else:
        product = float(np.prod(factors))
    value = max(1, _int_ceil(1.0 / product))
    while 1.0 / value > product:
        value += 1
    return value


@dataclass(frozen=True)
class ScheduleValidation:
    """Outcome of validating a schedule's declared moduli against oracles."""

    schedule: str
    k_max: int
    horizon: int
    moduli: dict[str, ModulusValidation]
    lambda_cap_ok: bool
    gamma_cap_ok: bool | None
    range_excursion: float

    @property
    def all_pass(self) -> bool:
        caps = self.lambda_cap_ok and (self.gamma_cap_ok is not False)
        return caps and self.range_excursion <= 1e-15 and all(
            v.all_pass for v in self.moduli.values()
        )

    @property
    def no_failure(self) -> bool:
        caps = self.lambda_cap_ok and (self.gamma_cap_ok is not False)
        return caps and self.range_excursion <= 1e-15 and all(
            v.no_failure for v in self.moduli.values()
        )

    def summary(self) -> str:
        lines = [
            f"modulus validation for schedule '{self.schedule}' "
            f"(k <= {self.k_max}, horizon {self.horizon})"
        ]
        for name, v in self.moduli.items():
            n_pass = sum(s == "pass" for s in v.statuses)
            n_inc = sum(s == "inconclusive" for s in v.statuses)
            n_fail = len(v.statuses) - n_pass - n_inc
            tag = "ok" if v.no_failure else f"FAILED at k={v.first_failure()}"
            lines.append(
                f"  {name:<12} pass {n_pass}, inconclusive {n_inc}, fail {n_fail}  {tag}"
            )
        lines.append(f"  lambda cap   {'ok' if self.lambda_cap_ok else 'VIOLATED'}")
        if self.gamma_cap_ok is not None:
            lines.append(f"  gamma cap    {'ok' if self.gamma_cap_ok else 'VIOLATED'}")
        lines.append(f"  range excursion beyond [0, 1]: {self.range_excursion:.3e}")
        return "\n".join(lines)


def validate_schedule_moduli(
    schedule: ParamSchedule, k_max: int = 50, horizon: int = 1_000_000
) -> ScheduleValidation:
    """Run every declared modulus of a schedule through its brute-force oracle.

    Checks the product rate for beta, the Cauchy moduli for the beta, lambda
    and (when present) gamma difference series, the rate for beta_n -> 1, and
    the lower-bound certificates for lambda and gamma.
    """
    n_vals = horizon + 2
    beta_vals = np.fromiter((schedule.beta(n) for n in range(n_vals)), dtype=float, count=n_vals)
    lam_vals = np.fromiter((schedule.lam(n) for n in range(n_vals)), dtype=float, count=n_vals)

    moduli = {
        "sigma_beta": oracle_product_rate(beta_vals, k_max, horizon).validate(schedule.sigma_beta),
        "chi_beta": oracle_cauchy_modulus(np.abs(np.diff(beta_vals)), k_max, horizon).validate(
            schedule.chi_beta
        ),
        "chi_lambda": oracle_cauchy_modulus(np.abs(np.diff(lam_vals)), k_max, horizon).validate(
            schedule.chi_lambda
        ),
        "sigma": oracle_convergence_rate(beta_vals, 1.0, k_max, horizon).validate(schedule.sigma),
    }

    lam_floor = 1.0 / schedule.Lambda_cap - 1e-12
    lambda_cap_ok = bool(np.all(lam_vals[schedule.N_Lambda :] >= lam_floor))

    gamma_cap_ok = None
    if schedule.has_gamma:
        gamma_vals = np.fromiter(
            (schedule.gamma(n) for n in range(n_vals)), dtype=float, count=n_vals
        )
        moduli["chi_gamma"] = oracle_cauchy_modulus(
            np.abs(np.diff(gamma_vals)), k_max, horizon
        ).validate(schedule.chi_gamma)
        gamma_floor = 1.0 / schedule.Gamma_cap - 1e-12
        gamma_cap_ok = bool(np.all(gamma_vals[schedule.N_Gamma :] >= gamma_floor))

    excursion = float(
        max(
            np.max(-beta_vals, initial=0.0),
            np.max(beta_vals - 1.0, initial=0.0),
            np.max(-lam_vals, initial=0.0),
            np.max(lam_vals - 1.0, initial=0.0),
        )
    )
    return ScheduleValidation(
        schedule=schedule.name,
        k_max=k_max,
        horizon=horizon,
        moduli=moduli,
        lambda_cap_ok=lambda_cap_ok,
        gamma_cap_ok=gamma_cap_ok,
        range_excursion=excursion,
    )
