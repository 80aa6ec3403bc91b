"""Scalar parameter schedules and their quantitative moduli.

A *rate function* maps a precision level k to an index after which some
quantity stays at or below 1/(k + 1).  Three flavours appear here:

* a rate for a product:   prod_{n=0}^{N} beta_{n+1} <= 1/(k+1) for N >= rate(k);
* a rate for a limit:     |a_n - a| <= 1/(k+1) for n >= rate(k);
* a Cauchy modulus for a series with partial sums (s_n):
  s_{n+j} - s_n <= 1/(k+1) for all n >= modulus(k) and all j.

A ``ParamSchedule`` bundles the sequences (beta_n), (lambda_n) and optionally
(gamma_n) with *declared* moduli for the conditions the convergence theorems
consume, and with ``inverse_product``, the least P with 1/P <= prod_{n=0}^{N}
beta_{n+1}, which ``psi0`` reads.  Moduli are stored as data, not
re-derived: the theorems take given moduli as inputs.  The brute-force
oracles in this module exist only to validate declared moduli against the
actually generated sequences.

Oracle semantics are deliberately honest about finiteness: a finite horizon
cannot refute a statement about infinite tails, so results that rest on too
small an observed window are flagged inconclusive rather than passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import settle_indices

RateFn = Callable[[int], int]
"""A total function from precision levels k >= 0 to indices."""

#: Relative slack used when comparing against 1/(k+1).  The builtin schedules
#: have closed-form telescoping sums that land exactly on the threshold; the
#: slack absorbs the last few ulps of rounding so minimal indices come out
#: deterministic.
_BOUNDARY_REL = 1e-9


def int_ceil(value: float) -> int:
    """Ceiling that treats a value within float noise of an integer as that
    integer, so 3.0000000000000004 gives 3.  Noise is at most 32 ulps of the
    value and at most 1e-12, so the result never falls short of ``value`` by
    more than 1e-12, far below the default check tolerance of 1e-9; a
    relative guard of 1e-12 took a whole unit off from 1e12 on."""
    nearest = round(value)
    if abs(value - nearest) <= min(32 * math.ulp(value), 1e-12):
        return nearest
    return math.ceil(value)


def ceil_reciprocal(lam: float) -> int:
    """ceil(1 / lam) for lam in (0, 1] with a finite reciprocal, computed robustly."""
    if not (0 < lam <= 1 and 1.0 / lam < math.inf):
        raise ValueError(f"lambda must lie in (0, 1] with a finite 1 / lambda, got {lam!r}")
    return max(1, int_ceil(1.0 / lam))


def _indexed(
    at: Callable[[int], float], array: Callable[[np.ndarray], np.ndarray]
) -> Callable[[int], float]:
    """The sequence ``at`` (an int index to a Python float), marked as also
    evaluating an int index array with ``array``, equal to ``at`` entry for
    entry.  ``at`` stays a plain function, so a scalar call costs one
    function call: a gamma-indexed family's ``fn`` makes one per call, for
    gamma(n), while the orbit kernel reads beta, lambda and an inlined
    family's gamma with ``terms``, a block of steps at a time."""
    at.index_array = array
    return at


def terms(seq: Callable[[int], float], ns: np.ndarray) -> np.ndarray:
    """The float array of ``seq(n)`` for every index in ``ns``: one array
    evaluation for a sequence built here, one call per index for any other
    callable."""
    array = getattr(seq, "index_array", None)
    if array is not None:
        return array(ns)
    return np.array([seq(n) for n in ns.tolist()], dtype=float)


def _closed_form(formula: Callable) -> Callable[[int], float]:
    """A sequence given by one arithmetic formula in n, which numpy then
    evaluates on index arrays with the same operations."""
    return _indexed(formula, formula)


def _constant(value: float) -> Callable[[int], float]:
    return _indexed(lambda n: value, lambda ns: np.full(ns.shape, value))


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
    inverse_product     N -> the least integer P >= 1 with
                        1/P <= prod_{n=0}^{N} beta_{n+1}; when not declared,
                        ``psi0`` takes the exact product of the beta terms
    certificates        M -> the ``rates.RateBundle`` records this schedule
                        certifies beyond the general theorem, each with its
                        orbit checks (none by default)

    The gamma certificate (gamma, chi_gamma, Gamma_cap, N_Gamma) is given
    whole or not at all.  ``name`` only labels the schedule.  The beta, lam
    and gamma of the builtin schedules also evaluate int index arrays;
    ``terms`` reads any sequence as an array, calling a plain callable once
    per index.
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
    inverse_product: RateFn | None = None
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

    * prod_{n=0}^{N} beta_{n+1} telescopes to 1/(N+2), so sigma_beta(k) = k
      and inverse_product(N) = N + 2;
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
        beta=_closed_form(lambda n: 1.0 - 1.0 / (n + 1)),
        lam=_constant(lam),
        sigma_beta=lambda k: k,
        chi_beta=lambda k: k,
        chi_lambda=lambda k: 0,
        sigma=lambda k: k,
        Lambda_cap=ceil_reciprocal(lam),
        N_Lambda=0,
        gamma=_closed_form(lambda n: 1.0 + 1.0 / (n + 1)),
        chi_gamma=lambda k: k,
        Gamma_cap=1,
        N_Gamma=0,
        inverse_product=lambda N: N + 2,
        certificates=lambda M: (rates.example_closed_form_rates(M, lam),),
    )


def builtin_linear_schedule(lambda_const: float) -> ParamSchedule:
    """The linear-rate schedule: beta_n = 1 - 2/(n+2), lambda_n constant,
    gamma_n = (n+3)/(n+2).

    Closed forms behind the declared moduli:

    * prod_{n=0}^{N} beta_{n+1} = prod (n+1)/(n+3) = 2/((N+2)(N+3)), and
      (k+2)(k+3) >= 2(k+1) for every k, so sigma_beta(k) = k is valid and
      inverse_product(N) = (N+2)(N+3)/2;
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
        beta=_closed_form(lambda n: 1.0 - 2.0 / (n + 2)),
        lam=_constant(lam),
        sigma_beta=lambda k: k,
        chi_beta=lambda k: 2 * k,
        chi_lambda=lambda k: 0,
        sigma=lambda k: 2 * k,
        Lambda_cap=ceil_reciprocal(lam),
        N_Lambda=0,
        gamma=_closed_form(lambda n: (n + 3) / (n + 2)),
        chi_gamma=lambda k: k,
        Gamma_cap=1,
        N_Gamma=0,
        inverse_product=lambda N: (N + 2) * (N + 3) // 2,
        certificates=lambda M: (rates.linear_rates(M, lam).bundle(),),
    )


def exact_inverse_product(beta: Callable[[int], float]) -> RateFn:
    """The ``inverse_product`` of the sequence ``beta``, computed exactly:
    each term of the product is read as the binary rational it is.  Raises
    when a term of the product is not positive."""

    def least(N: int) -> int:
        factors = [float(beta(n)) for n in range(1, N + 2)]
        bad = next((n for n, f in enumerate(factors, 1) if not f > 0), None)
        if bad is not None:
            raise ValueError(
                f"psi0 undefined: beta_{{{bad}}} = {factors[bad - 1]!r} is not positive"
            )
        parts = zip(*(f.as_integer_ratio() for f in factors))
        num, den = (product_tree(part) for part in parts)
        return max(1, -(-den // num))

    return least


def product_tree(values: Sequence[int]) -> int:
    """The product of a nonempty list of integers, multiplied in a balanced
    tree so that the two operands of each multiplication are of like size.
    A running product multiplies an ever longer result by one short term at
    a time, which costs time quadratic in the number of terms."""
    values = list(values)
    while len(values) > 1:
        odd = values[-1:] if len(values) % 2 else []
        values = [a * b for a, b in zip(values[0::2], values[1::2])] + odd
    return values[0]


def _levels(k_max: int) -> list:
    """The oracle threshold 1/(k+1), with its boundary slack, for k <= k_max."""
    return [(1.0 / (k + 1)) * (1.0 + _BOUNDARY_REL) for k in range(k_max + 1)]


@dataclass(frozen=True)
class OracleTable:
    """Brute-force minimal indices per precision level k.

    ``minimal[k]`` is the least index at which the checked quantity stays at
    or below 1/(k+1) out to the horizon, or None when no index qualifies.
    ``conclusive[k]`` is False when no index qualifies or the index falls
    inside the final guard stretch of the horizon (less than 1% of the
    window left to confirm it); such entries must not be counted as passes.

    Every oracle searches an array whose entry at n is at most the true
    quantity at n: the product up to n and the deviation at n are observed
    whole, and a tail sum is taken over the observed window only, which the
    unobserved terms can only raise.  A modulus declaring n at level k
    claims the true quantity at or below 1/(k+1) at every index from n on,
    so an observed entry above 1/(k+1) at or after n refutes it, and
    :meth:`validate` can fail a declaration without seeing the tail.
    """

    horizon: int
    minimal: tuple

    @classmethod
    def search(cls, values: np.ndarray, horizon: int, thresholds) -> "OracleTable":
        """The least n from which ``values`` stays at or below each threshold."""
        if len(values) != horizon + 1:
            raise ValueError(f"horizon {horizon} needs {horizon + 1} terms, got {len(values)}")
        settle = settle_indices(values, thresholds)
        return cls(horizon, tuple(n if n <= horizon else None for n in settle))

    @property
    def conclusive(self) -> tuple:
        last = self.horizon - max(1, self.horizon // 100)
        return tuple(m is not None and m <= last for m in self.minimal)

    def validate(self, declared: RateFn) -> tuple:
        """The status of a declared modulus at each level k: fail when
        declared(k) <= horizon and the minimum is missing or larger than
        declared(k), as the observed entry at declared(k) then lies above
        1/(k+1); pass when the minimum is conclusive and declared(k)
        dominates it; inconclusive otherwise."""
        return tuple(
            "fail" if (d := declared(k)) <= self.horizon and (m is None or d < m)
            else "pass" if ok else "inconclusive"
            for k, (m, ok) in enumerate(zip(self.minimal, self.conclusive))
        )


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
    only inside the final guard stretch are flagged inconclusive.  A fail
    needs no such horizon: the unobserved terms are nonnegative, so each
    true tail sum is at least the observed one.
    """
    values = np.asarray(series_terms, dtype=float)[: horizon + 1]
    if np.any(values < 0):
        raise ValueError("series terms must be nonnegative")
    # rev[n] = sum over i in [n, horizon]
    rev = np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])
    return OracleTable.search(rev[:-1] if include_start else rev[1:], horizon, _levels(k_max))


def oracle_product_rate(beta, k_max: int, horizon: int) -> OracleTable:
    """Minimal indices N with prod_{n=0}^{N} beta_{n+1} <= 1/(k+1), from the
    values beta_0 .. beta_{horizon+1}.

    Factors must lie in [0, 1], so the running product is nonincreasing and
    the minimal index is well defined.  The product accumulates in log
    space, so it does not underflow.  A product that never reaches the
    threshold within the horizon has no minimal index; as every factor up to
    the horizon is observed, a declared index at or below the horizon then
    fails.
    """
    factors = np.asarray(beta, dtype=float)[1 : horizon + 2]
    if np.any((factors < 0) | (factors > 1)):
        raise ValueError("beta values must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        logs = np.where(factors > 0, np.log(np.maximum(factors, 1e-300)), -np.inf)
    return OracleTable.search(np.cumsum(logs), horizon, [math.log(t) for t in _levels(k_max)])


def oracle_convergence_rate(values, limit: float, k_max: int, horizon: int) -> OracleTable:
    """Minimal indices n with |a_m - limit| <= 1/(k+1) for all m in [n, horizon].

    An observed deviation above 1/(k+1) from a declared index on fails that
    declaration."""
    dev = np.abs(np.asarray(values, dtype=float)[: horizon + 1] - float(limit))
    return OracleTable.search(dev, horizon, _levels(k_max))


def psi0(schedule: ParamSchedule, chi: RateFn, k: int) -> int:
    """Least positive integer P with 1/P <= prod_{n=0}^{chi(3k+2)} beta_{n+1}:
    the schedule's ``inverse_product`` at N = chi(3k+2), or, when it declares
    none, the exact product of its beta terms.  Raises when some beta_{n+1}
    on the range is not positive, as then no finite P exists.
    """
    upper = chi(3 * k + 2)
    if upper < 0:
        raise ValueError(f"chi(3k+2) must be >= 0, got {upper}")
    return (schedule.inverse_product or exact_inverse_product(schedule.beta))(upper)


@dataclass(frozen=True)
class ScheduleValidation:
    """Outcome of validating a schedule's declared moduli against oracles:
    ``moduli`` maps each modulus to its per-level statuses."""

    schedule: str
    k_max: int
    horizon: int
    moduli: dict[str, tuple]
    lambda_cap_ok: bool
    gamma_cap_ok: bool | None
    range_excursion: float

    @property
    def status(self) -> str:
        """"fail" when a level, a cap or the range check fails, else "pass"."""
        caps = self.lambda_cap_ok and (self.gamma_cap_ok is not False)
        levels = all(s != "fail" for statuses in self.moduli.values() for s in statuses)
        return "pass" if caps and levels and self.range_excursion <= 1e-15 else "fail"

    def summary(self) -> str:
        lines = [
            f"modulus validation for schedule '{self.schedule}' "
            f"(k <= {self.k_max}, horizon {self.horizon})"
        ]
        for name, statuses in self.moduli.items():
            n_pass = statuses.count("pass")
            n_inc = statuses.count("inconclusive")
            n_fail = len(statuses) - n_pass - n_inc
            tag = f"FAILED at k={statuses.index('fail')}" if n_fail else "ok"
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
    the lower-bound certificates for lambda and gamma.  A beta or lambda
    outside [0, 1] fails the range excursion row, read off the raw terms;
    the ``sigma_beta`` row is then read on the beta factors clipped to [0, 1].
    """
    indices = np.arange(horizon + 2)
    beta_vals = terms(schedule.beta, indices)
    lam_vals = terms(schedule.lam, indices)
    gamma_vals = terms(schedule.gamma, indices) if schedule.has_gamma else None
    del indices  # one array fewer alive under the oracles, whose peak is the run's
    excursion = max(
        float(max(np.max(-vals, initial=0.0), np.max(vals - 1.0, initial=0.0)))
        for vals in (beta_vals, lam_vals)
    )
    # clipping is the identity in range, so only a failing run holds the copy
    factors = np.clip(beta_vals, 0.0, 1.0) if excursion > 0 else beta_vals

    moduli = {
        "sigma_beta": oracle_product_rate(factors, k_max, horizon).validate(schedule.sigma_beta),
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
        moduli["chi_gamma"] = oracle_cauchy_modulus(
            np.abs(np.diff(gamma_vals)), k_max, horizon
        ).validate(schedule.chi_gamma)
        gamma_floor = 1.0 / schedule.Gamma_cap - 1e-12
        gamma_cap_ok = bool(np.all(gamma_vals[schedule.N_Gamma :] >= gamma_floor))

    return ScheduleValidation(
        schedule=schedule.name,
        k_max=k_max,
        horizon=horizon,
        moduli=moduli,
        lambda_cap_ok=lambda_cap_ok,
        gamma_cap_ok=gamma_cap_ok,
        range_excursion=excursion,
    )
