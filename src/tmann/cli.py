"""Experiment harness: config in, CSV artifacts and a textual report out.

A config is a single JSON file naming a space, a mapping family, a parameter
schedule, the anchor/start/fixed points and run parameters.  ``run`` executes
one experiment; ``suite`` runs every ``*.json`` config in a directory and
aggregates the outcomes.

Artifacts written per experiment (into the output directory):

    trace.csv           per-step residual sequences (optionally points)
    rates.csv           every computed rate, tabulated for k <= k_max
    certification.csv   per-level certification outcomes for each rate
    report.txt          human-readable pass/fail summary

Exit codes: 0 when every check passes or is inconclusive by horizon, 1 on
any hard check failure, 2 on configuration errors.  With a fixed seed the
artifacts are byte-identical across runs; all numeric content in rates.csv
is reproducible by calling the library functions with the config's
parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import geometry, iterate, mappings, rates, sequences
from .geometry import Space, TreePoint
from .iterate import ProblemInstance
from .mappings import MappingFamily
from .sequences import ParamSchedule

DEFAULTS = {
    "horizon": 5000,
    "k_max": 5,
    "tolerance": 1e-9,
    "seed": 0,
    "out_dir": "out",
    "axiom_samples": 2000,
    "family_samples": 300,
    "modulus_horizon": 100_000,
    "modulus_k_max": 20,
    "record_points": False,
}


#: Every top-level config field: the defaults plus the problem description.
FIELDS = frozenset(DEFAULTS) | {"space", "family", "schedule", "u", "x0", "p", "M"}


class ConfigError(Exception):
    """Raised for malformed or inconsistent experiment configs."""


@dataclass
class ExperimentConfig:
    space: dict
    family: dict
    schedule: dict
    u: object
    x0: object
    p: object | None
    M: int | None
    horizon: int
    k_max: int
    tolerance: float
    seed: int
    out_dir: str
    axiom_samples: int
    family_samples: int
    modulus_horizon: int
    modulus_k_max: int
    record_points: bool
    source: str = "<config>"


def _require(cfg: dict, key: str, source: str):
    if key not in cfg:
        raise ConfigError(f"{source}: missing required field '{key}'")
    return cfg[key]


_KIND_NAMES = {
    int: "an integer of magnitude below 2**63",
    float: "a number of magnitude below 2**63",
    bool: "true or false",
}


def _typed(cfg: dict, key: str, kind: type, source: str):
    """cfg[key] as an int, float or bool, or a ConfigError naming the field.

    A number field takes a JSON number, not text or true/false, of
    magnitude below 2**63 (finite, and within the 64-bit integers numpy
    counts with), and an integer field takes no fractional part (3.7 is
    refused, not truncated to 3).
    """
    value = cfg[key]
    if kind is bool:
        valid = isinstance(value, bool)
    else:
        valid = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and abs(value) < 2**63  # False for inf and nan; exact for a long int
            and (kind is float or value == int(value))
        )
    if not valid:
        raise ConfigError(f"{source}: field '{key}' must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a JSON experiment config, applying CLI overrides."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {', '.join(map(repr, unknown))}")

    merged = dict(DEFAULTS)
    merged.update(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    source = str(path)
    for section in ("space", "family", "schedule"):
        value = _require(merged, section, source)
        if not isinstance(value, dict) or "name" not in value:
            raise ConfigError(f"{source}: field '{section}' must be an object with a 'name'")

    horizon = _typed(merged, "horizon", int, source)
    if horizon < 1:
        raise ConfigError(f"{source}: horizon must be >= 1, got {horizon}")
    k_max = _typed(merged, "k_max", int, source)
    if k_max < 0:
        raise ConfigError(f"{source}: k_max must be >= 0, got {k_max}")

    return ExperimentConfig(
        space=merged["space"],
        family=merged["family"],
        schedule=merged["schedule"],
        u=_require(merged, "u", source),
        x0=_require(merged, "x0", source),
        p=merged.get("p"),
        M=_typed(merged, "M", int, source) if merged.get("M") is not None else None,
        horizon=horizon,
        k_max=k_max,
        tolerance=_typed(merged, "tolerance", float, source),
        seed=_typed(merged, "seed", int, source),
        out_dir=str(merged["out_dir"]),
        axiom_samples=_typed(merged, "axiom_samples", int, source),
        family_samples=_typed(merged, "family_samples", int, source),
        modulus_horizon=_typed(merged, "modulus_horizon", int, source),
        modulus_k_max=_typed(merged, "modulus_k_max", int, source),
        record_points=_typed(merged, "record_points", bool, source),
        source=source,
    )


def _build_space(spec: dict, source: str) -> Space:
    name = spec["name"]
    if name == "euclidean":
        return geometry.EuclideanSpace(
            dim=int(spec.get("dim", 1)), box_radius=float(spec.get("box_radius", 5.0))
        )
    if name == "euclidean_broken":
        return geometry.BrokenEuclideanSpace(
            dim=int(spec.get("dim", 1)), box_radius=float(spec.get("box_radius", 5.0))
        )
    if name == "star_tree":
        return geometry.StarTreeSpace(
            num_rays=int(spec.get("num_rays", 3)), max_radius=float(spec.get("max_radius", 5.0))
        )
    raise ConfigError(f"{source}: unknown space '{name}'")


def _build_schedule(spec: dict, source: str) -> ParamSchedule:
    name = spec["name"]
    if name == "example":
        return sequences.builtin_example_schedule(float(_require(spec, "lambda", source)))
    if name == "linear":
        return sequences.builtin_linear_schedule(float(_require(spec, "lambda", source)))
    if name == "table":
        try:
            return sequences.schedule_from_tables(
                name=str(spec.get("label", "table")),
                beta=_require(spec, "beta", source),
                lam=_require(spec, "lambda", source),
                sigma_beta=_require(spec, "sigma_beta", source),
                chi_beta=_require(spec, "chi_beta", source),
                chi_lambda=_require(spec, "chi_lambda", source),
                sigma=_require(spec, "sigma", source),
                Lambda_cap=_require(spec, "Lambda_cap", source),
                N_Lambda=_require(spec, "N_Lambda", source),
                gamma=spec.get("gamma"),
                chi_gamma=spec.get("chi_gamma"),
                Gamma_cap=spec.get("Gamma_cap"),
                N_Gamma=spec.get("N_Gamma"),
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: schedule table: {exc}")
    raise ConfigError(f"{source}: unknown schedule '{name}'")


def _parse_point(space: Space, value, source: str, label: str):
    try:
        if isinstance(space, geometry.StarTreeSpace):
            if not isinstance(value, dict) or "ray" not in value or "t" not in value:
                raise ValueError("star-tree points are objects with 'ray' and 't'")
            return space.validate_point(TreePoint(int(value["ray"]), float(value["t"])))
        return space.validate_point(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: point '{label}': {exc}")


def _build_monotone_op(spec: dict, source: str):
    from . import splitting

    name = spec.get("name")
    if name == "l1":
        return splitting.l1_operator(float(spec.get("rho", 1.0)))
    if name == "box":
        return splitting.box_operator(_require(spec, "lo", source), _require(spec, "hi", source))
    if name == "zero":
        return splitting.zero_operator()
    raise ConfigError(f"{source}: unknown monotone operator '{name}'")


def _build_cocoercive_op(spec: dict, dim: int, source: str):
    from . import splitting

    name = spec.get("name")
    if name == "quadratic":
        return splitting.quadratic_gradient(
            _require(spec, "diag", source), _require(spec, "b", source)
        )
    if name == "zero":
        return splitting.zero_cocoercive(dim)
    raise ConfigError(f"{source}: unknown cocoercive operator '{name}'")


def _build_forward_backward_family(
    spec: dict, space: Space, schedule: ParamSchedule, p, horizon: int, source: str
) -> MappingFamily:
    from . import splitting

    if not isinstance(space, geometry.EuclideanSpace):
        raise ConfigError(f"{source}: family 'forward_backward' needs a euclidean space")
    if not schedule.has_gamma:
        raise ConfigError(f"{source}: family 'forward_backward' needs a schedule with gamma")
    if p is None:
        raise ConfigError(
            f"{source}: family 'forward_backward' needs 'p' (a registered zero of A + B)"
        )
    A = _build_monotone_op(_require(spec, "A", source), source)
    B = _build_cocoercive_op(_require(spec, "B", source), space.dim, source)
    cap = 2.0 * B.beta_coco
    for n in range(horizon + 1):
        g = schedule.gamma(n)
        if not 0.0 < g < cap:
            raise ConfigError(
                f"{source}: gamma_{n} = {g!r} outside the step-size range (0, {cap!r})"
            )
    return splitting.forward_backward_family(A, B, schedule.gamma, p)


def _build_family(
    spec: dict, space: Space, schedule: ParamSchedule, p, horizon: int, source: str
) -> MappingFamily:
    name = spec["name"]
    if name == "forward_backward":
        return _build_forward_backward_family(spec, space, schedule, p, horizon, source)
    if name == "identity":
        anchor = p if p is not None else space.sample(np.random.default_rng(0))
        return mappings.identity_family(anchor)
    if name == "box_projection":
        return mappings.box_projection_family(
            _require(spec, "lo", source), _require(spec, "hi", source)
        )
    if name == "tree_contraction":
        return mappings.tree_contraction_family(float(_require(spec, "factor", source)))
    if name == "resolvent_l1":
        if not schedule.has_gamma:
            raise ConfigError(f"{source}: family 'resolvent_l1' needs a schedule with gamma")
        dim = getattr(space, "dim", 1)
        return mappings.resolvent_l1_family(
            schedule.gamma, dim=dim, weight=float(spec.get("weight", 1.0))
        )
    if name == "resolvent_quadratic":
        if not schedule.has_gamma:
            raise ConfigError(f"{source}: family 'resolvent_quadratic' needs a schedule with gamma")
        return mappings.resolvent_quadratic_family(
            _require(spec, "matrix", source), schedule.gamma
        )
    raise ConfigError(f"{source}: unknown family '{name}'")


def _assemble(config: ExperimentConfig):
    """Build the space, schedule, family and points named by a config."""
    try:
        space = _build_space(config.space, config.source)
        schedule = _build_schedule(config.schedule, config.source)
        u = _parse_point(space, config.u, config.source, "u")
        x0 = _parse_point(space, config.x0, config.source, "x0")
        p = (
            _parse_point(space, config.p, config.source, "p")
            if config.p is not None
            else None
        )
        family = _build_family(config.family, space, schedule, p, config.horizon, config.source)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{config.source}: {exc}")
    return space, schedule, family, u, x0, p


def build_problem(config: ExperimentConfig) -> ProblemInstance:
    """Assemble the problem instance a config describes."""
    space, schedule, family, u, x0, p = _assemble(config)
    try:
        return ProblemInstance.create(
            space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=config.M
        )
    except ValueError as exc:
        raise ConfigError(f"{config.source}: {exc}")


@dataclass
class Section:
    name: str
    status: str  # pass | fail | inconclusive | info
    text: str


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    sections: list[Section] = field(default_factory=list)

    def add(self, name: str, status: str, text: str) -> None:
        self.sections.append(Section(name, status, text))

    @property
    def exit_code(self) -> int:
        return 1 if any(s.status == "fail" for s in self.sections) else 0

    def report_text(self) -> str:
        lines = [
            "experiment report",
            f"config: {Path(self.config.source).name}",
            f"seed: {self.config.seed}  horizon: {self.config.horizon}  "
            f"k_max: {self.config.k_max}  tolerance: {self.config.tolerance!r}",
            "",
        ]
        for s in self.sections:
            lines.append(f"[{s.status.upper():<12}] {s.name}")
            for ln in s.text.splitlines():
                lines.append("    " + ln)
            lines.append("")
        verdict = "FAIL" if self.exit_code else "PASS"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines) + "\n"


def _certify_into(
    result: ExperimentResult,
    certs: list,
    label: str,
    residuals,
    rate_fn,
    k_max: int,
    tol: float,
    hard: bool,
) -> None:
    report = rates.certify_rate(residuals, rate_fn, k_max, tol=tol, label=label)
    certs.append(report)
    if hard:
        status = "pass" if report.acceptable else "fail"
        if report.acceptable and not report.all_passed:
            status = "inconclusive" if all(r.status == "inconclusive" for r in report.rows) else "pass"
    else:
        status = "info"
    result.add(f"certification: {label}", status, report.summary())


def run_experiment(config: ExperimentConfig, out_dir: Path | None = None) -> int:
    """Execute one experiment end to end; returns the exit code."""
    result = ExperimentResult(config=config)
    tol = config.tolerance
    space, schedule, family, u, x0, p = _assemble(config)
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    axiom = geometry.check_w_axioms(space, samples=config.axiom_samples, tol=tol, rng=rng)
    result.add("space axioms", "pass" if axiom.passed else "fail", axiom.summary())

    nonexp = mappings.check_nonexpansive(
        family, space, samples=config.family_samples, tol=tol, rng=rng
    )
    result.add("family nonexpansive", "pass" if nonexp.passed else "fail", nonexp.summary())

    if family.gamma is not None:
        jp2 = mappings.check_jp2_consequence(
            family,
            family.gamma,
            space,
            samples=max(1, config.family_samples // 10),
            index_pairs=10,
            tol=tol,
            rng=rng,
        )
        result.add(
            "family cross-index comparison", "pass" if jp2.passed else "fail", jp2.summary()
        )

    sched_check = sequences.validate_schedule_moduli(
        schedule, k_max=config.modulus_k_max, horizon=config.modulus_horizon
    )
    result.add(
        "schedule moduli",
        "pass" if sched_check.no_failure else "fail",
        sched_check.summary(),
    )

    try:
        instance = ProblemInstance.create(
            space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=config.M
        )
    except ValueError as exc:
        raise ConfigError(f"{config.source}: {exc}")

    trace = iterate.run_tikhonov_mann(instance, config.horizon)

    bounds = iterate.check_basic_bounds(instance, trace, tol=tol)
    result.add("orbit bounds", "pass" if bounds.passed else "fail", bounds.summary())
    recursions = iterate.check_recursive_inequalities(instance, trace, tol=tol)
    result.add("per-step recursions", "pass" if recursions.passed else "fail", recursions.summary())

    bundles: list[rates.RateBundle] = []
    chi_T = mappings.chi_T_for(family, schedule, instance.M)
    if chi_T is not None:
        bundles.append(rates.general_rates(schedule, instance.M, chi_T))
    else:
        result.add(
            "rates",
            "info",
            "family carries no gap-series certificate; composed rates unavailable",
        )
    if schedule.name == "example":
        bundles.append(rates.example_closed_form_rates(instance.M, schedule.lam(0)))

    certs: list[rates.CertificationReport] = []
    for bundle in bundles:
        _certify_into(
            result,
            certs,
            f"{bundle.provenance}/Sigma on d(x_n, x_n+1)",
            trace.residual_step,
            bundle.Sigma,
            config.k_max,
            tol,
            hard=True,
        )
        if bundle.Sigma_T is not None:
            _certify_into(
                result,
                certs,
                f"{bundle.provenance}/Sigma_T on d(x_n, T_n x_n)",
                trace.residual_T,
                bundle.Sigma_T,
                config.k_max,
                tol,
                hard=True,
            )
        # Advisory second reading: the step rate applied to the map residual.
        _certify_into(
            result,
            certs,
            f"{bundle.provenance}/Sigma on d(x_n, T_n x_n) [advisory]",
            trace.residual_T,
            bundle.Sigma,
            config.k_max,
            tol,
            hard=False,
        )

    if schedule.name == "linear":
        lr = rates.linear_rates(instance.M, schedule.lam(0))
        step_bound = rates.check_pointwise_bound(
            trace.residual_step, lr.bound_step, tol=tol, name="d(x_n, x_n+1) <= 6M/(n+2)"
        )
        result.add(
            "linear pointwise step bound",
            "pass" if step_bound.passed else "fail",
            step_bound.summary(),
        )
        t_bound = rates.check_pointwise_bound(
            trace.residual_T, lr.bound_T, tol=tol, name="d(x_n, T_n x_n) <= 10M/(lam(n+2))"
        )
        result.add(
            "linear pointwise map bound",
            "pass" if t_bound.passed else "fail",
            t_bound.summary(),
        )
        ss = rates.sabach_shtern_check(trace.residual_step, L=3.0 * instance.M, tol=tol)
        result.add("sabach-shtern recursion", "pass" if ss.passed else "fail", ss.summary())
        worst_cross = -float("inf")
        sample_ns = np.unique(
            np.geomspace(1, max(config.horizon - 1, 1), 25).astype(int)
        )
        for n in sample_ns:
            xn = trace.x[n]
            for m in (0, n // 2, 2 * n):
                dist = space.dist(xn, family.eval(m, xn))
                worst_cross = max(worst_cross, dist - lr.bound_cross(n))
        result.add(
            "linear cross-index spot check",
            "pass" if worst_cross <= tol else "fail",
            f"worst excess of d(x_n, T_m x_n) over 20M/(lam(n+2)): {worst_cross: .3e} "
            f"(m in {{0, n//2, 2n}} at {len(sample_ns)} sampled n)",
        )
        _certify_into(
            result,
            certs,
            "linear_theorem/Sigma on d(x_n, x_n+1)",
            trace.residual_step,
            lr.rate_step,
            config.k_max,
            tol,
            hard=True,
        )
        _certify_into(
            result,
            certs,
            "linear_theorem/Sigma_T on d(x_n, T_n x_n)",
            trace.residual_T,
            lr.rate_T,
            config.k_max,
            tol,
            hard=True,
        )
        bundles.append(lr.bundle())

    _write_trace_csv(out / "trace.csv", trace, config.record_points)
    _write_rates_csv(out / "rates.csv", bundles, config.k_max)
    _write_certifications_csv(out / "certification.csv", certs)
    (out / "report.txt").write_text(result.report_text())
    return result.exit_code


def _write_trace_csv(path: Path, trace: iterate.IterationTrace, include_points: bool) -> None:
    trace.to_csv(path, include_points=include_points)


def _write_rates_csv(path: Path, bundles: list, k_max: int) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["provenance", "rate", "k", "value"])
        for bundle in bundles:
            for name, k, value in bundle.rows(k_max):
                writer.writerow([bundle.provenance, name, k, value])


def _write_certifications_csv(path: Path, certs: list) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["label", "k", "rate_k", "threshold", "worst_excess", "empirical_min_index", "status"]
        )
        for report in certs:
            for row in report.rows:
                writer.writerow(report._csv_row(row))


def run_suite(directory, overrides: dict | None = None, out_dir: Path | None = None) -> int:
    """Run every *.json config in a directory; write suite_summary.csv."""
    directory = Path(directory)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    configs = sorted(directory.glob("*.json"))
    if not configs:
        print(f"error: no *.json configs in {directory}", file=sys.stderr)
        return 2

    out = Path(out_dir) if out_dir is not None else Path("suite_out")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = 0
    for cfg_path in configs:
        try:
            config = parse_config(cfg_path, overrides)
            code = run_experiment(config, out_dir=out / cfg_path.stem)
            status = "pass" if code == 0 else "fail"
        except ConfigError as exc:
            print(f"{cfg_path.name}: configuration error: {exc}", file=sys.stderr)
            code, status = 2, "config_error"
        except Exception as exc:  # isolate per-config crashes; the suite continues
            print(f"{cfg_path.name}: error: {exc}", file=sys.stderr)
            code, status = 1, "error"
        rows.append((cfg_path.name, status, code))
        worst = max(worst, 1 if code else 0)
        print(f"{cfg_path.name}: {status}")

    with open(out / "suite_summary.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config", "status", "exit_code"])
        writer.writerows(rows)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tmann",
        description="Run anchored Mann-type iteration experiments and certify their rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    suite_p = sub.add_parser("suite", help="run every config in a directory")
    suite_p.add_argument("directory", help="directory containing *.json configs")
    for p in (run_p, suite_p):
        p.add_argument("--horizon", type=int, default=None, help="override the iteration horizon")
        p.add_argument("--kmax", type=int, default=None, help="override the certification k range")
        p.add_argument("--seed", type=int, default=None, help="override the sampler seed")
        p.add_argument("--out", type=str, default=None, help="override the output directory")

    args = parser.parse_args(argv)
    overrides = {"horizon": args.horizon, "k_max": args.kmax, "seed": args.seed, "out_dir": args.out}

    try:
        if args.command == "run":
            config = parse_config(args.config, overrides)
            return run_experiment(config)
        return run_suite(args.directory, overrides, out_dir=Path(args.out) if args.out else None)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
