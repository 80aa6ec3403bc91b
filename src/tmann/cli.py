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

from . import geometry, iterate, mappings, rates, sequences, splitting
from .geometry import Space, TreePoint
from .iterate import ProblemInstance
from .mappings import MappingFamily
from .sequences import ParamSchedule

#: Every run field: its kind, default and least value (None: unbounded).  An
#: int field may equal its least value; a float field must lie above it.
RUN_FIELDS = {
    "horizon": (int, 5000, 1),
    "k_max": (int, 5, 0),
    "tolerance": (float, 1e-9, 0),
    "seed": (int, 0, 0),
    "out_dir": (str, "out", None),
    "axiom_samples": (int, 2000, 1),
    "family_samples": (int, 300, 1),
    "modulus_horizon": (int, 100_000, 1),
    "modulus_k_max": (int, 20, 0),
    "record_points": (bool, False, None),
}


#: Every top-level config field: the run fields plus the problem description.
FIELDS = frozenset(RUN_FIELDS) | {"space", "family", "schedule", "u", "x0", "p", "M"}


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


def _typed(value, field: str, kind: type, source: str):
    """``value`` as an int, float or bool, or a ConfigError naming ``field``.

    A number field takes a JSON number, not text or true/false, of
    magnitude below 2**63 (finite, and within the 64-bit integers numpy
    counts with), and an integer field takes no fractional part (3.7 is
    refused, not truncated to 3).  Nested fields are named by their path,
    such as ``space.dim``.
    """
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
        raise ConfigError(f"{source}: field '{field}' must be {_KIND_NAMES[kind]}, got {value!r}")
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

    merged = {name: default for name, (_, default, _) in RUN_FIELDS.items()}
    merged.update(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    source = str(path)
    for section in ("space", "family", "schedule"):
        value = _require(merged, section, source)
        if not isinstance(value, dict) or "name" not in value:
            raise ConfigError(f"{source}: field '{section}' must be an object with a 'name'")

    run = {}
    for name, (kind, _, least) in RUN_FIELDS.items():
        if kind is str:
            run[name] = str(merged[name])
            continue
        value = run[name] = _typed(merged[name], name, kind, source)
        strict = kind is float
        if least is not None and (value <= least if strict else value < least):
            bound = f"{'>' if strict else '>='} {least}"
            raise ConfigError(f"{source}: field '{name}' must be {bound}, got {value!r}")

    return ExperimentConfig(
        space=merged["space"],
        family=merged["family"],
        schedule=merged["schedule"],
        u=_require(merged, "u", source),
        x0=_require(merged, "x0", source),
        p=merged.get("p"),
        M=_typed(merged["M"], "M", int, source) if merged.get("M") is not None else None,
        source=source,
        **run,
    )


#: The fields each kind of nested object takes besides its ``name``.
_SPACE_FIELDS = {
    "euclidean": "dim box_radius",
    "euclidean_broken": "dim box_radius",
    "star_tree": "num_rays max_radius",
}
_SCHEDULE_FIELDS = {
    "example": "lambda",
    "linear": "lambda",
    "table": "label beta lambda sigma_beta chi_beta chi_lambda sigma Lambda_cap N_Lambda "
    "gamma chi_gamma Gamma_cap N_Gamma",
}
_FAMILY_FIELDS = {
    "identity": "",
    "box_projection": "lo hi",
    "tree_contraction": "factor",
    "resolvent_l1": "weight",
    "resolvent_quadratic": "matrix",
    "forward_backward": "A B",
}
_MONOTONE_FIELDS = {"l1": "rho", "box": "lo hi", "zero": ""}
_COCOERCIVE_FIELDS = {"quadratic": "diag b", "zero": ""}


def _named(spec, path: str, what: str, fields: dict, source: str) -> str:
    """The name of the object ``spec`` at ``path``, once it names a known
    ``what`` and holds no key besides ``name`` and that kind's fields."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{source}: field '{path}' must be an object")
    name = spec.get("name")
    if not isinstance(name, str) or name not in fields:
        raise ConfigError(f"{source}: unknown {what} {name!r}")
    unknown = sorted(set(spec) - {"name", *fields[name].split()})
    if unknown:
        listed = ", ".join(repr(f"{path}.{key}") for key in unknown)
        raise ConfigError(f"{source}: unknown field(s) {listed}")
    return name


def _build_space(spec: dict, source: str) -> Space:
    name = _named(spec, "space", "space", _SPACE_FIELDS, source)
    if name == "star_tree":
        return geometry.StarTreeSpace(
            num_rays=_typed(spec.get("num_rays", 3), "space.num_rays", int, source),
            max_radius=_typed(spec.get("max_radius", 5.0), "space.max_radius", float, source),
        )
    euclidean = {
        "euclidean": geometry.EuclideanSpace,
        "euclidean_broken": geometry.BrokenEuclideanSpace,
    }
    return euclidean[name](
        dim=_typed(spec.get("dim", 1), "space.dim", int, source),
        box_radius=_typed(spec.get("box_radius", 5.0), "space.box_radius", float, source),
    )


def _build_schedule(spec: dict, source: str) -> ParamSchedule:
    name = _named(spec, "schedule", "schedule", _SCHEDULE_FIELDS, source)
    if name != "table":
        builtins = {
            "example": sequences.builtin_example_schedule,
            "linear": sequences.builtin_linear_schedule,
        }
        return builtins[name](
            _typed(_require(spec, "lambda", source), "schedule.lambda", float, source)
        )
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


def _parse_point(space: Space, value, source: str, label: str):
    try:
        if isinstance(space, geometry.StarTreeSpace):
            if not isinstance(value, dict) or "ray" not in value or "t" not in value:
                raise ValueError("star-tree points are objects with 'ray' and 't'")
            ray = _typed(value["ray"], f"{label}.ray", int, source)
            t = _typed(value["t"], f"{label}.t", float, source)
            return space.validate_point(TreePoint(ray, t))
        return space.validate_point(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: point '{label}': {exc}")


def _build_monotone_op(spec, source: str):
    name = _named(spec, "family.A", "monotone operator", _MONOTONE_FIELDS, source)
    if name == "l1":
        return splitting.l1_operator(_typed(spec.get("rho", 1.0), "family.A.rho", float, source))
    if name == "box":
        return splitting.box_operator(_require(spec, "lo", source), _require(spec, "hi", source))
    return splitting.zero_operator()


def _build_cocoercive_op(spec, dim: int, source: str):
    name = _named(spec, "family.B", "cocoercive operator", _COCOERCIVE_FIELDS, source)
    if name == "quadratic":
        return splitting.quadratic_gradient(
            _require(spec, "diag", source), _require(spec, "b", source)
        )
    return splitting.zero_cocoercive(dim)


def _build_forward_backward_family(
    spec: dict, space: Space, schedule: ParamSchedule, p, horizon: int, source: str
) -> MappingFamily:
    if p is None:
        raise ConfigError(
            f"{source}: family 'forward_backward' needs 'p' (a registered zero of A + B)"
        )
    A = _build_monotone_op(_require(spec, "A", source), source)
    B = _build_cocoercive_op(_require(spec, "B", source), space.dim, source)
    cap = 2.0 * B.beta_coco
    gammas = sequences.terms(schedule.gamma, np.arange(horizon + 1))
    outside = ~((0.0 < gammas) & (gammas < cap))
    if outside.any():
        n = int(np.argmax(outside))
        raise ConfigError(
            f"{source}: gamma_{n} = {float(gammas[n])!r} outside the step-size range (0, {cap!r})"
        )
    return splitting.forward_backward_family(A, B, schedule.gamma, p)


#: Families whose maps are indexed by the schedule's step sizes gamma_n.
_GAMMA_FAMILIES = ("forward_backward", "resolvent_l1", "resolvent_quadratic")

#: The space each family's maps act on; identity acts on every space.
_FAMILY_SPACE = {
    "identity": (geometry.Space, "any"),
    "box_projection": (geometry.EuclideanSpace, "a euclidean"),
    "tree_contraction": (geometry.StarTreeSpace, "a star_tree"),
    "resolvent_l1": (geometry.EuclideanSpace, "a euclidean"),
    "resolvent_quadratic": (geometry.EuclideanSpace, "a euclidean"),
    "forward_backward": (geometry.EuclideanSpace, "a euclidean"),
}


def _build_family(
    spec: dict, space: Space, schedule: ParamSchedule, p, horizon: int, source: str
) -> MappingFamily:
    name = _named(spec, "family", "family", _FAMILY_FIELDS, source)
    if name in _GAMMA_FAMILIES and not schedule.has_gamma:
        raise ConfigError(f"{source}: family '{name}' needs a schedule with gamma")
    # The family's own numbers are read before the space is checked, so a bad
    # number is named even when the space does not fit either.
    numbers = {
        key: _typed(spec[key], f"family.{key}", float, source)
        for key in ("factor", "weight")
        if key in spec
    }
    needs, kind = _FAMILY_SPACE[name]
    if not isinstance(space, needs):
        raise ConfigError(f"{source}: field 'space.name': family '{name}' needs {kind} space")
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
        return mappings.tree_contraction_family(_require(numbers, "factor", source))
    if name == "resolvent_l1":
        return mappings.resolvent_l1_family(
            schedule.gamma, dim=space.dim, weight=numbers.get("weight", 1.0)
        )
    return mappings.resolvent_quadratic_family(_require(spec, "matrix", source), schedule.gamma)


def build_problem(config: ExperimentConfig) -> ProblemInstance:
    """Assemble the problem instance a config describes."""
    source = config.source
    try:
        space = _build_space(config.space, source)
        schedule = _build_schedule(config.schedule, source)
        u = _parse_point(space, config.u, source, "u")
        x0 = _parse_point(space, config.x0, source, "x0")
        p = _parse_point(space, config.p, source, "p") if config.p is not None else None
        family = _build_family(config.family, space, schedule, p, config.horizon, source)
        return ProblemInstance.create(
            space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=config.M
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}")


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


def run_experiment(config: ExperimentConfig, out_dir: Path | None = None) -> int:
    """Execute one experiment end to end; returns the exit code."""
    result = ExperimentResult(config=config)
    tol = config.tolerance
    instance = build_problem(config)
    space, family, schedule = instance.space, instance.family, instance.schedule
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

    trace = iterate.run_tikhonov_mann(instance, config.horizon)

    bounds = iterate.check_basic_bounds(instance, trace, tol=tol)
    result.add("orbit bounds", "pass" if bounds.passed else "fail", bounds.summary())
    recursions = iterate.check_recursive_inequalities(instance, trace, tol=tol)
    result.add("per-step recursions", "pass" if recursions.passed else "fail", recursions.summary())

    certificates = list(schedule.certificates(instance.M))
    chi_T = mappings.chi_T_for(family, schedule, instance.M)
    if chi_T is not None:
        general = rates.general_rates(schedule, instance.M, chi_T)
        certificates.insert(0, rates.Certificate(general))
    else:
        result.add(
            "rates",
            "info",
            "family carries no gap-series certificate; composed rates unavailable",
        )

    certs: list[rates.CertificationReport] = []
    for certificate in certificates:
        for name, passed, text in certificate.checks(instance, trace, tol):
            result.add(name, "pass" if passed else "fail", text)
        bundle = certificate.bundle
        readings = [("Sigma on d(x_n, x_n+1)", trace.residual_step, bundle.Sigma, True)]
        if bundle.Sigma_T is not None:
            readings.append(("Sigma_T on d(x_n, T_n x_n)", trace.residual_T, bundle.Sigma_T, True))
        if certificate.advisory:
            # Second reading: the step rate applied to the map residual.
            readings.append(
                ("Sigma on d(x_n, T_n x_n) [advisory]", trace.residual_T, bundle.Sigma, False)
            )
        for reading, residuals, rate_fn, hard in readings:
            label = f"{bundle.provenance}/{reading}"
            report = rates.certify_rate(residuals, rate_fn, config.k_max, tol=tol, label=label)
            certs.append(report)
            if not hard:
                status = "info"
            elif not report.acceptable:
                status = "fail"
            elif all(r.status == "inconclusive" for r in report.rows):
                status = "inconclusive"
            else:
                status = "pass"
            result.add(f"certification: {label}", status, report.summary())

    trace.to_csv(out / "trace.csv", include_points=config.record_points)
    _write_rates_csv(out / "rates.csv", [c.bundle for c in certificates], config.k_max)
    _write_certifications_csv(out / "certification.csv", certs)
    (out / "report.txt").write_text(result.report_text())
    return result.exit_code


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
            for r in report.rows:
                worst = "" if r.worst_excess is None else repr(r.worst_excess)
                row = [r.k, r.rate_index, repr(r.threshold), worst, r.empirical_min_index, r.status]
                writer.writerow([report.label, *row])


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
