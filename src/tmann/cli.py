"""Experiment harness: config in, CSV artifacts and a textual report out.

A config is a single JSON file naming a space, a mapping family, a parameter
schedule, the anchor/start/fixed points and run parameters.  ``run`` executes
one experiment; ``suite`` runs every ``*.json`` config in a directory and
aggregates the outcomes.

Artifacts written per experiment (into the output directory):

    trace.csv           per-step residual sequences (optionally points) on
                        the step grid of ``iterate.trace_slices``
    rates.csv           every computed rate, tabulated for k <= k_max
    certification.csv   per-level certification outcomes for each rate
    report.txt          human-readable pass/fail summary

Each report section reads one check record and shows its status: "pass",
"fail", "inconclusive" (a certification with every rate index past the
horizon) or "info" (the advisory reading, which decides nothing).  Exit
codes: 1 when a section fails, else 0; 2 on a configuration error, which
includes a config that cannot be read, an output directory that cannot be
created and a size that cannot be allocated, and ends in one line on
stderr.  With a fixed seed the artifacts are byte-identical across runs;
all numeric content in rates.csv is reproducible by calling the library
functions with the config's parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import checks, geometry, iterate, mappings, rates, sequences
from .geometry import EuclideanSpace, StarTreeSpace, TreePoint
from .iterate import ProblemInstance, write_csv
from .mappings import MappingFamily
from .sequences import ParamSchedule

#: The default of a field that must be given.
REQUIRED = object()

#: Field kinds sized by ``space.dim``: a list of ``dim`` numbers, and a list
#: of ``dim`` such lists.
VECTOR = "vector"
MATRIX = "matrix"


class Kind(NamedTuple):
    """One kind of config object: the library constructor ``make`` and the
    field table whose values it takes as keywords.

    Each field is a ``(kind, default or REQUIRED, least)`` triple; ``least``
    (None: unbounded) may equal an int field and lies below a float field.
    ``make`` also takes the context the object is read in, such as the
    space's ``dim``, and ignores what it does not use.  A space gives the
    kind of its points; a family, the space its maps act on.  Every
    schedule kind declares gamma, so a family may read the schedule's
    gamma_n.
    """

    make: Callable
    fields: dict
    point: object = None
    space: type = geometry.Space


class ConfigError(Exception):
    """Raised for malformed or inconsistent experiment configs."""


#: Every top-level field.  The nested objects are read by the tables below,
#: and the points once the space gives their kind.
CONFIG_FIELDS = {
    "space": (dict, REQUIRED, None),
    "family": (dict, REQUIRED, None),
    "schedule": (dict, REQUIRED, None),
    "u": (object, REQUIRED, None),
    "x0": (object, REQUIRED, None),
    "p": (object, None, None),
    "M": (int, None, None),
    "horizon": (int, 5000, 2),
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

#: A config's top-level fields, as read, and the file they came from.
ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [*((name, kind) for name, (kind, _, _) in CONFIG_FIELDS.items()), ("source", str, "<config>")],
    namespace={"__module__": __name__},
)

_EUCLIDEAN_FIELDS = {"dim": (int, 1, None), "box_radius": (float, 5.0, None)}
_TREE_POINT = Kind(
    lambda ray, t, space, **_: space.as_point(TreePoint(ray, t)),
    {"ray": (int, REQUIRED, None), "t": (float, REQUIRED, None)},
)
SPACES = {
    "euclidean": Kind(EuclideanSpace, _EUCLIDEAN_FIELDS, point=VECTOR),
    "euclidean_broken": Kind(geometry.BrokenEuclideanSpace, _EUCLIDEAN_FIELDS, point=VECTOR),
    "star_tree": Kind(
        StarTreeSpace,
        {"num_rays": (int, 3, None), "max_radius": (float, 5.0, None)},
        point=_TREE_POINT,
    ),
}

_LAMBDA = {"lambda": (float, REQUIRED, None)}
SCHEDULES = {
    "example": Kind(lambda **f: sequences.builtin_example_schedule(f["lambda"]), _LAMBDA),
    "linear": Kind(lambda **f: sequences.builtin_linear_schedule(f["lambda"]), _LAMBDA),
}

_BOX = {"lo": (VECTOR, REQUIRED, None), "hi": (VECTOR, REQUIRED, None)}
MONOTONE_OPS = {
    "l1": Kind(lambda rho, **_: mappings.l1_operator(rho), {"rho": (float, 1.0, None)}),
    "box": Kind(lambda lo, hi, **_: mappings.box_operator(lo, hi), _BOX),
    "zero": Kind(lambda **_: mappings.zero_operator(), {}),
}
COCOERCIVE_OPS = {
    "quadratic": Kind(
        lambda diag, b, **_: mappings.quadratic_gradient(diag, b),
        {"diag": (VECTOR, REQUIRED, None), "b": (VECTOR, REQUIRED, None)},
    ),
    "zero": Kind(lambda **_: mappings.zero_cocoercive(), {}),
}


def _forward_backward(A, B, schedule: ParamSchedule, p, horizon: int, space, **_) -> MappingFamily:
    if p is None:
        raise ValueError("needs 'p', a registered zero of A + B")
    # the scan's time grows with the horizon, so first refuse an orbit store
    # of (horizon + 1) x dim floats that the memory cannot hold
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if (horizon + 1) * space.dim * 8 > memory:
        size = f"{horizon + 1} x {space.dim} floats"
        raise MemoryError(f"Unable to allocate {size} in {memory} B of memory")
    for rows in checks.blocks(horizon + 1):
        steps = sequences.terms(schedule.gamma, np.arange(rows.start, rows.stop))
        mappings.check_step_sizes(B, steps, start=rows.start)
    return mappings.forward_backward_family(A, B, schedule.gamma, p)


FAMILIES = {
    "identity": Kind(
        lambda space, p, **_: mappings.identity_family(
            p if p is not None else space.sample(np.random.default_rng(0), 1)[0]
        ),
        {},
    ),
    "box_projection": Kind(
        lambda lo, hi, **_: mappings.box_projection_family(lo, hi), _BOX, space=EuclideanSpace
    ),
    "tree_contraction": Kind(
        lambda factor, **_: mappings.tree_contraction_family(factor),
        {"factor": (float, REQUIRED, None)},
        space=StarTreeSpace,
    ),
    "resolvent_l1": Kind(
        lambda weight, space, schedule, **_: mappings.resolvent_l1_family(
            schedule.gamma, dim=space.dim, weight=weight
        ),
        {"weight": (float, 1.0, None)},
        space=EuclideanSpace,
    ),
    "resolvent_quadratic": Kind(
        lambda matrix, schedule, **_: mappings.resolvent_quadratic_family(matrix, schedule.gamma),
        {"matrix": (MATRIX, REQUIRED, None)},
        space=EuclideanSpace,
    ),
    "forward_backward": Kind(
        _forward_backward,
        {"A": (MONOTONE_OPS, REQUIRED, None), "B": (COCOERCIVE_OPS, REQUIRED, None)},
        space=EuclideanSpace,
    ),
}


_KIND_NAMES = {
    int: "an integer of magnitude below 2**63",
    float: "a number of magnitude below 2**63",
    bool: "true or false",
    str: "text",
    dict: "an object",
    VECTOR: "a list of {} numbers",
    MATRIX: "a list of {0} lists of {0} numbers",
}


def _typed(value, field: str, kind, source: str, dim: int | None = None, **context):
    """``value`` read as ``kind``, or a ConfigError naming ``field``.

    A number field takes a JSON number, not text or true/false, of
    magnitude below 2**63 (finite, and within the 64-bit integers numpy
    counts with), and an integer field takes no fractional part (3.7 is
    refused, not truncated to 3).  A VECTOR takes ``dim`` such numbers (any
    count on a space without a dimension) and a MATRIX ``dim`` such lists,
    each as long as the matrix; an entry is named by its index, such as
    ``family.lo[0]``.  An object of a ``Kind``, or of the kind its ``name``
    picks from a table of kinds, is read by that kind's fields and made
    with ``dim`` and ``context``.  ``object`` takes the value as given, for
    the library to check.  Nested fields are named by their path, such as
    ``space.dim``.
    """
    if isinstance(kind, dict):
        return _make(*_object(value, field, kind, source, dim), field, source, dim=dim, **context)
    if isinstance(kind, Kind):
        values = _fields(value, field, kind.fields, source, dim)
        return _make(kind, values, field, source, dim=dim, **context)
    if kind is object:
        return value
    if kind in (VECTOR, MATRIX):
        valid = isinstance(value, list) and dim in (None, len(value))
    elif kind in (bool, str, dict):
        valid = isinstance(value, kind)
    else:
        valid = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and abs(value) < 2**63  # False for inf and nan; exact for a long int
            and (kind is float or value == int(value))
        )
    if not valid:
        expected = _KIND_NAMES[kind].format(dim or "n")
        raise ConfigError(f"{source}: field '{field}' must be {expected}, got {value!r}")
    if kind in (VECTOR, MATRIX):
        entry = float if kind is VECTOR else VECTOR
        return np.array(
            [_typed(v, f"{field}[{i}]", entry, source, len(value)) for i, v in enumerate(value)]
        )
    return kind(value) if kind in (int, float) else value


def _fields(spec, path: str, table: dict, source: str, dim: int | None = None) -> dict:
    """The fields of the object ``spec`` at ``path``, each read by its
    ``(kind, default, least)`` entry in ``table``.

    A key the table does not hold is refused, and so is a missing field
    whose default is REQUIRED.  Only a field whose default is None takes
    null, as not given.
    """
    _typed(spec, path, dict, source)
    prefix = f"{path}." if path else ""
    unknown = sorted(set(spec) - set(table))
    if unknown:
        listed = ", ".join(repr(prefix + key) for key in unknown)
        raise ConfigError(f"{source}: unknown field(s) {listed}")
    values = {}
    for name, (kind, default, least) in table.items():
        field = prefix + name
        value = spec.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"{source}: missing required field '{field}'")
        if value is None and default is None:
            values[name] = None
            continue
        value = values[name] = _typed(value, field, kind, source, dim)
        strict = kind is float
        if least is not None and (value <= least if strict else value < least):
            bound = f"{'>' if strict else '>='} {least}"
            raise ConfigError(f"{source}: field '{field}' must be {bound}, got {value!r}")
    return values


def _object(spec, path: str, kinds: dict, source: str, dim: int | None = None):
    """The kind from ``kinds`` that the object at ``path`` names, and the
    object's other fields read by that kind's table."""
    name = _typed(spec, path, dict, source).get("name")
    if not isinstance(name, str) or name not in kinds:
        known = ", ".join(map(repr, kinds))
        raise ConfigError(f"{source}: field '{path}.name' must be one of {known}, got {name!r}")
    fields = {key: value for key, value in spec.items() if key != "name"}
    return kinds[name], _fields(fields, path, kinds[name].fields, source, dim)


def _make(kind: Kind, values: dict, path: str, source: str, **context):
    """The object ``kind`` makes of ``values``; what its constructor
    refuses is a ConfigError naming ``path``."""
    try:
        return kind.make(**values, **context)
    except ValueError as exc:
        raise ConfigError(f"{source}: field '{path}': {exc}")


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a JSON experiment config, applying CLI overrides."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    source = str(path)
    return ExperimentConfig(**_fields(raw, "", CONFIG_FIELDS, source), source=source)


def build_problem(config: ExperimentConfig) -> ProblemInstance:
    """Assemble the problem instance a config describes."""
    source = config.source
    space_kind, values = _object(config.space, "space", SPACES, source)
    space = _make(space_kind, values, "space", source)
    schedule = _make(*_object(config.schedule, "schedule", SCHEDULES, source), "schedule", source)
    dim = getattr(space, "dim", None)

    def point(label, value):
        return _typed(value, label, space_kind.point, source, dim, space=space)

    u, x0 = point("u", config.u), point("x0", config.x0)
    p = point("p", config.p) if config.p is not None else None
    # the family's fields are read before its space is checked, so a bad
    # value is named even when the space does not fit either
    kind, values = _object(config.family, "family", FAMILIES, source, dim)
    name = config.family["name"]
    if not isinstance(space, kind.space):
        acts_on = f"does not act on a {config.space['name']!r} space"
        raise ConfigError(f"{source}: field 'space.name': family {name!r} {acts_on}")
    family = _make(
        kind, values, "family", source, space=space, schedule=schedule, p=p, horizon=config.horizon
    )
    try:
        return ProblemInstance.create(
            space=space, family=family, schedule=schedule, u=u, x0=x0, p=p, M=config.M
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}")


def run_experiment(config: ExperimentConfig, out_dir: Path | None = None) -> int:
    """Execute one experiment end to end; returns the exit code."""
    sections: list[tuple[str, str, str]] = []  # (name, status, text) of each report section
    tol = config.tolerance
    instance = build_problem(config)
    space, family, schedule = instance.space, instance.family, instance.schedule
    out = _out_dir(Path(out_dir) if out_dir is not None else Path(config.out_dir))
    rng = np.random.default_rng(config.seed)

    def add(name: str, record, status: str | None = None) -> None:
        sections.append((name, status or record.status, record.summary()))

    add(
        "space axioms",
        geometry.check_w_axioms(space, samples=config.axiom_samples, tol=tol, rng=rng),
    )
    add(
        "family nonexpansive",
        mappings.check_nonexpansive(family, space, samples=config.family_samples, tol=tol, rng=rng),
    )
    if family.gamma is not None:
        jp2 = mappings.check_jp2_consequence(
            family, space, samples=max(1, config.family_samples // 10),
            index_pairs=10, tol=tol, rng=rng,
        )
        add("family cross-index comparison", jp2)

    add(
        "schedule moduli",
        sequences.validate_schedule_moduli(
            schedule, k_max=config.modulus_k_max, horizon=config.modulus_horizon
        ),
    )

    trace = iterate.run_tikhonov_mann(instance, config.horizon)

    add("orbit bounds", iterate.check_basic_bounds(instance, trace, tol=tol))
    add("per-step recursions", iterate.check_recursive_inequalities(instance, trace, tol=tol))

    bundles = list(schedule.certificates(instance.M))
    chi_T = mappings.chi_T_for(family, schedule, instance.M)
    if chi_T is not None:
        bundles.insert(0, rates.general_rates(schedule, instance.M, chi_T))
    else:
        no_gap = "family carries no gap-series certificate; composed rates unavailable"
        sections.append(("rates", "info", no_gap))

    certs: list[rates.CertificationReport] = []
    for bundle in bundles:
        for name, check in bundle.checks(instance, trace, tol):
            add(name, check)
        # (reading, residuals, rate, status); a None status is the report's own
        readings = [("Sigma on d(x_n, x_n+1)", trace.residual_step, bundle.Sigma, None)]
        if bundle.Sigma_T is not None:
            readings.append(("Sigma_T on d(x_n, T_n x_n)", trace.residual_T, bundle.Sigma_T, None))
        if bundle.advisory:
            # Second reading: the step rate applied to the map residual.
            readings.append(
                ("Sigma on d(x_n, T_n x_n) [advisory]", trace.residual_T, bundle.Sigma, "info")
            )
        for reading, residuals, rate_fn, status in readings:
            label = f"{bundle.provenance}/{reading}"
            report = rates.certify_rate(residuals, rate_fn, config.k_max, tol=tol, label=label)
            certs.append(report)
            add(f"certification: {label}", report, status)

    trace.to_csv(out / "trace.csv", include_points=config.record_points)
    rate_rows = (row for bundle in bundles for row in bundle.rows(config.k_max))
    write_csv(out / "rates.csv", ["provenance", "rate", "k", "value"], rate_rows)
    _write_certifications_csv(out / "certification.csv", certs)
    failed = any(status == "fail" for _, status, _ in sections)
    (out / "report.txt").write_text(_report_text(config, sections, failed))
    return int(failed)


def _report_text(config: ExperimentConfig, sections: list, failed: bool) -> str:
    lines = [
        "experiment report",
        f"config: {Path(config.source).name}",
        f"seed: {config.seed}  horizon: {config.horizon}  "
        f"k_max: {config.k_max}  tolerance: {config.tolerance!r}",
        "",
    ]
    for name, status, text in sections:
        lines.append(f"[{status.upper():<12}] {name}")
        lines.extend("    " + ln for ln in text.splitlines())
        lines.append("")
    lines.append(f"overall: {'FAIL' if failed else 'PASS'}")
    return "\n".join(lines) + "\n"


def _out_dir(path: Path) -> Path:
    """``path``, made a directory with its parents, or a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}")
    return path


def _write_certifications_csv(path: Path, certs: list) -> None:
    header = ["label", "k", "rate_k", "threshold", "worst_excess", "empirical_min_index", "status"]
    rows = (
        [
            report.label, r.k, r.rate_index, repr(r.threshold),
            "" if r.worst_excess is None else repr(r.worst_excess),
            r.empirical_min_index, r.status,
        ]
        for report in certs
        for r in report.rows
    )
    write_csv(path, header, rows)


def run_suite(directory, overrides: dict | None = None, out_dir: Path | None = None) -> int:
    """Run every *.json config in a directory; write suite_summary.csv.

    Returns the worst exit code of the configs: 2 for a configuration
    error, over 1 for a failed check or a crash, over 0."""
    directory = Path(directory)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    configs = sorted(directory.glob("*.json"))
    if not configs:
        print(f"error: no *.json configs in {directory}", file=sys.stderr)
        return 2

    out = _out_dir(Path(out_dir) if out_dir is not None else Path("suite_out"))
    rows = []
    worst = 0
    for cfg_path in configs:
        try:
            config = parse_config(cfg_path, overrides)
            code = run_experiment(config, out_dir=out / cfg_path.stem)
            status = "pass" if code == 0 else "fail"
        except (ConfigError, MemoryError) as exc:  # numpy refuses a size before allocating
            print(f"{cfg_path.name}: configuration error: {exc}", file=sys.stderr)
            code, status = 2, "config_error"
        except Exception as exc:  # isolate per-config crashes; the suite continues
            print(f"{cfg_path.name}: error: {exc}", file=sys.stderr)
            code, status = 1, "error"
        rows.append((cfg_path.name, status, code))
        worst = max(worst, code)
        print(f"{cfg_path.name}: {status}")

    write_csv(out / "suite_summary.csv", ["config", "status", "exit_code"], rows)
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
    except (ConfigError, MemoryError) as exc:  # numpy refuses a size before allocating
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
