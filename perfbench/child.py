"""One benchmark process: set-up, a library pass, or a traced CLI pass.

``run.py`` starts this file in a fresh interpreter for every timed or traced
unit of work, so each unit pays the import cost a user pays:

    child.py setup SPEC.json          import tmann and assemble every input
    child.py starts DRAWS.json OUT    the many-starts library pass
    child.py cli -- ARGS...           ``tmann ARGS...`` in this process

With ``--spans FILE`` the process first swaps the public functions of the
``tmann`` modules for timing shims (defined below, nothing in ``src/`` is
edited) and writes every recorded span to FILE when the work ends.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from tmann import cli, geometry, iterate, mappings, rates, sequences

#: many-starts constants: one short horizon, the schedule, and the levels
#: certified.  At M <= 2 (draws lie within distance 2 of p) the largest
#: linear_theorem index certified is Sigma_T(3) = 10*2*2*4 - 2 = 158 < 200,
#: so every row is conclusive.
STARTS_HORIZON = 200
STARTS_LAMBDA = 0.5
STARTS_K_MAX = 3
STARTS_TOL = 1e-9


# --------------------------------------------------------------------- spans


class SpanRecorder:
    """Collects spans (name, parent, start, end, counts) in memory.

    Each shim pushes its span on a stack, so a span started while another
    is open records that one as its parent; self time is derived later.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        signature = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            attrs = {}
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = counts(bound.arguments)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, parent, time.perf_counter_ns(), 0, attrs]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self.stack.pop()

        return shim

    def install(self) -> None:
        """Patch every traced function where callers look it up."""
        for module, attr, counts in (
            (cli, "parse_config", None),
            (cli, "build_problem", None),
            (geometry, "check_w_axioms", lambda a: {"axiom_samples": a["samples"]}),
            (mappings, "check_nonexpansive", None),
            (mappings, "check_jp2_consequence", None),
            (sequences, "validate_schedule_moduli", _oracle_terms),
            (iterate, "run_tikhonov_mann", _orbit_counts),
            (iterate, "run_modified_halpern", _orbit_counts),
            (iterate, "check_halpern_equivalence", None),
            (iterate, "check_basic_bounds", None),
            (iterate, "check_recursive_inequalities", None),
            (rates, "general_rates", None),
            (rates, "certify_rate", lambda a: {"cert_rows": a["k_max"] + 1}),
            (rates, "check_pointwise_bound", None),
            (rates, "sabach_shtern_check", None),
        ):
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            setattr(module, attr, self.wrap(name, getattr(module, attr), counts))

        create = self.wrap(
            "iterate.ProblemInstance.create", iterate.ProblemInstance.create.__func__
        )
        iterate.ProblemInstance.create = classmethod(create)
        iterate.IterationTrace.to_csv = self.wrap(
            "iterate.to_csv",
            iterate.IterationTrace.to_csv,
            lambda a: {"trace_rows": a["self"].horizon},
        )

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}))


def _oracle_terms(args) -> dict:
    """Schedule terms fed to the modulus oracles: horizon + 2 each of beta,
    lambda and, when the schedule has one, gamma."""
    sequences_checked = 3 if args["schedule"].has_gamma else 2
    return {"oracle_terms": (args["horizon"] + 2) * sequences_checked}


def _orbit_counts(args) -> dict:
    return {"orbit_steps": args["horizon"], "pair": pair_name(args["instance"])}


def pair_name(instance) -> str:
    """The space x family label the per-pair orbit throughput is keyed by."""
    space = "tree" if isinstance(instance.space, geometry.StarTreeSpace) else "euclidean"
    family = instance.family.name
    for prefix, label in (
        ("box_projection", "box"),
        ("resolvent_l1", "l1"),
        ("fb[", "fb"),
        ("tree_contraction", "contraction"),
        ("identity", "identity"),
    ):
        if family.startswith(prefix):
            return f"{space}_{label}"
    return f"{space}_{family}"


# ---------------------------------------------------------------- many-starts


def starts_problems(draws_path):
    """Yield (pair, space, family, schedule, u, x0, p) for every drawn start."""
    schedule = sequences.builtin_linear_schedule(STARTS_LAMBDA)
    plane = geometry.EuclideanSpace(dim=2, box_radius=3.0)
    tree = geometry.StarTreeSpace(num_rays=3, max_radius=3.0)
    origin = np.zeros(2)
    pairs = {
        "euclidean_box": (
            plane,
            mappings.box_projection_family([-1.0, -1.0], [1.0, 1.0]),
            origin,
        ),
        "euclidean_l1": (plane, mappings.resolvent_l1_family(schedule.gamma, dim=2), origin),
        "tree_contraction": (
            tree,
            mappings.tree_contraction_family(0.5),
            geometry.TreePoint(0, 0.0),
        ),
    }
    for draw in json.loads(Path(draws_path).read_text()):
        space, family, p = pairs[draw["pair"]]
        if space is tree:
            u, x0 = (geometry.TreePoint(ray, t) for ray, t in (draw["u"], draw["x0"]))
        else:
            u, x0 = np.array(draw["u"]), np.array(draw["x0"])
        yield draw["pair"], space, family, schedule, u, x0, p


def run_starts(draws_path, out_path) -> int:
    """The library calls of a worst-case search, once per drawn start.

    Writes one CSV row per start with every check's outcome and worst
    value; the file is deterministic for fixed draws.
    """
    with open(out_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "start", "pair", "M", "bounds", "recursions", "sigma", "sigma_T",
                "halpern", "conclusive_rows", "hard_rows", "worst_bound_excess",
                "worst_recursion_excess", "halpern_gap",
            ]
        )
        for index, (pair, space, family, schedule, u, x0, p) in enumerate(
            starts_problems(draws_path)
        ):
            instance = iterate.ProblemInstance.create(
                space=space, family=family, schedule=schedule, u=u, x0=x0, p=p
            )
            trace = iterate.run_tikhonov_mann(instance, STARTS_HORIZON)
            bounds = iterate.check_basic_bounds(instance, trace, tol=STARTS_TOL)
            recursions = iterate.check_recursive_inequalities(instance, trace, tol=STARTS_TOL)
            linear = rates.linear_rates(instance.M, schedule.lam(0))
            certs = [
                rates.certify_rate(residuals, rate, STARTS_K_MAX, tol=STARTS_TOL, label=label)
                for label, residuals, rate in (
                    ("linear_theorem/Sigma", trace.residual_step, linear.rate_step),
                    ("linear_theorem/Sigma_T", trace.residual_T, linear.rate_T),
                )
            ]
            halpern = iterate.check_halpern_equivalence(instance, STARTS_HORIZON, tol=STARTS_TOL)
            rows = [row for cert in certs for row in cert.rows]
            writer.writerow(
                [
                    index, pair, instance.M,
                    _status(bounds.passed), _status(recursions.passed),
                    _status(certs[0].acceptable), _status(certs[1].acceptable),
                    _status(halpern.passed),
                    sum(row.status != "inconclusive" for row in rows), len(rows),
                    repr(max(c.excess() for c in bounds.checks)),
                    repr(max(c.worst_excess for c in recursions.checks)),
                    repr(max(halpern.max_u_y, halpern.max_x_v)),
                ]
            )
    return 0


def _status(passed: bool) -> str:
    return "pass" if passed else "fail"


# --------------------------------------------------------------------- setup


def run_setup(spec_path) -> int:
    """Assemble every input of a workload without iterating."""
    spec = json.loads(Path(spec_path).read_text())
    for entry in spec.get("configs", []):
        config = cli.parse_config(entry["path"], entry["overrides"])
        cli.build_problem(config)
    if "draws" in spec:
        for _, space, family, schedule, u, x0, p in starts_problems(spec["draws"]):
            iterate.ProblemInstance.create(
                space=space, family=family, schedule=schedule, u=u, x0=x0, p=p
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="trace, and write the spans to this JSON file")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup").add_argument("spec")
    starts = sub.add_parser("starts")
    starts.add_argument("draws")
    starts.add_argument("out")
    sub.add_parser("cli").add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    recorder = SpanRecorder()
    if args.spans:
        recorder.install()
    try:
        if args.mode == "setup":
            return run_setup(args.spec)
        if args.mode == "starts":
            return run_starts(args.draws, args.out)
        cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
        return cli.main(cli_args)
    finally:
        if args.spans:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
