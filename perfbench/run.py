"""The tmann benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
holding this file, and everything written goes under ``perfbench/work/``.

Workloads (horizons and sizes are constants here, never derived from
``tmann.rates`` at run time, so a rate that outgrows its horizon shows as a
drop in ``conclusive_share`` rather than as more work):

* ``shipped-suite``: ``tmann suite configs`` on the shipped configs, the
  behaviour contract, three times in a row per pass.  Fixed per-config
  checks (axiom sampling, modulus oracles) dominate it.
* ``full-certify``: ``tmann run`` on five configs with each horizon one past
  the largest hard rate index at k_max = 3, so every hard row is conclusive.
  The orbit loop dominates it; it is the only workload using ``splitting``.
* ``many-starts``: the library calls of a worst-case search over seeded
  (u, x0) draws near p, at a short fixed horizon.  Many short orbits, the
  Halpern check, no axiom sampling, oracles or CSV output.

The seed picks the many-starts draws and the sampler seed of the CLI runs;
the amount of work does not depend on it.

Every pass runs in fresh processes started one after another, with one
BLAS/OpenMP thread each.  ``--trace 0`` reports, as medians over passes:

    wall_s            wall time of one pass
    setup_s           import tmann and assemble every input, no iterating
    peak_rss_mb       peak resident memory of the largest pass process
    conclusive_share  hard certification rows inside the horizon / all hard rows

``--trace 1`` alternates untraced passes with traced rounds (a traced
set-up process and a traced pass, see ``child.py``) and reports each
layer's self time, its throughput where a count exists, exact work counts,
and the tracing overhead (traced minus untraced pass wall time).

Correctness, in both modes: every process must exit 0, every report.txt
section must not be FAIL, every many-starts check must pass, and the
deterministic artifacts of every pass must be byte-identical to the first
pass's.  ``attempted``/``failed`` count these checks (their ratio is the
``failed_share`` printed above the result); any failure makes ``correct``
false and the exit code 1.  Timings, versions and input hashes are kept in
``perfbench/work/<workload>/timings.json``, apart from the artifacts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK = BENCH / "work"

#: Whole-run budget; a process still running at this point is killed and
#: counted as a failed check.
DEADLINE_S = 170.0
SETUP_REPEATS = 15

FULL_CERTIFY_K_MAX = 3
#: 1 + the largest hard rate index at k = 3 (Sigma_T(3) with M = 1 is 36,768
#: on the example schedule and 73,536 on the linear one).
FULL_CERTIFY = (
    ("euclidean_example_l1", "configs/euclidean_example_l1.json", 36_769),
    ("euclidean_linear_box", "configs/euclidean_linear_box.json", 73_537),
    ("tree_example_contraction", "configs/tree_example_contraction.json", 36_769),
    ("tree_linear_contraction", "configs/tree_linear_contraction.json", 73_537),
    ("forward_backward", None, 36_769),
)
#: The splitting instance of the CLI tests: p is the zero of A + B.
FORWARD_BACKWARD = {
    "space": {"name": "euclidean", "dim": 2, "box_radius": 3.0},
    "family": {
        "name": "forward_backward",
        "A": {"name": "l1", "rho": 1.0},
        "B": {"name": "quadratic", "diag": [0.5, 0.7], "b": [2.0, -3.0]},
    },
    "schedule": {"name": "example", "lambda": 0.5},
    "u": [0.0, -2.0],
    "x0": [0.3, -1.5],
    "p": [0.0, -2.2448979591836737],
    "k_max": FULL_CERTIFY_K_MAX,
    "tolerance": 1e-09,
    "axiom_samples": 2000,
    "family_samples": 300,
    "modulus_horizon": 50000,
    "modulus_k_max": 20,
    "record_points": False,
}

#: A shipped-suite pass runs the suite this many times in a row, and a
#: many-starts pass draws this many starts per pair: passes of about ten
#: seconds average over the tens-of-seconds speed swings of a shared host,
#: which a single 3-second suite run does not.
SUITE_REPEATS = 3
STARTS_PAIRS = ("euclidean_box", "euclidean_l1", "tree_contraction")
STARTS_PER_PAIR = 160
STARTS_RADIUS = 2.0
TREE_RAYS = 3

CERT_ARTIFACTS = ("rates.csv", "certification.csv", "trace.csv")
SECTION = re.compile(r"^\[(\w+)\s*\] ")

SPAN_NAMES = (
    "cli.parse_config",
    "cli.build_problem",
    "geometry.check_w_axioms",
    "mappings.check_nonexpansive",
    "mappings.check_jp2_consequence",
    "sequences.validate_schedule_moduli",
    "iterate.run_tikhonov_mann",
    "iterate.run_modified_halpern",
    "iterate.check_halpern_equivalence",
    "iterate.check_basic_bounds",
    "iterate.check_recursive_inequalities",
    "iterate.ProblemInstance.create",
    "iterate.to_csv",
    "rates.general_rates",
    "rates.certify_rate",
    "rates.check_pointwise_bound",
    "rates.sabach_shtern_check",
)
ORBIT_PAIRS = ("euclidean_box", "euclidean_l1", "euclidean_fb", "tree_contraction", "tree_identity")
#: (metric, count attribute, span whose self time divides it)
THROUGHPUTS = (
    ("geometry.axiom_samples_per_s", "axiom_samples", "geometry.check_w_axioms"),
    ("sequences.oracle_terms_per_s", "oracle_terms", "sequences.validate_schedule_moduli"),
    ("iterate.trace_rows_per_s", "trace_rows", "iterate.to_csv"),
)
COUNTS = (
    ("iterate.orbit_steps", "orbit_steps"),
    ("iterate.trace_rows", "trace_rows"),
    ("geometry.axiom_samples", "axiom_samples"),
    ("sequences.oracle_terms", "oracle_terms"),
    ("rates.cert_rows", "cert_rows"),
)


@dataclass
class Workload:
    """What one pass runs and what it must produce.

    ``invocations`` are (kind, args) pairs, one fresh process each; kind
    ``cli`` is ``tmann ARGS`` and kind ``starts`` the many-starts library
    pass.  ``{out}`` in an argument stands for the pass directory.
    ``reports`` are the pass subdirectories (or the results file) checked
    for statuses, ``artifacts`` the files compared byte for byte.
    """

    invocations: list
    reports: list
    artifacts: list
    setup: dict
    inputs: list


def shipped_suite(seed: int, inputs: Path) -> Workload:
    stems = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))
    configs = [f"configs/{stem}.json" for stem in stems]
    reps = [f"suite-{i}" for i in range(SUITE_REPEATS)]
    return Workload(
        invocations=[
            ("cli", ["suite", "configs", "--seed", str(seed), "--out", f"{{out}}/{rep}"])
            for rep in reps
        ],
        reports=[f"{rep}/{stem}" for rep in reps for stem in stems],
        artifacts=[
            f"{rep}/{name}"
            for rep in reps
            for name in ["suite_summary.csv"] + [f"{s}/{a}" for s in stems for a in CERT_ARTIFACTS]
        ],
        setup={"configs": [{"path": c, "overrides": {"seed": seed}} for c in configs]},
        inputs=configs,
    )


def full_certify(seed: int, inputs: Path) -> Workload:
    invocations, setup, configs = [], [], []
    for name, config, horizon in FULL_CERTIFY:
        if config is None:
            path = inputs / f"{name}.json"
            path.write_text(json.dumps(dict(FORWARD_BACKWARD, horizon=horizon, seed=seed), indent=2))
            config = str(path.relative_to(ROOT))
        overrides = {"horizon": horizon, "k_max": FULL_CERTIFY_K_MAX, "seed": seed}
        invocations.append(
            (
                "cli",
                ["run", config, "--horizon", str(horizon), "--kmax", str(FULL_CERTIFY_K_MAX),
                 "--seed", str(seed), "--out", f"{{out}}/{name}"],
            )
        )
        setup.append({"path": config, "overrides": overrides})
        configs.append(config)
    names = [name for name, _, _ in FULL_CERTIFY]
    return Workload(
        invocations=invocations,
        reports=names,
        artifacts=[f"{n}/{a}" for n in names for a in CERT_ARTIFACTS],
        setup={"configs": setup},
        inputs=configs,
    )


def many_starts(seed: int, inputs: Path) -> Workload:
    """Draw (u, x0) uniformly within STARTS_RADIUS of each pair's p."""
    rng = random.Random(seed)
    draws = []
    for pair in STARTS_PAIRS:
        draw = _tree_point if pair.startswith("tree") else _disc_point
        for _ in range(STARTS_PER_PAIR):
            draws.append({"pair": pair, "u": draw(rng), "x0": draw(rng)})
    path = inputs / "draws.json"
    path.write_text(json.dumps(draws))
    draws_arg = str(path.relative_to(ROOT))
    return Workload(
        invocations=[("starts", [draws_arg, "{out}/results.csv"])],
        reports=["results.csv"],
        artifacts=["results.csv"],
        setup={"draws": draws_arg},
        inputs=[draws_arg],
    )


def _tree_point(rng: random.Random) -> list:
    return [rng.randrange(TREE_RAYS), rng.uniform(0.0, STARTS_RADIUS)]


def _disc_point(rng: random.Random) -> list:
    radius = STARTS_RADIUS * math.sqrt(rng.random())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return [radius * math.cos(angle), radius * math.sin(angle)]


WORKLOADS = {"shipped-suite": shipped_suite, "full-certify": full_certify, "many-starts": many_starts}


# ------------------------------------------------------------------ processes


class Runner:
    """Starts child processes one at a time and measures each from outside."""

    def __init__(self, logs: Path, deadline: float) -> None:
        self.logs = logs
        self.deadline = deadline
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def run(self, cmd: list) -> dict:
        """Run one process to completion: wall seconds, peak RSS, exit code."""
        self.count += 1
        log = self.logs / f"{self.count:03d}.log"
        timeout = self.deadline - time.monotonic()
        killed = []
        if timeout <= 0:
            return {"wall_s": 0.0, "rss_mb": 0.0, "code": -1}
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)

            def kill(signum, frame):
                killed.append(True)
                os.kill(proc.pid, signal.SIGKILL)

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = -1 if killed else proc.returncode
        if code != 0:
            tail = log.read_text(errors="replace").splitlines()[-5:]
            print(f"process failed ({code}): {' '.join(cmd)}", *tail, sep="\n  ", file=sys.stderr)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": code}


def python_cmd(kind: str, args: list, spans: Path | None) -> list:
    if kind == "cli" and spans is None:
        return [sys.executable, "-m", "tmann.cli", *args]
    head = [sys.executable, str(CHILD)] + (["--spans", str(spans)] if spans else [])
    return head + (["cli", "--", *args] if kind == "cli" else ["starts", *args])


# ----------------------------------------------------------------- correctness


class Tally:
    """Checks attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def check_pass(workload: Workload, out: Path, tally: Tally) -> None:
    """Statuses inside one pass's outputs."""
    for report in workload.reports:
        path = out / report
        if path.suffix == ".csv":
            _check_results(path, tally)
        else:
            _check_report(path / "report.txt", tally)


def _check_report(path: Path, tally: Tally) -> None:
    if not path.is_file():
        tally.check(False, f"{path} missing")
        return
    for line in path.read_text().splitlines():
        match = SECTION.match(line)
        if match:
            tally.check(match.group(1) != "FAIL", f"{path}: {line}")


def _check_results(path: Path, tally: Tally) -> None:
    if not path.is_file():
        tally.check(False, f"{path} missing")
        return
    for row in csv.DictReader(path.open()):
        for check in ("bounds", "recursions", "sigma", "sigma_T", "halpern"):
            tally.check(row[check] == "pass", f"{path}: start {row['start']} {check}")


def conclusive_share(workload: Workload, out: Path) -> float:
    conclusive = hard = 0
    for report in workload.reports:
        path = out / report
        if path.suffix == ".csv":
            for row in csv.DictReader(path.open()):
                conclusive += int(row["conclusive_rows"])
                hard += int(row["hard_rows"])
            continue
        cert = path / "certification.csv"
        if cert.is_file():
            for row in csv.DictReader(cert.open()):
                if "[advisory]" not in row["label"]:
                    hard += 1
                    conclusive += row["status"] != "inconclusive"
    return conclusive / hard if hard else 0.0


def digests(workload: Workload, out: Path) -> dict:
    result = {}
    for name in workload.artifacts:
        path = out / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return result


# ------------------------------------------------------------------- metrics


def layer_metrics(setup_spans: Path, pass_spans: list, pass_wall: float) -> dict:
    """Self time per span, throughputs and counts over one traced round."""
    self_s = defaultdict(float)
    counts = defaultdict(int)
    pair_steps = defaultdict(int)
    pair_s = defaultdict(float)
    top_level = 0.0
    for path in [setup_spans, *pass_spans]:
        if not path.is_file():
            continue
        spans = json.loads(path.read_text())["spans"]
        child_ns = [0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, parent, start, end, attrs) in enumerate(spans):
            own = (end - start - child_ns[index]) / 1e9
            self_s[name] += own
            for key, value in attrs.items():
                if key != "pair":
                    counts[key] += value
            if name == "iterate.run_tikhonov_mann":
                pair_steps[attrs["pair"]] += attrs["orbit_steps"]
                pair_s[attrs["pair"]] += own
            if parent < 0 and path != setup_spans:
                top_level += (end - start) / 1e9

    metrics = {f"{name}.s": self_s[name] for name in SPAN_NAMES}
    for pair in ORBIT_PAIRS:
        metrics[f"iterate.steps_per_s.{pair}"] = _rate(pair_steps[pair], pair_s[pair])
    for metric, count, span in THROUGHPUTS:
        metrics[metric] = _rate(counts[count], self_s[span])
    for metric, count in COUNTS:
        metrics[metric] = counts[count]
    metrics["unspanned.s"] = pass_wall - top_level
    return metrics


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------- main


class Bench:
    """One run of one workload: its processes, passes and checks."""

    def __init__(self, workload: Workload, work: Path, deadline: float) -> None:
        self.workload = workload
        self.work = work
        self.runner = Runner(work / "logs", deadline)
        self.tally = Tally()
        self.passes: list[dict] = []
        self.setup_spec = work / "inputs" / "setup.json"
        self.setup_spec.write_text(json.dumps(workload.setup))

    def time_left(self) -> bool:
        return time.monotonic() < self.runner.deadline

    def setup(self, spans: Path | None = None) -> float:
        """Wall seconds of one set-up process."""
        head = [sys.executable, str(CHILD)] + (["--spans", str(spans)] if spans else [])
        result = self.runner.run(head + ["setup", str(self.setup_spec)])
        self.tally.check(result["code"] == 0, "set-up process exit code")
        return result["wall_s"]

    def run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        out = self.work / f"pass-{index}"
        out.mkdir()
        spans, walls, rss = [], [], []
        for number, (kind, cmd_args) in enumerate(self.workload.invocations):
            span_file = self.work / "spans" / f"pass-{index}-{number}.json" if traced else None
            args = [a.replace("{out}", str(out)) for a in cmd_args]
            result = self.runner.run(python_cmd(kind, args, span_file))
            self.tally.check(result["code"] == 0, f"pass {index} process {number} exit code")
            walls.append(result["wall_s"])
            rss.append(result["rss_mb"])
            if span_file:
                spans.append(span_file)
        check_pass(self.workload, out, self.tally)
        record = {
            "traced": traced,
            "wall_s": sum(walls),
            "peak_rss_mb": max(rss),
            "digests": digests(self.workload, out),
            "conclusive_share": conclusive_share(self.workload, out),
            "spans": spans,
        }
        for name, digest in record["digests"].items():
            if self.passes:
                first = self.passes[0]["digests"][name]
                self.tally.check(
                    digest is not None and digest == first, f"pass {index} {name} differs from pass 0"
                )
        self.passes.append(record)
        return record

    def end_to_end(self, seconds: float) -> tuple[dict, list]:
        """Passes, with the set-up processes spread evenly between them so
        that both medians sample the same stretch of a drifting machine."""
        setups = []
        start = time.monotonic()
        while self.time_left() and (len(self.passes) < 2 or time.monotonic() - start < seconds):
            self.run_pass(traced=False)
            due = math.ceil(SETUP_REPEATS * (time.monotonic() - start) / seconds)
            while self.time_left() and len(setups) < min(due, SETUP_REPEATS):
                setups.append(self.setup())
        while self.time_left() and len(setups) < SETUP_REPEATS:
            setups.append(self.setup())
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in self.passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.passes),
            "conclusive_share": statistics.median(p["conclusive_share"] for p in self.passes),
        }
        return metrics, setups

    def per_layer(self, seconds: float) -> dict:
        rounds = []
        start = time.monotonic()
        while self.time_left() and (not rounds or time.monotonic() - start < seconds):
            untraced = self.run_pass(traced=False)
            setup_spans = self.work / "spans" / f"setup-{len(rounds)}.json"
            self.setup(setup_spans)
            traced = self.run_pass(traced=True)
            rounds.append((untraced, layer_metrics(setup_spans, traced["spans"], traced["wall_s"])))
        metrics = {name: statistics.median(r[name] for _, r in rounds) for name in rounds[0][1]}
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in self.passes if p["traced"]
        ) - statistics.median(p["wall_s"] for p in self.passes if not p["traced"])
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tmann benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tmann" / "__init__.py").is_file() or not any(
        (ROOT / "configs").glob("*.json")
    ):
        print(f"error: no tmann checkout around {BENCH} (need src/tmann and configs/)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("inputs", "logs", "spans"):
        (work / sub).mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work / "inputs")
    bench = Bench(workload, work, deadline)
    bench.setup()  # warm-up: bytecode and file caches, as a returning user has them
    setups = []
    if args.trace:
        metrics = bench.per_layer(args.seconds)
    else:
        metrics, setups = bench.end_to_end(args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    (work / "timings.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
                "nproc": os.cpu_count(),
                "input_sha256": {
                    name: hashlib.sha256((ROOT / name).read_bytes()).hexdigest()
                    for name in workload.inputs
                },
                "setup_s": setups,
                "passes": [
                    {k: p[k] for k in ("traced", "wall_s", "peak_rss_mb")} for p in bench.passes
                ],
                "metrics": metrics,
            },
            indent=2,
        )
    )

    tally = bench.tally
    print(f"workload {args.workload}  seed {args.seed}  passes {len(bench.passes)}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_share':<40} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed}/{tally.attempted} checks)")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
