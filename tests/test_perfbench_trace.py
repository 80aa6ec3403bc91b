"""The benchmark's passes still find the functions and fields they use.

``perfbench/child.py --spans`` wraps public functions of ``tmann`` by name
and reads some of their parameters by name, and its many-starts pass reads
fields of the check records; a rename would break the benchmark without
failing anything else.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_child(*args):
    """``perfbench/child.py ARGS`` in a fresh interpreter that imports
    ``tmann`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_traced_cli_pass_records_axiom_and_oracle_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = run_child(
        "--spans", spans_path, "cli", "--", "run", ROOT / "configs" / "euclidean_example_l1.json",
        "--horizon", "50", "--out", tmp_path / "out",
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    attrs = {}
    for name, _parent, start, end, counts in spans:
        assert end >= start
        attrs.setdefault(name, []).append(counts)
    assert attrs["geometry.check_w_axioms"] == [{"axiom_samples": 2000}]
    # horizon 50,000 + 2 terms each of beta, lambda and gamma
    assert attrs["sequences.validate_schedule_moduli"] == [{"oracle_terms": 3 * 50_002}]
    assert {"mappings.check_nonexpansive", "iterate.run_tikhonov_mann"} <= set(attrs)


DRAWS = [
    {"pair": "euclidean_box", "u": [0.5, -1.5], "x0": [1.2, 0.3]},
    {"pair": "euclidean_l1", "u": [-0.4, 0.9], "x0": [1.1, -1.0]},
    {"pair": "tree_contraction", "u": [1, 1.5], "x0": [2, 0.7]},
]


def write_draws(tmp_path) -> Path:
    draws_path = tmp_path / "draws.json"
    draws_path.write_text(json.dumps(DRAWS))
    return draws_path


def test_traced_many_starts_pass_records_orbit_and_halpern_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    out = tmp_path / "results.csv"
    proc = run_child("--spans", spans_path, "starts", write_draws(tmp_path), out)
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans_path.read_text())["spans"]]
    assert names.count("iterate.run_tikhonov_mann") == len(DRAWS)
    assert names.count("iterate.check_halpern_equivalence") == len(DRAWS)


def test_many_starts_pass_checks_every_start(tmp_path):
    out = tmp_path / "results.csv"
    proc = run_child("starts", write_draws(tmp_path), out)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pair"] for row in rows] == [draw["pair"] for draw in DRAWS]
    statuses = ("bounds", "recursions", "sigma", "sigma_T", "halpern")
    assert all(row[column] == "pass" for row in rows for column in statuses)
    # the worst excesses of the bound and recursion rows parse as finite floats
    for row in rows:
        for column in ("worst_bound_excess", "worst_recursion_excess"):
            value = float(row[column])
            assert math.isfinite(value) and value <= 1e-9, (column, value)
