"""The benchmark's traced pass still finds the functions it times.

``perfbench/child.py --spans`` wraps public functions of ``tmann`` by name
and reads some of their parameters by name; a rename would break the traced
benchmark without failing anything else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_cli_pass_records_axiom_and_oracle_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), "--spans", str(spans_path),
            "cli", "--", "run", str(ROOT / "configs" / "euclidean_example_l1.json"),
            "--horizon", "50", "--out", str(tmp_path / "out"),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
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
