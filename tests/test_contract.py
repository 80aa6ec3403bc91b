"""Behaviour contract: the shipped suite writes the same bytes.

``tmann suite configs`` must reproduce the SHA-256 of ``suite_summary.csv``
and of each shipped config's ``rates.csv``, ``certification.csv``,
``trace.csv`` and ``report.txt`` recorded in
``tests/golden/suite_sha256.json``.  A change that alters one of these
artifacts on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_contract.py --write

which prints each artifact whose digest changed, was added or was
removed, and says in CHANGES.md which artifacts changed and why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from tmann.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
MANIFEST = Path(__file__).resolve().parent / "golden" / "suite_sha256.json"
ARTIFACTS = ("rates.csv", "certification.csv", "trace.csv", "report.txt")


def suite_digests(out: Path) -> dict:
    assert main(["suite", str(CONFIG_DIR), "--out", str(out)]) == 0
    names = ["suite_summary.csv"] + [
        f"{config.stem}/{artifact}"
        for config in sorted(CONFIG_DIR.glob("*.json"))
        for artifact in ARTIFACTS
    ]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_suite_artifacts_match_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    assert suite_digests(tmp_path / "suite") == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_contract.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = suite_digests(Path(tmp))
    old = json.loads(MANIFEST.read_text())
    for name in sorted(old.keys() | digests.keys()):
        if name not in digests:
            print(f"removed {name}")
        elif name not in old:
            print(f"added   {name}")
        elif old[name] != digests[name]:
            print(f"changed {name}")
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
