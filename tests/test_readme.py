"""The README's library session runs as written, and its config schema
names every kind the CLI reads and no other."""

import re
from pathlib import Path

from tmann import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_session_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("certification of rate")
    assert "fail" not in out and "inconclusive" not in out


def test_readme_config_schema_names_every_kind():
    schema = re.search(r"### Config schema\n\n```jsonc\n(.*?)```", README.read_text(), re.DOTALL)
    tables = (cli.SPACES, cli.SCHEDULES, cli.FAMILIES, cli.MONOTONE_OPS, cli.COCOERCIVE_OPS)
    kinds = {name for table in tables for name in table}
    missing = sorted(name for name in kinds if f'"{name}"' not in schema.group(1))
    assert not missing, missing
    unknown = sorted(set(re.findall(r'"name": "(\w+)"', schema.group(1))) - kinds)
    assert not unknown, unknown
