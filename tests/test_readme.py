"""The README's library session runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_session_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("certification of rate")
    assert "fail" not in out and "inconclusive" not in out
