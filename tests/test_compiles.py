"""How much generated source a process compiles, pinned.

The orbit kernel and every one-point form (``mix``, a family's ``fn``,
``prox_point``, ``step_point``) are generated source, compiled with
``exec`` inside ``tmann``.  Importing the CLI compiles none of it; building
a shipped config compiles its kernel and, unless the family is the
identity, the ``fn`` that ``ProblemInstance.create`` calls; a point form
compiles on its first call, once per dim on Euclidean space.  Each count
is taken in a fresh interpreter, with an audit hook counting the ``exec``
calls made from ``tmann`` code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

#: Defines ``compiled()``, the number of ``exec`` calls from ``tmann`` so far.
COUNTER = """\
import json, sys
_calls = []

def _hook(event, args):
    if event == "exec" and sys._getframe(1).f_globals.get("__name__", "").startswith("tmann."):
        _calls.append(event)

sys.addaudithook(_hook)
compiled = lambda: len(_calls)
"""


def counts(script: str) -> list:
    """The JSON list that ``script``, run after ``COUNTER`` in a fresh
    interpreter importing ``tmann`` from this checkout, prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", COUNTER + script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_import_compiles_nothing_and_a_build_its_kernel_and_fn(config):
    after_import, after_build = counts(
        "from tmann import cli\n"
        "imported = compiled()\n"
        f"cli.build_problem(cli.parse_config({str(config)!r}))\n"
        "print(json.dumps([imported, compiled()]))\n"
    )
    family = json.loads(config.read_text())["family"]["name"]
    assert after_import == 0
    assert after_build == (1 if family == "identity" else 2)


def test_point_forms_compile_on_first_call_once_per_dim():
    steps = counts(
        """\
from tmann import geometry, mappings
plane, tree = geometry.EuclideanSpace(2), geometry.StarTreeSpace(3)
box = mappings.box_projection_family([-1.0, -1.0], [1.0, 1.0])
l1, quadratic = mappings.l1_operator(), mappings.quadratic_gradient([1.0, 2.0], [0.0, 1.0])
forms = (plane.mix, tree.mix, box.fn, l1.prox_point, quadratic.step_point)
seen = [compiled()]
assert all(form.fragment is not None for form in forms)
seen.append(compiled())
calls = (
    lambda: plane.mix([0.0, 1.0], [2.0, 3.0], 0.5),
    lambda: geometry.EuclideanSpace(2, box_radius=1.0).mix([1.0, 1.0], [0.0, 0.0], 0.25),
    lambda: plane.mix([0.0], [2.0], 0.5),
    lambda: tree.mix(geometry.TreePoint(1, 1.0), geometry.TreePoint(2, 0.5), 0.5),
    lambda: box.fn(0, [2.0, -2.0]),
    lambda: box.fn(1, [0.5, 0.5]),
    lambda: l1.prox_point(0.5, [1.0, -1.0]),
    lambda: quadratic.step_point(0.5, [1.0, -1.0]),
)
for call in calls:
    call()
    seen.append(compiled())
print(json.dumps(seen))
"""
    )
    # reading .fragment compiles nothing; each first call per dim compiles one
    assert steps == [0, 0, 1, 1, 2, 3, 4, 4, 5, 6]
