"""Every public function, class and method of ``tmann`` has a caller in
``src/``, or an entry below that says why it has none.

The check reads ``src/tmann/*.py`` with ``ast``.  A function or class
counts as called when some ``ast.Name`` or ``ast.Attribute`` anywhere in
``src/`` carries its name, or a ``from`` import names it.  A name that some
function in ``src/`` binds as a parameter, such as ``psi0``, is read as that
parameter wherever it appears bare, so it counts as called only where a
module imports it or reads it as an attribute.  A method is only ever
called as an attribute, so it counts as called only when an
``ast.Attribute`` carries its name: a local variable of the same name, such
as ``dist``, does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tmann"

#: Public names with no caller in ``src/``, and why each is kept.
NO_CALLER = {
    "check_halpern_equivalence": "reads the defects of the replayed Halpern trace, so it catches "
    "an `fn_array` or `combine_array` that disagrees with `fn` or `mix`; tests and the "
    "benchmark's many-starts pass call it",
    "psi0": "the least valid reciprocal product bound; tests call it, and the CLI is to build its "
    "`general_theorem` certificate from it",
    "halpern_translated_bundle": "planned for certifying the Halpern trace in `tmann run`",
    "BoundCheck.excess": "read only by the benchmark's many-starts pass",
}


def public_definitions() -> dict[str, str]:
    """Public top-level functions and classes, and the public methods of
    top-level classes (as Class.method), each with its module's name."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.stem
    return found


def called_definitions() -> set[str]:
    """The names of the public definitions that ``src/`` calls, by the rule
    of the module docstring."""
    names, attributes, imported, parameters = set(), set(), set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.arg):
                parameters.add(node.arg)
    bare = (names - parameters) | imported
    called = set()
    for name in public_definitions():
        cls, _, method = name.rpartition(".")
        if method in attributes or (not cls and method in bare):
            called.add(name)
    return called


def test_every_public_definition_has_a_caller_or_a_reason():
    called = called_definitions()
    uncalled = {
        f"{module}.{name}"
        for name, module in public_definitions().items()
        if name not in called and name not in NO_CALLER
    }
    assert not uncalled, f"no caller in src/ and no entry in NO_CALLER: {sorted(uncalled)}"


def test_every_allowlist_entry_names_an_uncalled_definition():
    definitions, called = public_definitions(), called_definitions()
    stale = {name for name in NO_CALLER if name not in definitions or name in called}
    assert not stale, f"NO_CALLER entries that are gone or now called: {sorted(stale)}"
