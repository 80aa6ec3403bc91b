"""The imports between ``tmann`` modules, pinned.

``checks`` holds the block layer (``BLOCK_ROWS``, ``blocks``) and the two
scans built on it (``worst_row``, ``settle_indices``), so it must import
no other ``tmann`` module; ``sequences`` reads only ``checks``, and
``rates`` takes its blocks from ``checks``, not from ``iterate``.

The graph is read from ``src/tmann/*.py`` with ``ast``: the relative
imports at module level, which run when the module loads, and separately
the deferred ones inside a function body, which run only when it is called.
No import between ``tmann`` modules names a private (underscored) name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tmann"

#: Module -> the ``tmann`` modules it imports when it loads.
MODULE_IMPORTS = {
    "__init__": set(),
    "checks": set(),
    "geometry": {"checks"},
    "sequences": {"checks"},
    "mappings": {"checks", "geometry", "sequences"},
    "iterate": {"checks", "geometry", "mappings", "sequences"},
    "rates": {"checks", "sequences"},
    "cli": {"checks", "geometry", "iterate", "mappings", "rates", "sequences"},
}

#: Module -> the ``tmann`` modules a function body imports when called:
#: the builtin schedules build their certificates from ``rates``, which
#: imports ``sequences`` when it loads.
DEFERRED_IMPORTS = {"sequences": {"rates"}}


def imported_modules(node: ast.ImportFrom) -> set[str]:
    """The ``tmann`` modules a relative import names: ``from .x import a``
    gives x, ``from . import x, y`` gives x and y."""
    if node.level != 1:
        return set()
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def import_graph() -> tuple[dict, dict]:
    """(module-level imports, deferred imports) of every ``tmann`` module."""
    at_load, deferred = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                graph = at_load if id(node) in top else deferred
                graph.setdefault(path.stem, set()).update(imported_modules(node))
        at_load.setdefault(path.stem, set())
    return at_load, {module: found for module, found in deferred.items() if found}


def test_module_level_imports_are_pinned():
    assert import_graph()[0] == MODULE_IMPORTS


def test_deferred_imports_are_pinned():
    assert import_graph()[1] == DEFERRED_IMPORTS


def test_the_block_layer_sits_below_every_module():
    at_load, deferred = import_graph()
    assert at_load["checks"] == set() and "checks" not in deferred
    assert at_load["sequences"] == {"checks"}
    assert "iterate" not in at_load["rates"] | deferred.get("rates", set())


def test_no_private_name_is_imported_from_another_module():
    private = [
        f"{path.stem}: from .{node.module or ''} import {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
