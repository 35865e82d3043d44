"""The package's module layering, read from its source with ``ast``.

Every module of ``src/coopverify`` imports only modules earlier in one
order, so no import cycle can form, and a name with a leading underscore
crosses a module boundary only where it is listed here.  The package's
``__init__`` gathers the public names and is exempt.  Nothing of the package
is imported by this test.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "coopverify"

ORDER = ("errors", "predicates", "lang", "automata", "product", "kinds", "engine",
         "actors", "pipeline", "cli")

# (importing module, imported module) -> the underscore names it may import
PRIVATE_IMPORTS = {
    ("actors", "engine"): {"_goal_search", "_property_accepts", "_refusal", "_search",
                           "_uncovered_or_accepted"},
    ("automata", "predicates"): {"_integer"},
    ("cli", "predicates"): {"_integer"},
    ("lang", "predicates"): {"_integer", "_parse_all"},
}


def package_imports(module: str) -> list:
    """(imported package module, names taken from it) for every relative
    import in ``module``'s source, at any depth; a module imported whole
    also gives the attributes read through its name."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    whole = {}  # local name -> package module imported whole
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append((node.module, {alias.name for alias in node.names}))
            else:  # ``from . import actors``
                whole.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert not any(name.split(".")[0] == "coopverify" for name in names), \
                f"{module} imports the package by its absolute name"
    found.extend((target, set()) for target in whole.values())
    found.extend((whole[node.value.id], {node.attr}) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in whole)
    return found


@pytest.mark.parametrize("module", ORDER)
def test_01_modules_import_only_earlier_modules(module):
    earlier = ORDER[:ORDER.index(module)]
    imported = {target for target, _ in package_imports(module)}
    assert imported <= set(earlier), imported - set(earlier)


def test_02_the_order_names_every_module():
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_03_underscore_names_cross_modules_only_where_listed(module):
    private = {}
    for target, names in package_imports(module):
        private.setdefault(target, set()).update(n for n in names if n.startswith("_"))
    private = {target: names for target, names in private.items() if names}
    allowed = {target: names for (importer, target), names in PRIVATE_IMPORTS.items()
               if importer == module}
    assert private == allowed
