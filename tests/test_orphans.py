"""No orphaned code in the package.

Every private module-level function, class or constant of
``src/coopverify`` is referenced in ``src/`` outside its own definition,
and every name a module imports from a sibling module is used there, or
read from that module by another one (``engine.DEFAULT_DOMAIN``).  A
deletion that leaves a helper or an import behind fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coopverify"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _names(node) -> list:
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


def _sibling_imports(tree):
    """(bound name, sibling module, imported name) of each ``from .m import
    name`` in ``tree``, and (bound name, m, None) of each ``from . import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    yield bound, alias.name, None
                else:
                    yield bound, node.module, alias.name


def _read_from(module: str, name: str) -> bool:
    """Whether some other module imports ``name`` from ``module`` or reads
    it as an attribute of that module."""
    for other, tree in MODULES.items():
        if other == module:
            continue
        aliases = set()
        for bound, source, imported in _sibling_imports(tree):
            if source == module and imported == name:
                return True
            if imported is None and source == module:
                aliases.add(bound)
        if any(isinstance(n, ast.Attribute) and n.attr == name
               and isinstance(n.value, ast.Name) and n.value.id in aliases
               for n in ast.walk(tree)):
            return True
    return False


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _private_definitions(tree) -> dict:
    """Private (not dunder) module-level name -> the statements defining it."""
    out: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in _names(t)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, []).append(node)
    return out


def test_01_every_private_definition_is_referenced():
    orphans = []
    for module, tree in MODULES.items():
        names = _names(tree)
        for name, definitions in _private_definitions(tree).items():
            inside = sum(_names(d).count(name) for d in definitions)
            if names.count(name) == inside and not _read_from(module, name):
                orphans.append(f"{module}.{name}")
    assert orphans == []


def test_02_every_sibling_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        used = set(_names(tree)) | _exported(tree)
        for bound, _, imported in _sibling_imports(tree):
            if bound not in used and not (imported and _read_from(module, bound)):
                unused.append(f"{module}: {bound}")
    assert unused == []
