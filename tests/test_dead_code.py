"""Every function, method and class of the package is used somewhere.

A definition counts as used when its name is referenced (as a name, an
attribute or an imported name) in ``src/``, ``tests/`` or ``scripts/``
outside its own body.  The package's ``__init__.py`` only re-exports names,
so its imports are not uses.  Dunder methods are called by the language and
are not checked.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extenders"
REEXPORTS = PACKAGE / "__init__.py"
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for folder in ("src", "tests", "scripts")
         for path in sorted((ROOT / folder).rglob("*.py"))}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, enclosing=()):
    """Names referenced under ``node``, except inside a definition of the
    same name."""
    if isinstance(node, DEFINITIONS):
        enclosing += (node.name,)
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        name = None
    if name is not None and name not in enclosing:
        yield name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def _package_definitions():
    for path, tree in TREES.items():
        if path.parent == PACKAGE:
            for node in ast.walk(tree):
                if isinstance(node, DEFINITIONS) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno} {node.name}", node.name


def test_every_package_definition_is_referenced():
    used = {name for path, tree in TREES.items() if path != REEXPORTS
            for name in _references(tree)}
    unused = [where for where, name in _package_definitions() if name not in used]
    assert not unused, f"defined but never referenced: {unused}"
