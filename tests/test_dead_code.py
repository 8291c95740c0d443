"""Every function, method and class of the package has a caller outside the
test suite.

A definition counts as used when its name is referenced in ``src/``,
``scripts/`` or ``bench/`` outside its own body: a module-level function or
class as a name, an attribute or an imported name, a method as an
attribute only, so a local variable that shares a method's name does not
count; nor does ``mod.name`` when ``mod`` is a module of ``bench/`` or
``scripts/`` that defines a ``name`` of its own, such as an oracle that
re-implements a library check.  Uses in ``tests/`` do not count: code that
only the tests call is dead.  The package's ``__init__.py`` only
re-exports names, so its imports are not uses.  Dunder methods are called
by the language and are not checked.

Nor does a module of the package import a name that it never references,
``from __future__`` aside; ``__init__.py`` is exempt, as its imports are
its re-exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extenders"
REEXPORTS = PACKAGE / "__init__.py"
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for folder in ("src", "scripts", "bench")
         for path in sorted((ROOT / folder).rglob("*.py"))}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_names(tree):
    """The names a module defines or assigns at its top level."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


# The modules of bench/ and scripts/, by the name they are imported under.
LOCAL_MODULES = {path.stem: set(_own_names(tree)) for path, tree in TREES.items()
                 if path.parent.name in ("bench", "scripts")}

# The library API for checking a partitioning the caller brings; the
# constructions verify their own certificates without these entry points.
ALLOWED = {
    # Reads the h-vector off a partitioning by counting bottoms by size.
    "h_from_partitioning",
    # The paper's layer condition on a nonpure complex's partitioning.
    "is_layer_compatible",
    # The paper's h-compatibility condition on a nonpure partitioning.
    "is_h_compatible",
}


def _references(node, enclosing=()):
    """(name, whether it is an attribute) for every reference under
    ``node``, except inside a definition of the same name."""
    if isinstance(node, DEFINITIONS):
        enclosing += (node.name,)
    if isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id, False
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing and not (
            isinstance(node.value, ast.Name)
            and node.attr in LOCAL_MODULES.get(node.value.id, ())):
        yield node.attr, True
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield from ((alias.name.rsplit(".", 1)[-1], False) for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def _package_definitions():
    """(where, name, whether it is a method) for every definition."""
    for path, tree in TREES.items():
        if path.parent == PACKAGE:
            methods = {id(member) for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef) for member in node.body}
            for node in ast.walk(tree):
                if isinstance(node, DEFINITIONS) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    yield (f"{path.name}:{node.lineno} {node.name}", node.name,
                           id(node) in methods)


def test_every_package_definition_is_referenced():
    references = {ref for path, tree in TREES.items() if path != REEXPORTS
                  for ref in _references(tree)}
    definitions = list(_package_definitions())
    unused = [where for where, name, method in definitions
              if name not in ALLOWED and (name, True) not in references
              and (method or (name, False) not in references)]
    assert not unused, f"defined but never used outside tests/: {unused}"
    assert ALLOWED <= {name for _, name, _ in definitions}


def _unused_imports(tree):
    """The names a module imports and never references, ``__future__``
    imports aside."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_package_module_imports_a_name_it_never_uses():
    unused = [f"{path.name}: {name}" for path, tree in TREES.items()
              if path.parent == PACKAGE and path != REEXPORTS
              for name in _unused_imports(tree)]
    assert not unused, f"imported but never used: {unused}"
