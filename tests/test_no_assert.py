"""No module of the package checks anything with an ``assert`` statement.

``python -O`` strips every ``assert``, so a certificate check written as
one would vanish there while the suite, run without ``-O``, still passes.
The package raises instead; CI also runs the whole suite under
``python -O``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "extenders"


def test_no_package_module_uses_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/extenders: {found}"


def test_the_scan_sees_an_assert():
    assert any(isinstance(node, ast.Assert)
               for node in ast.walk(ast.parse("def f(x):\n    assert x\n")))
