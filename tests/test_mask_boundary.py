"""Only ``complexes.py`` makes a mask codec.

Every other module of the package reads a complex's or family's cached
mask view, or a copy of its codec, so no face set is encoded twice.  The
check is static: a call of ``_MaskCodec`` by name or as an attribute, in
any module of ``src/extenders`` but ``complexes.py``, fails it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "extenders"


def _codec_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_MaskCodec":
                yield f"{path.name}:{node.lineno}"


def test_only_complexes_makes_a_mask_codec():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "complexes.py" in modules
    calls = [where for path in modules if path.name != "complexes.py"
             for where in _codec_calls(path)]
    assert not calls, f"_MaskCodec called outside complexes.py: {calls}"
