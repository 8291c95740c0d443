"""Only ``complexes.py`` makes a mask codec or a facet-size map or orders
masks, and the closure, the searches, the shelling steps, the link walk
and the gadget recursion walk no frozensets of their own.

Every other module of the package reads a complex's or family's cached
mask view, or a copy of its codec, so no face set is encoded twice.  The
checks are static: a call of ``_MaskCodec`` by name or as an attribute, in
any module of ``src/extenders`` but ``complexes.py``, fails the first; a
call of ``_facet_sizes`` anywhere but the one in ``complexes.py``, the
mask view's cached map, fails the second, so each face set builds its
facet-size map once; a use of ``subsets_of`` in ``complexes.py``,
``partitions.py``, ``homology.py`` or ``construct.py``, of
``combinations`` in ``complexes.py``, or of ``face_key`` in
``partitions.py``, ``homology.py`` or ``construct.py``, called or passed
as a sort key, fails the third; a call of ``bin`` outside
``complexes.py``, whose ``_face_order`` and ``_label_key`` read face
orders off masks, fails the fourth, so the order has one home.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "extenders"

# The frozenset walks that each module's algorithms read off the view instead.
VIEW_READERS = {"complexes.py": {"subsets_of", "combinations"},
                "partitions.py": {"subsets_of", "face_key"},
                "homology.py": {"subsets_of", "face_key"},
                "construct.py": {"subsets_of", "face_key"}}


def _name_uses(path, names, calls_only=False):
    """``file:line`` of every reference to one of ``names``, by name or as
    an attribute; only the called ones when ``calls_only``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if calls_only:
            if not isinstance(node, ast.Call):
                continue
            node = node.func
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in names:
            yield f"{path.name}:{node.lineno}"


def test_only_complexes_makes_a_mask_codec():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "complexes.py" in modules
    calls = [where for path in modules if path.name != "complexes.py"
             for where in _name_uses(path, {"_MaskCodec"}, calls_only=True)]
    assert not calls, f"_MaskCodec called outside complexes.py: {calls}"


def test_only_the_mask_view_builds_a_facet_size_map():
    calls = [where for path in sorted(PACKAGE.glob("*.py"))
             for where in _name_uses(path, {"_facet_sizes"}, calls_only=True)]
    assert len(calls) == 1 and calls[0].startswith("complexes.py:"), (
        f"_facet_sizes called outside the mask view's cached map: {calls}")


def test_searches_and_link_walk_read_faces_off_the_view():
    uses = [where for module, names in VIEW_READERS.items()
            for where in _name_uses(PACKAGE / module, names)]
    assert not uses, f"frozenset walks beside the mask view: {uses}"


def test_only_complexes_reads_an_order_off_bits():
    calls = [where for path in sorted(PACKAGE.glob("*.py")) if path.name != "complexes.py"
             for where in _name_uses(path, {"bin"}, calls_only=True)]
    assert not calls, f"bin called outside complexes.py: {calls}"
