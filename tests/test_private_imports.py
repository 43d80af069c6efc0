"""No module of the package imports a sibling's private (underscore) name
outside the allow-list below; each entry names why it stays."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semigraded"

ALLOWED = {
    # perfbench/tracing.py wraps both bindings in cochar
    ("cochar", "codim"): {"_product_cache", "_rank_exact"},
    ("verify", "gralgebra"): {"_full_matrix_positions", "_pair_algebra"},
}


def private_imports(package: Path = PACKAGE) -> dict:
    """{(importer, sibling): private names} over the modules of package,
    relative imports and absolute imports of semigraded alike, at any
    depth of the module."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            if node.level == 1:
                sibling = node.module
            elif node.level == 0 and node.module.startswith("semigraded."):
                sibling = node.module.split(".", 1)[1]
            else:
                continue
            names = {a.name for a in node.names if a.name.startswith("_")}
            if names:
                found.setdefault((path.stem, sibling), set()).update(names)
    return found


def test_private_imports_stay_in_the_allow_list():
    found = private_imports()
    outside = {key: names - ALLOWED.get(key, set()) for key, names in found.items()}
    assert {key: names for key, names in outside.items() if names} == {}
    # an entry no module still needs is dropped from the list
    assert {key: names - found.get(key, set()) for key, names in ALLOWED.items()} == \
        {key: set() for key in ALLOWED}


def test_the_guard_sees_private_imports_at_any_depth(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\n"
        "from .b import _x, y\n"
        "from semigraded.c import _z\n"
        "from numpy import _private\n"
        "def f():\n"
        "    from .d import _w\n", encoding="utf-8")
    assert private_imports(tmp_path) == {("a", "b"): {"_x"}, ("a", "c"): {"_z"},
                                         ("a", "d"): {"_w"}}
