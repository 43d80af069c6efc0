"""Every top-level function or class of the package, and every method
not named like a dunder, is referenced from the package itself, from
scripts/ or from perfbench's non-test modules, outside its own
definition: library code that only tests reach moves into tests/.
Click commands, and the methods of a class built on one of Click's,
are exempt: Click reaches them.  A function or class counts as
referenced by a name, an attribute or an imported name, a method by an
attribute only; the dotted parts of perfbench's string constants count
as attributes, since perfbench probes its functions by name.  Each entry
of the allow-list below names why it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semigraded"

ALLOWED = {
    # perfbench/test_tracing.py calls it through the rref probe
    "linalg.matrix_rank": "perfbench's tracing test",
    # kept for the support probe of the discrete witness region (ROADMAP item 10)
    "asympt.omega_n_membership": "the support probe",
    "asympt.witness_domain_polytope": "the support probe",
    "asympt.multiplicity_support_polytope": "the support probe",
    "asympt.Polytope.inflated": "the support probe",
}


def _callers(root: Path) -> list:
    """The files whose references count: the package, scripts/ and
    perfbench's modules other than its tests."""
    return (sorted((root / "src" / "semigraded").glob("*.py"))
            + sorted((root / "scripts").glob("*.py"))
            + sorted(p for p in (root / "perfbench").glob("*.py")
                     if not p.name.startswith("test_")))


def _is_command(node) -> bool:
    """A function decorated by a Click command or group decorator."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name in ("command", "group"):
            return True
    return False


def _extends_click(node) -> bool:
    """A class with a base taken from click, whose methods Click calls."""
    return any(isinstance(b, ast.Attribute) and getattr(b.value, "id", "") == "click"
               for b in node.bases)


def definitions(package: Path) -> dict:
    """{"module.name" or "module.Class.method": (path, first line, last
    line)} of the top-level functions and classes and their methods."""
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_command(node):
                continue
            found[f"{path.stem}.{node.name}"] = (path, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef) and not _extends_click(node):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        found[f"{path.stem}.{node.name}.{item.name}"] = \
                            (path, item.lineno, item.end_lineno)
    return found


def references(paths) -> list:
    """(identifier, is an attribute, path, line) of every name, attribute
    and imported name in the files, and of every dotted part of a string
    constant in perfbench's."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names, attribute = [node.id], False
            elif isinstance(node, ast.Attribute):
                names, attribute = [node.attr], True
            elif isinstance(node, ast.alias):
                names, attribute = [node.name.rsplit(".", 1)[-1]], False
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path.parent.name == "perfbench"):
                names, attribute = [p for p in node.value.split(".") if p.isidentifier()], True
            else:
                continue
            out += [(name, attribute, path, node.lineno) for name in names]
    return out


def unreached(root: Path = ROOT) -> set:
    refs = references(_callers(root))
    missing = set()
    for qualified, (path, first, last) in definitions(root / "src" / "semigraded").items():
        name, method = qualified.rsplit(".", 1)[-1], qualified.count(".") == 2
        if not any(n == name and (attribute or not method)
                   and not (p == path and first <= line <= last)
                   for n, attribute, p, line in refs):
            missing.add(qualified)
    return missing


def test_every_name_in_src_has_a_caller_outside_the_tests():
    missing = unreached()
    assert missing - set(ALLOWED) == set()
    # an entry that a caller reaches again is dropped from the list
    assert set(ALLOWED) - missing == set()


def test_the_guard_sees_unreached_names_and_skips_commands(tmp_path):
    package = tmp_path / "src" / "semigraded"
    package.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "a.py").write_text(
        "import click\n"
        "def used():\n"
        "    lonely = 'lonely'\n"
        "    return Box().size()\n"
        "def only_itself():\n"
        "    return only_itself()\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def lonely(self):\n"
        "        return self.lonely\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "@click.command()\n"
        "def cmd():\n"
        "    pass\n"
        "def probed():\n"
        "    pass\n"
        "class Group(click.Group):\n"
        "    def invoke(self, ctx):\n"
        "        pass\n", encoding="utf-8")
    (tmp_path / "scripts" / "s.py").write_text("from semigraded.a import used\n",
                                                encoding="utf-8")
    (tmp_path / "perfbench" / "p.py").write_text("PROBE = 'a.probed'\n", encoding="utf-8")
    (tmp_path / "perfbench" / "test_p.py").write_text("from a import Box\n", encoding="utf-8")
    assert unreached(tmp_path) == {"a.only_itself", "a.Box.lonely", "a.Group"}
