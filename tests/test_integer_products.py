"""The package forms its products on integer rows: structure.py builds no
Fraction, directly, through linalg's fraction_row or frac, or under an
imported alias, and no module calls a .multiply( or .mul_basis( method
(the Fraction product and basis lookup that tests/fraction_oracles.py
keeps) or names _poly_divmod (the Fraction polynomial division that
rational_roots no longer needs)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semigraded"

FRACTION_BUILDERS = {"Fraction", "fraction_row", "frac"}
FRACTION_PRODUCTS = {"multiply", "mul_basis"}


def fraction_uses(package: Path = PACKAGE) -> set:
    """(module, name, line) of every call or import of a Fraction builder
    in structure.py, every import of the fractions module there, every
    .multiply( or .mul_basis( call and every _poly_divmod in the package."""
    found = set()
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in FRACTION_PRODUCTS:
                    found.add((module, func.attr, node.lineno))
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if module == "structure" and name in FRACTION_BUILDERS:
                    found.add((module, name, node.lineno))
            elif module == "structure" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.rsplit(".", 1)[-1] for a in node.names}
                if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                    names.add("fractions")
                for name in sorted(names & (FRACTION_BUILDERS | {"fractions"})):
                    found.add((module, name, node.lineno))
            for name in ("id", "attr", "name"):
                if getattr(node, name, None) == "_poly_divmod":
                    found.add((module, "_poly_divmod", getattr(node, "lineno", 0)))
    return found


def test_the_package_forms_no_fraction_product():
    assert fraction_uses() == set()


def test_the_guard_sees_fraction_products_and_builders(tmp_path):
    (tmp_path / "structure.py").write_text(
        "from fractions import Fraction as F\n"
        "from .linalg import fraction_row\n"
        "def f(alg, u):\n"
        "    return alg.multiply(u, u), F(1), fraction_row(u, 2), linalg.frac(3)\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "from fractions import Fraction\n"
        "def _poly_divmod(a, b):\n"
        "    return a\n"
        "def g(alg):\n"
        "    return alg.mul_basis(0, 1), Fraction(1), multiply(alg, 1, 2)\n",
        encoding="utf-8")
    assert fraction_uses(tmp_path) == {
        ("structure", "fractions", 1), ("structure", "Fraction", 1),
        ("structure", "fraction_row", 2), ("structure", "multiply", 4),
        ("structure", "fraction_row", 4), ("structure", "frac", 4),
        ("other", "_poly_divmod", 2), ("other", "mul_basis", 5),
    }
