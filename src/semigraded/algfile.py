"""Plain-text definition files for graded algebras.

One document per algebra:

    name: demo
    semigroup: T3                  # catalog tag, or inline via the two keys
    # semigroup-labels: e1 e2
    # semigroup-table: e1 e2 / e1 e2
    basis: a b c
    degree: a e1
    degree: b e2
    structure: 1 2 3 1/2           # basis_1 * basis_2 has coefficient 1/2 at basis_3
    unit: 1 0 0                    # optional, one coefficient per basis label

Indices in structure lines are 1-based.  Omitted products are zero.
Files that fail validation (associativity, grading law, declared unit)
are rejected.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParam
from .gralgebra import GradedAlgebra, validate_or_raise
from .semigroup import catalog_semigroup, make_semigroup


def parse_algebra(text: str) -> GradedAlgebra:
    fields = {"degree": [], "structure": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise BadParam(f"line {lineno}: expected 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        if key in ("degree", "structure"):
            fields[key].append((lineno, value))
        elif key in fields:
            raise BadParam(f"line {lineno}: duplicate key {key!r}")
        else:
            fields[key] = (lineno, value)
    for required in ("name", "semigroup", "basis"):
        if required not in fields:
            raise BadParam(f"missing required key {required!r}")

    semigroup_value = fields["semigroup"][1]
    if semigroup_value == "inline":
        if "semigroup-labels" not in fields or "semigroup-table" not in fields:
            raise BadParam("inline semigroup needs semigroup-labels and semigroup-table")
        labels = tuple(fields["semigroup-labels"][1].split())
        lineno, value = fields["semigroup-table"]
        table = []
        for row in value.split("/"):
            entries = row.split()
            if len(entries) != len(labels):
                raise BadParam("semigroup-table row length disagrees with the labels")
            unknown = [e for e in entries if e not in labels]
            if unknown:
                raise BadParam(f"line {lineno}: unknown semigroup label {unknown[0]!r}")
            table.append(tuple(labels.index(e) for e in entries))
        semigroup = make_semigroup(labels, table)
    else:
        semigroup = catalog_semigroup(semigroup_value)

    basis_labels = tuple(fields["basis"][1].split())
    dim = len(basis_labels)
    if dim == 0:
        raise BadParam("basis must not be empty")
    if len(set(basis_labels)) != dim:
        raise BadParam("basis labels must be distinct")
    label_pos = {l: i for i, l in enumerate(basis_labels)}

    degree = [None] * dim
    for lineno, value in fields["degree"]:
        parts = value.split()
        if len(parts) != 2:
            raise BadParam(f"line {lineno}: degree lines are 'basis_label semigroup_label'")
        blabel, slabel = parts
        if blabel not in label_pos:
            raise BadParam(f"line {lineno}: unknown basis label {blabel!r}")
        if slabel not in semigroup.labels:
            raise BadParam(f"line {lineno}: unknown semigroup element {slabel!r}")
        if degree[label_pos[blabel]] is not None:
            raise BadParam(f"line {lineno}: second degree for basis label {blabel!r}")
        degree[label_pos[blabel]] = semigroup.index_of(slabel)
    if any(d is None for d in degree):
        missing = [basis_labels[i] for i, d in enumerate(degree) if d is None]
        raise BadParam(f"missing degree for basis labels {missing}")

    structure = {}
    for lineno, value in fields["structure"]:
        parts = value.split()
        if len(parts) != 4:
            raise BadParam(f"line {lineno}: structure lines are 'i j k p/q'")
        try:
            i, j, k = (int(p) for p in parts[:3])
            coeff = Fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParam(f"line {lineno}: {exc}") from None
        for idx in (i, j, k):
            if not 1 <= idx <= dim:
                raise BadParam(f"line {lineno}: index {idx} outside 1..{dim}")
        cell = structure.setdefault((i - 1, j - 1), {})
        cell[k - 1] = cell.get(k - 1, Fraction(0)) + coeff
    structure = {
        key: {k: c for k, c in cell.items() if c != 0}
        for key, cell in structure.items()
    }
    structure = {key: cell for key, cell in structure.items() if cell}

    unit = None
    if "unit" in fields:
        lineno, value = fields["unit"]
        entries = value.split()
        if len(entries) != dim:
            raise BadParam("unit vector length disagrees with the basis")
        try:
            unit = tuple(Fraction(e) for e in entries)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParam(f"line {lineno}: {exc}") from None

    alg = GradedAlgebra(
        dim=dim,
        basis_labels=basis_labels,
        structure=structure,
        degree=tuple(degree),
        semigroup=semigroup,
        unit=unit,
        name=fields["name"][1],
    )
    return validate_or_raise(alg)


def load_algebra(path) -> GradedAlgebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def serialize_algebra(alg: GradedAlgebra) -> str:
    lines = [f"name: {alg.name or 'unnamed'}"]
    lines.append("semigroup: inline")
    lines.append(f"semigroup-labels: {' '.join(map(str, alg.semigroup.labels))}")
    rows = []
    for i in range(alg.semigroup.order):
        rows.append(" ".join(str(alg.semigroup.labels[alg.semigroup.table[i][j]])
                             for j in range(alg.semigroup.order)))
    lines.append(f"semigroup-table: {' / '.join(rows)}")
    lines.append(f"basis: {' '.join(alg.basis_labels)}")
    for i, label in enumerate(alg.basis_labels):
        lines.append(f"degree: {label} {alg.semigroup.labels[alg.degree[i]]}")
    for (i, j) in sorted(alg.structure):
        for k in sorted(alg.structure[(i, j)]):
            c = alg.structure[(i, j)][k]
            if c != 0:
                lines.append(f"structure: {i + 1} {j + 1} {k + 1} {c}")
    if alg.unit is not None:
        lines.append(f"unit: {' '.join(str(c) for c in alg.unit)}")
    return "\n".join(lines) + "\n"
