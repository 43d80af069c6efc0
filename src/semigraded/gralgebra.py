"""Finite-dimensional associative algebras over Q with a semigroup grading.

An algebra is given by sparse structure constants on a fixed basis plus
a degree map from basis indices into a finite semigroup.  All scalars
are Fractions, or integers in the scaled tables; nothing in this module
touches floating point.

The catalog derives its entries from two builders.  full_matrix(k) and
upper_triangular(k) are the matrix units of M_k and UT_k
(_matrix_units); mk_column_graded(k) and utk_column_graded(k) regrade
them column by column over the right zero band, and mk_zhalf_graded
regrades full_matrix(2) over Z2.  exampleT1-3(k) and thm_T2/T3_fractional
are pairs M_k (+) W (_pair_algebra), and thm_T1_fractional is
exampleT1(2) renamed.  with_trivial_grading and opposite copy an algebra
with a new grading or its transposed structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    BadParam,
    GradingViolation,
    NotAssociative,
    ResourceLimit,
    UnknownName,
)
from .linalg import (ONE, ZERO, Subspace, frac, fraction_row, integer_row, is_zero_vec,
                     scaled_row, span_closure, sparse_map, unit_vec)
from .semigroup import (
    FiniteSemigroup,
    catalog_semigroup,
    make_semigroup,
    opposite_semigroup,
    trivial_semigroup,
)


@dataclass(frozen=True)
class GradedAlgebra:
    dim: int
    basis_labels: tuple
    structure: dict  # (i, j) -> {k: Fraction}, absent pairs multiply to zero
    degree: tuple    # basis index -> semigroup element index
    semigroup: FiniteSemigroup
    unit: tuple | None = None
    name: str = ""
    # for the catalog algebras whose basis elements are matrix-unit pairs:
    # basis index -> (i, j) of the underlying matrix unit, else None
    matrix_positions: tuple | None = None

    def __repr__(self):
        tag = self.name or "GradedAlgebra"
        return f"<{tag}: dim {self.dim} over {list(self.semigroup.labels)}>"

    # -- products ---------------------------------------------------------

    def mul_basis(self, i: int, j: int) -> dict:
        return self.structure.get((i, j), {})

    def multiply(self, u, v):
        """u v as a tuple of Fractions: the integer product of u and v
        scaled to integers (scaled_row), over one common denominator."""
        (iu, du), (iv, dv) = scaled_row(u), scaled_row(v)
        return fraction_row(self.integer_product(iu, iv), du * dv * self.integer_table()[1])

    def integer_product(self, u, v) -> list:
        """The product of the integer rows u and v over integer_table, as a
        list of ints: scale times u v."""
        table = self.integer_table()[0]
        out = [0] * self.dim
        right = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a:
                for j, b in right:
                    cell = table.get((i, j))
                    if cell:
                        ab = a * b
                        for k, c in cell:
                            out[k] += ab * c
        return out

    def integer_table(self):
        """(table, scale): the structure constants times scale, the lcm of
        their denominators, as (i, j) -> ((k, int), ...) with the zero
        constants dropped: a fixed nonzero multiple of every basis product,
        for the kernels that only need spans.  Built on the first call and
        shared by every caller, which must not change it: the algebra is
        frozen, and replace, opposite and with_trivial_grading make new
        instances, which build their own."""
        return self._integer_table

    def cell_table(self) -> "CellTable":
        """integer_table as read-only arrays, for the kernels that join
        sparse entries with the structure constants (CellTable.join); built
        once, like integer_table."""
        return self._cell_table

    @cached_property
    def _integer_table(self):
        d = math.lcm(*(c.denominator for cell in self.structure.values() for c in cell.values()))
        return {key: tuple((k, c.numerator * (d // c.denominator)) for k, c in cell.items() if c)
                for key, cell in self.structure.items()}, d

    @cached_property
    def _cell_table(self) -> "CellTable":
        table, scale = self.integer_table()
        cells = sorted((i * self.dim + b, k, c) for (i, b), cell in table.items() for k, c in cell)
        top = max((abs(c[2]) for c in cells), default=0)
        pair, target = (np.array([c[j] for c in cells], dtype=np.int64) for j in (0, 1))
        constant = np.array([c[2] for c in cells], dtype=np.int64 if top < 2 ** 63 else object)
        arrays = (pair % self.dim, target, constant,
                  np.searchsorted(pair, np.arange(self.dim ** 2 + 1)))
        for array in arrays:
            array.flags.writeable = False
        return CellTable(self.dim, scale, top, *arrays)

    # -- grading ----------------------------------------------------------

    def component_indices(self, t: int):
        return [i for i in range(self.dim) if self.degree[i] == t]

    def component(self, t: int) -> Subspace:
        return Subspace(self.dim, [[int(i == j) for j in range(self.dim)]
                                   for i in self.component_indices(t)])

    def component_project(self, t: int, v):
        return tuple(x if self.degree[i] == t else ZERO for i, x in enumerate(v))

    def support(self):
        return sorted({self.degree[i] for i in range(self.dim)})

    def basis_vector(self, i: int):
        return unit_vec(self.dim, i)

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.dim)


@dataclass(frozen=True)
class CellTable:
    """The structure constants times scale (GradedAlgebra.integer_table),
    one cell (b, k, c) per nonzero constant c of e_i e_b at e_k, sorted by
    (i, b, k): the cells of the pair p = i * dim + b are start[p] to
    start[p + 1], so the pairs i * dim to i * dim + dim hold every product
    e_i e_b."""

    dim: int
    scale: int
    top: int                # the largest |c|
    letter: np.ndarray      # b per cell
    target: np.ndarray      # k per cell
    constant: np.ndarray    # c per cell: int64, or Python ints past its range
    start: np.ndarray       # dim * dim + 1 cell offsets, one per pair and the end

    def join(self, lo: np.ndarray, hi: np.ndarray, max_entries: int, refused: Exception):
        """(src, cell): entry e paired with every cell of the pairs lo[e] to
        hi[e] (exclusive), src the entry of each pair in entry order.
        Raises refused before allocating more than max_entries pairs."""
        first = self.start[lo]
        joins = self.start[hi] - first
        joined = int(joins.sum())
        if joined > max_entries:
            raise refused
        src = np.repeat(np.arange(len(joins)), joins)
        return src, np.arange(joined) + np.repeat(first - np.cumsum(joins) + joins, joins)


def merge_entries(codes: np.ndarray, values: np.ndarray):
    """(codes, sums): the distinct codes, increasing, each with the sum of
    its values, the zero sums dropped."""
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    head = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    sums = np.add.reduceat(values[order], heads)
    live = sums != 0
    return codes[heads][live], sums[live]


def multiplication_maps(alg: GradedAlgebra):
    """(left, right, scale): left[i] and right[i] the linear maps v -> e_i v
    and v -> v e_i on sparse rows (linalg.sparse_map), over the structure
    constants times scale (integer_table), so every image is scale times
    the product."""
    table, scale = alg.integer_table()
    n = alg.dim
    left = [sparse_map([table.get((i, j), ()) for j in range(n)]) for i in range(n)]
    right = [sparse_map([table.get((j, i), ()) for j in range(n)]) for i in range(n)]
    return left, right, scale


def validate(alg: GradedAlgebra):
    """Check associativity, the grading law and the declared unit.

    Checks sparsely through multiplication_maps, each basis product e_i e_j
    formed once: both sides of each identity carry the same power of the
    table's scale, and the unit, scaled to integers by the lcm of its
    denominators, is checked against that lcm times the scale.  Returns a
    report dict {"ok": bool, "violations": [...]} in the order i, j, then k
    ascending, each pair's grading before its associativity, the unit
    last; the catalog and the file parser insist on ok.  Raises
    ResourceLimit before any product when the dim^3 basis triples pass
    codim.DEFAULT_BLOCK_CAP.
    """
    from .codim import DEFAULT_BLOCK_CAP  # here, since codim imports this module
    n = alg.dim
    if n ** 3 > DEFAULT_BLOCK_CAP:
        raise ResourceLimit(f"validating dimension {n} checks {n ** 3} basis triples "
                            f"(cap {DEFAULT_BLOCK_CAP})")
    left, right, scale = multiplication_maps(alg)
    products = [[left[i]({j: 1}) for j in range(n)] for i in range(n)]
    # both sides of (e_i e_j) e_k = e_i (e_j e_k) vanish when e_i e_j = e_j e_k = 0
    live = [[k for k in range(n) if products[j][k]] for j in range(n)]
    violations = []
    for i in range(n):
        for j in range(n):
            ij = products[i][j]
            # grading law on the pair (i, j)
            target = alg.semigroup.mul(alg.degree[i], alg.degree[j])
            violations.extend(("grading", (i, j), k) for k in sorted(ij)
                              if alg.degree[k] != target)
            for k in range(n) if ij else live[j]:
                if right[k](ij) != left[i](products[j][k]):
                    violations.append(("associativity", (i, j, k)))
    if alg.unit is not None:
        d = math.lcm(*(frac(c).denominator for c in alg.unit))
        unit = {k: int(c * d) for k, c in enumerate(alg.unit) if c != 0}
        for i in range(n):
            e = {i: d * scale}
            if right[i](unit) != e or left[i](unit) != e:
                violations.append(("unit", i))
    return {"ok": not violations, "violations": violations}


def validate_or_raise(alg: GradedAlgebra) -> GradedAlgebra:
    report = validate(alg)
    for v in report["violations"]:
        if v[0] == "associativity":
            raise NotAssociative(v[1])
        if v[0] == "grading":
            raise GradingViolation(v[1])
        raise GradingViolation(v[1], f"declared unit fails on basis {v[1]}")
    return alg


def with_trivial_grading(alg: GradedAlgebra) -> GradedAlgebra:
    return replace(alg, degree=(0,) * alg.dim, semigroup=trivial_semigroup(),
                   name=alg.name and alg.name + "|trivial")


# -- subspace arithmetic ---------------------------------------------------

def subspace_product(alg: GradedAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """span(a b), from the integer products of the rows."""
    prods = (alg.integer_product(u, v) for u in a.rows for v in b.rows)
    return Subspace(alg.dim, [p for p in prods if any(p)])


def ideal_generated(alg: GradedAlgebra, vectors) -> Subspace:
    """Smallest two-sided ideal containing the vectors.

    The span closure of the vectors under v -> e_i v and v -> v e_i for
    every basis element e_i, on integer rows: the structure constants
    scaled by the lcm of their denominators (integer_table) multiply
    every product by one nonzero constant, which changes no span.  Note
    the generators themselves are included even when the algebra has no
    unit.
    """
    n = alg.dim
    left, right, _ = multiplication_maps(alg)
    seeds = [{k: x for k, x in enumerate(integer_row(v)) if x} for v in vectors]
    return Subspace(n, [[row.get(k, 0) for k in range(n)]
                        for row in span_closure(n, seeds, left + right)])


def is_graded_subspace(alg: GradedAlgebra, s: Subspace) -> bool:
    """s is graded iff every row of its reduced echelon basis is homogeneous.

    s is graded iff each component p_t(r) of each row r lies in s.  A
    vector of s is the combination of the rows with its entries at their
    pivots as coefficients, and r is 1 at its own pivot and 0 at the
    others; so p_t(r) in s means p_t(r) = r when r's pivot has degree t,
    and p_t(r) = 0 otherwise, which is r being homogeneous.
    """
    return all(len({alg.degree[i] for i, x in enumerate(row) if x}) == 1 for row in s.rows)


def opposite(alg: GradedAlgebra) -> GradedAlgebra:
    """The transposed structure over the opposite semigroup."""
    return replace(alg, structure={(j, i): dict(cell) for (i, j), cell in alg.structure.items()},
                   semigroup=opposite_semigroup(alg.semigroup), name=alg.name and alg.name + ".op")


def quotient_algebra(alg: GradedAlgebra, ideal: Subspace, graded: bool):
    """The quotient A/I together with projection and lifting maps.

    Coset representatives are the standard basis vectors at the non-pivot
    coordinates of I's echelon basis; those are homogeneous, so when I is
    a graded ideal the quotient inherits the grading.  With graded=False
    the result carries the trivial grading.

    Returns (Q, project, lift) where project maps A-vectors to Q-coords
    and lift maps Q-coords back to representative A-vectors.
    """
    n = alg.dim
    pivot_rows = dict(zip(ideal.pivots, ideal.canonical_rows))
    reps = [c for c in range(n) if c not in pivot_rows]
    qdim = len(reps)
    rep_pos = {c: k for k, c in enumerate(reps)}
    # a canonical row is 0 at the other pivots, so v reduces to v minus
    # v[p] times the row of each pivot p, read at the representatives
    pivot_parts = {p: [(rep_pos[c], x) for c, x in enumerate(row) if x and c in rep_pos]
                   for p, row in pivot_rows.items()}

    def project_sparse(items):
        out = [ZERO] * qdim
        for k, x in items:
            if k in rep_pos:
                out[rep_pos[k]] += x
            else:
                for a, y in pivot_parts[k]:
                    out[a] -= x * y
        return tuple(out)

    def project(v):
        return project_sparse((k, x) for k, x in enumerate(v) if x)

    def lift(coords):
        v = [ZERO] * n
        for k, c in enumerate(reps):
            v[c] = coords[k]
        return tuple(v)

    structure = {}
    for a, i in enumerate(reps):
        for b, j in enumerate(reps):
            coords = project_sparse(alg.mul_basis(i, j).items())
            cell = {k: c for k, c in enumerate(coords) if c != 0}
            if cell:
                structure[(a, b)] = cell
    if graded:
        degree = tuple(alg.degree[c] for c in reps)
        semigroup = alg.semigroup
    else:
        degree = (0,) * qdim
        semigroup = trivial_semigroup()
    unit = project(alg.unit) if alg.unit is not None else None
    if unit is not None and is_zero_vec(unit):
        unit = None
    q = GradedAlgebra(
        dim=qdim,
        basis_labels=tuple(alg.basis_labels[c] for c in reps),
        structure=structure,
        degree=degree,
        semigroup=semigroup,
        unit=unit,
        name=(alg.name + "/I") if alg.name else "",
    )
    return q, project, lift


# -- catalog ----------------------------------------------------------------

def _full_matrix_positions(k):
    return [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]


def _upper_positions(k):
    return [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]


def _matrix_units(k: int, positions, name: str) -> GradedAlgebra:
    """span{e_pos : pos in positions} inside M_k, trivially graded, with
    the identity matrix as its unit.  The position set must be
    multiplicatively closed (full and upper-triangular sets are)."""
    if k < 1:
        raise BadParam("k must be >= 1")
    index = {pos: idx for idx, pos in enumerate(positions)}
    return GradedAlgebra(
        dim=len(positions),
        basis_labels=tuple(f"e{i}{j}" for i, j in positions),
        structure={(index[(a, b)], index[(c, d)]): {index[(a, d)]: ONE}
                   for a, b in positions for c, d in positions if b == c},
        degree=(0,) * len(positions),
        semigroup=trivial_semigroup(),
        unit=tuple(ONE if i == j else ZERO for i, j in positions),
        name=name,
        matrix_positions=tuple(positions),
    )


def full_matrix(k: int) -> GradedAlgebra:
    return _matrix_units(k, _full_matrix_positions(k), f"full_matrix({k})")


def upper_triangular(k: int) -> GradedAlgebra:
    return _matrix_units(k, _upper_positions(k), f"upper_triangular({k})")


def _column_graded(builder, k: int, name: str) -> GradedAlgebra:
    """builder(k) regraded column by column: e_ij in degree t_j of the
    right zero band t_1, ..., t_k."""
    if k < 2:
        raise BadParam("k must be >= 2")
    base = builder(k)
    return replace(base, degree=tuple(j - 1 for _, j in base.matrix_positions),
                   semigroup=make_semigroup([f"t{i}" for i in range(1, k + 1)], [range(k)] * k),
                   name=f"{name}({k})")


def mk_column_graded(k: int) -> GradedAlgebra:
    """M_k graded by the right zero band on k elements, column by column."""
    return _column_graded(full_matrix, k, "mk_column_graded")


def utk_column_graded(k: int) -> GradedAlgebra:
    """UT_k graded by the right zero band on k elements, column by column."""
    return _column_graded(upper_triangular, k, "utk_column_graded")


def mk_zhalf_graded() -> GradedAlgebra:
    """M_2 graded by the order-2 group: diagonal in degree 0, antidiagonal
    in degree 1."""
    base = full_matrix(2)
    return replace(base, degree=tuple(int(i != j) for i, j in base.matrix_positions),
                   semigroup=catalog_semigroup("Z2"), name="mk_zhalf_graded")


# where the product of two pair basis elements lands, by the kind of W and
# the factors' kinds (0 for (e_ab, 0), 1 for (e_ab, w_ab)): 1 in W's pair,
# and every product not listed in (M_k, 0)
_PAIR_PRODUCT = {
    ("ideal", 1, 1): 1,        # W multiplies like its copy inside M_k
    ("left_module", 0, 1): 1,  # (a, 0)(phi(w), w) = (a phi(w), a.w)
    ("left_module", 1, 1): 1,  # (phi(v), v)(phi(w), w) = (phi(v) phi(w), phi(v).w)
}


def _pair_algebra(k, second_positions, second_kind, semigroup, name, unital):
    """Common builder for the M_k (+) W examples.

    The basis is (e_ij, 0) for all matrix units, in degree 0, then (e_pq,
    w_pq) for pq in second_positions, in degree 1.  The first coordinate
    always multiplies inside M_k; second_kind fixes how W multiplies
    (_PAIR_PRODUCT):
      "ideal"       -- W an ideal with the matrix-unit product (w w' = ww')
      "square_zero" -- W an ideal with W^2 = 0
      "left_module" -- M_k acts on the left (a w = aw), W M_k = W^2 = 0
    With unital, the unit is the sum of the diagonal pairs (e_ii, w_ii),
    and of (e_ii, 0) where W has no e_ii.
    """
    pairs = [(pos, 0) for pos in _full_matrix_positions(k)] + [(pos, 1) for pos in second_positions]
    index = {pair: i for i, pair in enumerate(pairs)}
    return GradedAlgebra(
        dim=len(pairs),
        basis_labels=tuple(f"(e{a}{b},{f'e{a}{b}' if s else 0})" for (a, b), s in pairs),
        structure={(i, j): {index[(a, d), _PAIR_PRODUCT.get((second_kind, s, t), 0)]: ONE}
                   for i, ((a, b), s) in enumerate(pairs)
                   for j, ((c, d), t) in enumerate(pairs) if b == c},
        degree=tuple(s for _, s in pairs),
        semigroup=semigroup,
        unit=tuple(ONE if a == b and (s or ((a, b), 1) not in index) else ZERO
                   for (a, b), s in pairs) if unital else None,
        name=name,
        matrix_positions=tuple(pos for pos, _ in pairs),
    )


def example_t1(k: int) -> GradedAlgebra:
    """M_k (+) UT_k, both ideals, with the two-element semigroup T1:
    degree 0 carries (M_k, 0), degree 1 the diagonal copy of UT_k."""
    if k < 2:
        raise BadParam("k must be >= 2")
    return _pair_algebra(
        k, _upper_positions(k), "ideal", catalog_semigroup("T1"),
        f"exampleT1({k})", unital=True,
    )


def example_t2(k: int) -> GradedAlgebra:
    """M_k (+) V with V a square-zero ideal copying M_k as a space."""
    if k < 1:
        raise BadParam("k must be >= 1")
    return _pair_algebra(
        k, _full_matrix_positions(k), "square_zero", catalog_semigroup("T2"),
        f"exampleT2({k})", unital=False,
    )


def example_t3(k: int) -> GradedAlgebra:
    """M_k (+) V with V a square-zero left module copying M_k, graded by
    the right zero band of two elements."""
    if k < 1:
        raise BadParam("k must be >= 1")
    return _pair_algebra(
        k, _full_matrix_positions(k), "left_module", catalog_semigroup("T3"),
        f"exampleT3({k})", unital=False,
    )


def thm_t1_fractional() -> GradedAlgebra:
    """exampleT1(2) under its own name: dimension 7, the smallest member
    of the family."""
    return replace(example_t1(2), name="thm_T1_fractional")


def thm_t2_fractional() -> GradedAlgebra:
    """M_2 (+) (F j11 + F j12 + F j22), the j's spanning a square-zero
    ideal, degree v carrying the pairs (e_pq, j_pq)."""
    return _pair_algebra(
        2, _upper_positions(2), "square_zero", catalog_semigroup("T2"),
        "thm_T2_fractional", unital=False,
    )


def thm_t3_fractional() -> GradedAlgebra:
    """M_2 (+) I with I the column module spanned by e12, e22 positions,
    I M_2 = I^2 = 0, graded by the right zero band."""
    return _pair_algebra(
        2, [(1, 2), (2, 2)], "left_module", catalog_semigroup("T3"),
        "thm_T3_fractional", unital=False,
    )


_CATALOG_BUILDERS = {
    "exampleT1": (example_t1, 1),
    "exampleT2": (example_t2, 1),
    "exampleT3": (example_t3, 1),
    "thm_T1_fractional": (thm_t1_fractional, 0),
    "thm_T2_fractional": (thm_t2_fractional, 0),
    "thm_T3_fractional": (thm_t3_fractional, 0),
    "mk_column_graded": (mk_column_graded, 1),
    "utk_column_graded": (utk_column_graded, 1),
    "mk_zhalf_graded": (mk_zhalf_graded, 0),
    "full_matrix": (full_matrix, 1),
    "upper_triangular": (upper_triangular, 1),
}


def paper_catalog(name: str, *params) -> GradedAlgebra:
    if name not in _CATALOG_BUILDERS:
        raise UnknownName(f"unknown catalog algebra {name!r}")
    builder, arity = _CATALOG_BUILDERS[name]
    if len(params) != arity:
        raise BadParam(f"{name} takes {arity} parameter(s), got {len(params)}")
    for p in params:
        if not isinstance(p, int):
            raise BadParam(f"{name} parameters must be integers")
    alg = builder(*params)
    return validate_or_raise(alg)


def parse_catalog_spec(spec: str) -> GradedAlgebra:
    """Parse 'name' or 'name(3)' into a validated catalog algebra."""
    spec = spec.strip()
    if spec.startswith("catalog:"):
        spec = spec[len("catalog:"):]
    if "(" in spec:
        if not spec.endswith(")"):
            raise BadParam(f"malformed catalog spec {spec!r}")
        name, inner = spec[:-1].split("(", 1)
        try:
            params = tuple(int(x) for x in inner.split(",") if x.strip())
        except ValueError:
            raise BadParam(f"catalog parameters must be integers, got {inner!r}") from None
    else:
        name, params = spec, ()
    return paper_catalog(name, *params)
