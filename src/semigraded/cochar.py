"""Partitions, Young symmetrizers, the theta bookkeeping function, the
explicit witness polynomials with their substitution tableaux, and exact
multiplicities at small degree, induced from codim.slice_ranks.

One evaluator serves the alternation check and the witnesses:
alternating_values, a batched signed subset sum in which a letter may
fill a position only when their classes match.  A witness is a product
of alternating columns; its value at a substitution is one such sum over
its columns laid end to end, each letter confined to its own column
(apply_symmetrizer, which evaluates every item of one degree together).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

# _rank_exact is unused here: perfbench's tracer wraps this binding too
from .codim import DEFAULT_BLOCK_CAP, _product_cache, _rank_exact, slice_ranks
from .errors import (
    BadParam,
    BetaInvalid,
    HypothesisViolated,
    ResourceLimit,
    SizeMismatch,
    TooManyParts,
    UnsupportedAlgebra,
)
from .gralgebra import CellTable, GradedAlgebra, merge_entries
from .linalg import frac
# hook_dim and partitions_of are used through this module by its callers
from .young import (
    Partition,
    YoungTableau,
    hook_dim,
    induction_coefficients,
    partitions_of,
    permutation_signs,
)


# -- shapes -----------------------------------------------------------------------

def dim_bounds(lam: Partition, q: int):
    """Multinomial upper bound and the shifted-factorial lower bound.

    The lower bound is an exact rational, not floored.
    """
    if len(lam) > q:
        raise TooManyParts(f"{lam} has more than {q} parts")
    n = lam.n
    upper = math.factorial(n)
    for p in lam.parts:
        upper //= math.factorial(p)
    padded = list(lam.parts) + [0] * (q - len(lam))
    denom = 1
    for p in padded:
        denom *= math.factorial(p + q - 1)
    lower = Fraction(math.factorial(n), denom)
    return {"upper": upper, "lower": lower}


# -- polynomials ----------------------------------------------------------------


def alternating_values(cells: CellTable, letters, classes, pos_classes,
                       max_entries: int = DEFAULT_BLOCK_CAP) -> list:
    """Per row of letters (T rows of h basis indices), classes (the class
    of each letter) and pos_classes (the class of each position), all T x
    h: the sum over the orderings pi of the row's letters of sign(pi) *
    letters[pi(0)] ... letters[pi(h-1)] that fill every position k with a
    letter of class pos_classes[k], the other orderings dropped.  The
    alternation check takes the letters' degrees as classes; a witness
    takes (column, degree), its columns laid end to end (apply_symmetrizer).
    One dict coordinate -> nonzero value per row: ints, or Fractions when
    the structure constants are not all integral.

    Formed one position at a time over the entries (row, placed,
    coordinate, value), placed the bit mask of the row's letters already
    placed: the orderings of a set share every continuation, so 2^h * h
    products replace h! words.  Each entry is paired with every unplaced
    letter j of its row whose class fits the next position, joined with
    the integer cells of its coordinate and that letter (cells, the
    table of GradedAlgebra.cell_table), signed by the inversions j adds,
    #{i placed : i > j}, and equal (row, placed, coordinate) are merged
    (merge_entries).  The last level carries scale ** (h - 1) times the
    sums.  Exact: int64 while prod over classes c of (letters of class
    c)! * (dim * max |constant|) ** (h - 1) < 2 ** 63 on every row, which
    bounds every partial sum, Python ints past it.  Raises ResourceLimit
    before a level takes more than max_entries pairs or joined entries,
    or when its codes would pass int64."""
    if not len(letters):
        return []
    letters = np.array(letters, dtype=np.int64)
    fits = np.array(classes, dtype=np.int64)
    pos_classes = np.array(pos_classes, dtype=np.int64)
    rows, h = letters.shape
    if h == 0:
        raise BadParam("an alternating sum needs at least one letter")
    dim = cells.dim
    refused = ResourceLimit(f"alternating sums of {h} letters pass {max_entries} entries",
                            context=h)
    if (rows << h) * dim >= 2 ** 63:
        raise refused
    orderings = max(math.prod(math.factorial(len(list(run))) for _, run in groupby(row))
                    for row in {tuple(row) for row in np.sort(fits, axis=1).tolist()})
    dtype = np.int64 if orderings * (dim * cells.top) ** (h - 1) < 2 ** 63 else object
    bit = np.left_shift(1, np.arange(h, dtype=np.int64))
    row, j = np.nonzero(fits == pos_classes[:, :1])
    placed, coord, values = bit[j], letters[row, j], np.ones(len(row), dtype=dtype)
    for m in range(1, h):
        free = (placed[:, None] & bit) == 0
        entry, j = np.nonzero(free & (fits == pos_classes[:, m, None])[row])
        if len(entry) > max_entries:
            raise refused
        # the letters placed after j, counted from the right
        after = np.cumsum(~free[:, ::-1], axis=1)[:, ::-1][entry, j]
        signed = values[entry] * (1 - 2 * (after & 1))
        pair = coord[entry] * dim + letters[row[entry], j]
        src, cell = cells.join(pair, pair + 1, max_entries, refused)
        codes = ((row[entry] << h | placed[entry] | bit[j]) * dim)[src] + cells.target[cell]
        codes, values = merge_entries(codes, signed[src] * cells.constant[cell])
        coord, codes = codes % dim, codes // dim
        row, placed = codes >> h, codes & (1 << h) - 1
    ends = np.searchsorted(row, np.arange(rows + 1)).tolist()
    coord, values = coord.tolist(), values.tolist()
    if cells.scale > 1:
        values = [Fraction(v, cells.scale ** (h - 1)) for v in values]
    return [dict(zip(coord[lo:hi], values[lo:hi])) for lo, hi in zip(ends, ends[1:])]


@dataclass(frozen=True)
class AlternatingColumn:
    """The witness factor of one tableau column: the sum over sigma in
    S_h of sign(sigma) times the word whose position k holds
    variables[sigma(slots[k])] and is restricted to degree
    pos_degrees[k].  It alternates in its variables whatever the slots
    and degrees are.  With pi = sigma o slots it is sign(slots) times the
    alternating sum of its letters in the order of variables."""

    variables: tuple  # the column's variable indices, top to bottom
    slots: tuple
    pos_degrees: tuple


@dataclass
class FactoredPolynomial:
    """Ordered product of alternating columns on pairwise disjoint
    variable sets.

    The witnesses live here: expanding the product is hopeless at the
    sizes the certificates need.  Laid end to end, each letter confined
    to its own column, the columns' orderings are the block-diagonal
    orderings of all letters, whose sign is the product of the columns'
    signs: the value of the product on a substitution is one confined
    alternating sum (apply_symmetrizer).
    """

    n: int
    factors: list  # AlternatingColumn

    def laid_end_to_end(self, alg, rows) -> tuple:
        """(sign, classes, pos_classes) of rows of letters, each row the
        substitution of the variables column by column: f there is sign
        times the row's alternating sum with the class of a letter or
        position i * (max degree + 1) + its degree in column i."""
        width = max(alg.degree) + 1
        offsets = [i * width for i, c in enumerate(self.factors) for _ in c.variables]
        # the slots laid end to end: a block-diagonal permutation, signed
        # by the product of its blocks' signs
        slots = []
        for c in self.factors:
            slots += [len(slots) + s for s in c.slots]
        [sign] = permutation_signs([slots])
        classes = [[i + alg.degree[b] for i, b in zip(offsets, row)] for row in rows]
        pos = [i * width + t for i, c in enumerate(self.factors) for t in c.pos_degrees]
        return sign, classes, pos


# -- Young symmetrizer application ----------------------------------------------


def apply_symmetrizer(alg, items) -> list:
    """The value of the symmetrized polynomial e_T.f on the substitution
    tau, as a vector, for each (tableau T, f, tau) of items.

    e_T.f at tau is the sum of c_g * f(tau o g) over the terms (g, c_g) of
    e_T; f is evaluated once per distinct substitution tau o g, times the
    sum of its coefficients.  When f's columns sit one on each column of
    the tableau, the column sum collapses to the scalar prod(column
    height factorials), leaving only the row-group sum
    (YoungTableau.row_words); that shortcut makes the tall witnesses
    tractable.  Any other f is summed over every term of
    YoungTableau.symmetrizer_words, built from the same row words.  f on a
    substitution is sign(slots of every column) times the alternating sum
    of its columns' letters laid end to end, of class (column, degree) at
    every letter and position (FactoredPolynomial.laid_end_to_end); the
    substitutions of every item with as many letters go to one
    alternating_values call.  Raises ResourceLimit, before anything is
    built, when an item's terms (the row group, times the column group
    unless the shortcut applies) pass codim.DEFAULT_BLOCK_CAP.
    """
    checked = []  # per item: (tableau, f, tau, the column sum's scalar or None)
    for tableau, f, tau in items:
        shape = tableau.shape
        if f.n != shape.n:
            raise SizeMismatch("polynomial length does not match the tableau")
        columns = math.prod(map(math.factorial, shape.column_heights()))
        aligned = (sorted(tuple(sorted(c.variables)) for c in f.factors)
                   == sorted(tuple(sorted(c)) for c in tableau.columns()))
        terms = math.prod(map(math.factorial, shape.parts)) * (1 if aligned else columns)
        if terms > DEFAULT_BLOCK_CAP:
            raise ResourceLimit(f"the symmetrizer of shape {shape.parts} sums {terms} terms "
                                f"(cap {DEFAULT_BLOCK_CAP})", context=shape.parts)
        checked.append((tableau, f, tau, columns if aligned else None))
    batches = {}  # letters per row -> (letters, their classes, position classes)
    plans = []    # per item: (letters per row, its first row in that batch, weights)
    for tableau, f, tau, scalar in checked:
        if scalar is not None:
            terms = tableau.row_words()
            coefs = [scalar] * len(terms)
        else:
            terms, coefs = tableau.symmetrizer_words()
        variables = [v for c in f.factors for v in c.variables]
        image = np.array([tau[v] for v in range(f.n)])
        weights = {}
        for key, c in zip(map(tuple, image[terms[:, variables]].tolist()), coefs):
            weights[key] = weights.get(key, 0) + c
        weights = {key: c for key, c in weights.items() if c}
        sign, fits, pos = f.laid_end_to_end(alg, weights)
        letters, classes, pos_classes = batches.setdefault(len(variables), ([], [], []))
        plans.append((len(variables), len(letters), [sign * c for c in weights.values()]))
        letters.extend(weights)
        classes.extend(fits)
        pos_classes.extend([pos] * len(weights))
    cells = alg.cell_table()
    values = {h: alternating_values(cells, *batch) for h, batch in batches.items()}
    out = []
    for h, first, coefs in plans:
        total = {}
        for c, value in zip(coefs, values[h][first:]):
            for k, x in value.items():
                total[k] = total.get(k, 0) + c * x
        out.append(tuple(frac(total.get(k, 0)) for k in range(alg.dim)))
    return out


# -- the theta function -----------------------------------------------------------

def theta(alg: GradedAlgebra, basis_index: int) -> int:
    """Column minus row of the matrix unit behind a catalog basis element."""
    if alg.matrix_positions is None:
        raise UnsupportedAlgebra("algebra carries no matrix-unit positions")
    i, j = alg.matrix_positions[basis_index]
    return j - i


def theta_scan(alg: GradedAlgebra, n_max: int):
    """Exhaustively check additivity and the [-1, 1] window of theta on
    all nonzero products of at most n_max basis elements, read from the
    integer word products (codim._product_cache).  Raises ResourceLimit
    when they would form more words than codim's default cap."""
    if alg.matrix_positions is None:
        raise UnsupportedAlgebra("algebra carries no matrix-unit positions")
    violations = []
    # the cache lists the nonzero products, a word after its prefixes
    products = _product_cache(alg, n_max)
    for seq, value in products.items():
        theta_sum = sum(theta(alg, b) for b in seq)
        if len(value) != 1:
            violations.append(("support", seq))
        else:
            t = theta(alg, next(iter(value)))
            if t != theta_sum or not (-1 <= theta_sum <= 1):
                violations.append(("theta", seq, theta_sum, t))
    return {"ok": not violations, "violations": violations, "products_checked": len(products)}


# -- witness construction ----------------------------------------------------------

@dataclass
class BetaDecomposition:
    variant: str
    values: dict            # column-kind name -> count, e.g. {"f3": 1, ...}
    surplus: int = 0        # tall columns left without a compensating column


@dataclass
class WitnessData:
    shape: Partition
    tableau: YoungTableau
    beta: BetaDecomposition
    f: FactoredPolynomial
    tau: dict               # variable -> basis index
    column_kinds: list      # kind name per column, left to right


class _VariantTable:
    def __init__(self, q, words, columns, tall_first):
        self.q = q                    # the tall column height
        self.words = words            # name -> (slots, pos_degrees)
        self.columns = columns        # name -> substitution labels, top down
        self.tall_first = tall_first  # pair orientation: tall column first?
        # heights q..1 and the kinds available at each height
        self.kinds_by_height = {}
        for name, (slots, _) in words.items():
            self.kinds_by_height.setdefault(len(slots), []).append(name)
        for names in self.kinds_by_height.values():
            names.sort(key=lambda s: int(s[1:]))


_T1 = _VariantTable(
    q=7,
    words={
        "f1": ((2, 1, 5, 3, 4, 0, 6), (0, 1, 0, 1, 0, 0, 1)),
        "f2": ((2, 1, 5, 3, 4, 0), (0, 1, 0, 1, 0, 0)),
        "f3": ((4, 3, 0, 1, 2), (0, 1, 0, 1, 0)),
        "f4": ((1, 2, 4, 3, 0), (1, 0, 1, 1, 0)),
        "f5": ((3, 0, 1, 2), (1, 0, 1, 0)),
        "f6": ((1, 2, 3, 0), (1, 1, 1, 0)),
        "f7": ((0, 1, 2), (0, 1, 0)),
        "f8": ((1, 2, 0), (1, 1, 0)),
        "f9": ((0, 1), (0, 1)),
        "f10": ((1, 0), (0, 0)),
        "f11": ((0,), (0,)),
        "f12": ((0,), (1,)),
    },
    columns={
        "f1": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e22,0)", "(e12,0)", "(e12,e12)"],
        "f2": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e22,0)", "(e12,0)"],
        "f3": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e22,0)"],
        "f4": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e12,e12)"],
        "f5": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)"],
        "f6": ["(e21,0)", "(e11,e11)", "(e12,e12)", "(e22,e22)"],
        "f7": ["(e21,0)", "(e11,e11)", "(e11,0)"],
        "f8": ["(e21,0)", "(e11,e11)", "(e12,e12)"],
        "f9": ["(e21,0)", "(e11,e11)"],
        "f10": ["(e21,0)", "(e12,0)"],
        "f11": ["(e21,0)"],
        "f12": ["(e11,e11)"],
    },
    tall_first=True,
)

_T3 = _VariantTable(
    q=6,
    words={
        "f1": ((2, 4, 3, 1, 0, 5), (0, 1, 0, 1, 0, 0)),
        "f2": ((0, 2, 4, 1, 3), (0, 0, 1, 1, 0)),
        "f3": ((3, 1, 0, 2), (0, 1, 0, 0)),
        "f4": ((0, 2, 3, 1), (0, 0, 1, 1)),
        "f5": ((1, 0, 2), (1, 0, 0)),
        "f6": ((1, 0, 2), (1, 0, 1)),
        "f7": ((1, 0), (1, 0)),
        "f8": ((0, 1), (0, 0)),
        "f9": ((0,), (0,)),
        "f10": ((0,), (1,)),
    },
    columns={
        "f1": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)", "(e12,e12)", "(e12,0)"],
        "f2": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)", "(e12,e12)"],
        "f3": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)"],
        "f4": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e12,e12)"],
        "f5": ["(e21,0)", "(e22,e22)", "(e11,0)"],
        "f6": ["(e21,0)", "(e22,e22)", "(e12,e12)"],
        "f7": ["(e21,0)", "(e22,e22)"],
        "f8": ["(e21,0)", "(e12,0)"],
        "f9": ["(e21,0)"],
        "f10": ["(e22,e22)"],
    },
    tall_first=False,
)

_VARIANTS = {"T1": _T1, "T3": _T3}


def _variant(name):
    if name not in _VARIANTS:
        raise HypothesisViolated(f"no witness construction for variant {name!r}")
    return _VARIANTS[name]


def choose_beta(variant: str, lam: Partition) -> BetaDecomposition:
    """Deterministic counts of the column kinds.

    Compensating (odd-indexed) columns are filled greedily from the
    tallest down; the boundary case where one tall column stays
    uncompensated is admitted with surplus 1.
    """
    v = _variant(variant)
    q = v.q
    if lam.part(q + 1) > 0:
        raise HypothesisViolated(f"{variant} witnesses need at most {q} parts")
    tall = lam.part(q)
    forced = lam.part(q - 1) - lam.part(q)  # the f2 columns
    values = {"f1": tall, "f2": forced}
    need = tall
    for h in range(q - 2, 0, -1):
        odd, even = v.kinds_by_height[h]
        cap = lam.part(h) - lam.part(h + 1)
        take = min(need, cap)
        values[odd] = take
        values[even] = cap - take
        need -= take
    if need > 1:
        raise HypothesisViolated(
            f"columns cannot compensate the tall blocks: short by {need}")
    return BetaDecomposition(variant, values, surplus=need)


def build_witness(variant: str, lam: Partition, alg: GradedAlgebra) -> WitnessData:
    """Assemble the witness polynomial and its substitution tableau on
    alg's basis labels, with the column counts of choose_beta.

    The shape's columns are typed left to right: tall columns first,
    then the forced height-(q-1) kind, then at each lower height the
    compensating kind before the neutral kind.  The product order pairs
    each tall column with one compensating column (orientation fixed per
    variant); an uncompensated tall column, which occurs exactly on the
    boundary stratum, goes right after the pairs, before the neutral
    columns.
    """
    v = _variant(variant)
    beta = choose_beta(variant, lam)
    label_index = {l: i for i, l in enumerate(alg.basis_labels)}

    # type every column, left to right, in weakly decreasing height
    kinds = ["f1"] * beta.values.get("f1", 0) + ["f2"] * beta.values.get("f2", 0)
    for h in range(v.q - 2, 0, -1):
        odd, even = v.kinds_by_height[h]
        kinds += [odd] * beta.values.get(odd, 0) + [even] * beta.values.get(even, 0)
    heights = [len(v.words[k][0]) for k in kinds]
    if heights != lam.column_heights():
        raise BetaInvalid("column kinds do not reproduce the shape")

    tableau = YoungTableau.column_major(lam)
    columns = tableau.columns()

    tau = {}
    factors_by_column = []
    for col_vars, kind in zip(columns, kinds):
        slots, degs = v.words[kind]
        factors_by_column.append(AlternatingColumn(col_vars, slots, degs))
        for var, label in zip(col_vars, v.columns[kind]):
            if label not in label_index:
                raise UnsupportedAlgebra(f"{variant} witnesses need the basis label "
                                         f"{label}, missing from {alg.name or 'the algebra'}")
            tau[var] = label_index[label]

    # product order: compensated pairs, surplus tall column, then neutrals
    tall_idx = [i for i, k in enumerate(kinds) if k == "f1"]
    odd_idx = [i for i, k in enumerate(kinds)
               if k not in ("f1", "f2") and int(k[1:]) % 2 == 1]
    order = []
    for a, b in zip(tall_idx, odd_idx):
        order.extend([a, b] if v.tall_first else [b, a])
    order.extend(tall_idx[len(odd_idx):])          # the surplus column, if any
    remaining = [i for i, k in enumerate(kinds) if i not in order]
    remaining.sort(key=lambda i: (int(kinds[i][1:]), i))
    order.extend(remaining)

    f = FactoredPolynomial(lam.n, [factors_by_column[i] for i in order])
    return WitnessData(lam, tableau, beta, f, tau, kinds)


def multiplicity_nonzero_certificate(alg: GradedAlgebra, variant: str, shapes) -> dict:
    """{lambda: True when lambda's assembled witness evaluates to a nonzero
    vector} for the shapes, all witnesses in one apply_symmetrizer call.

    A sufficient certificate for nonzero multiplicity; False only means
    the certificate failed, never that the multiplicity vanishes.
    """
    data = [build_witness(variant, lam, alg=alg) for lam in shapes]
    values = apply_symmetrizer(alg, [(w.tableau, w.f, w.tau) for w in data])
    return {w.shape: any(c != 0 for c in value) for w, value in zip(data, values)}


def format_witness_report(alg: GradedAlgebra, data: WitnessData, value) -> str:
    """Human-readable witness report: shape, column counts, the filled
    substitution diagram, and the symmetrized value."""
    lines = [f"shape: {data.shape.parts}  (n = {data.shape.n})"]
    counts = {k: v for k, v in sorted(data.beta.values.items()) if v}
    lines.append(f"column counts: {counts}  surplus: {data.beta.surplus}")
    lines.append(f"columns left to right: {' '.join(data.column_kinds)}")
    lines.append("substitution diagram (rows of the tableau):")
    for row in data.tableau.rows:
        lines.append("  " + " | ".join(alg.basis_labels[data.tau[v]] for v in row))
    nonzero = {alg.basis_labels[i]: str(c) for i, c in enumerate(value) if c != 0}
    lines.append(f"symmetrized value: {nonzero if nonzero else 'zero'}")
    lines.append(f"verdict: {'nonzero' if nonzero else 'certificate failed'}")
    return "\n".join(lines)


# -- exact multiplicities -----------------------------------------------------------

def multiplicities(alg: GradedAlgebra, shapes) -> dict:
    """{lambda: m_lambda} for shapes of one degree n, m_lambda the
    multiplicity of lambda's irreducible in the multilinear quotient (every
    degree assignment's multilinear polynomials modulo the graded
    identities), induced from the exact codim.slice_ranks of the slices
    some shape induces from; n = 8 is refused before anything is built.
    Raises BadParam for no shapes, mixed degrees or a shape without boxes."""
    want = dict.fromkeys(shapes)
    degrees = {lam.n for lam in want}
    if len(degrees) != 1 or 0 in degrees:
        raise BadParam(f"shapes of one degree n >= 1 are needed, got degrees {sorted(degrees)}")
    [n] = degrees
    record = slice_ranks(alg, n, "exact", keep=lambda parts: not want.keys().isdisjoint(
        induction_coefficients(parts)))
    return induce_multiplicities(record, want)


def induce_multiplicities(record: dict, shapes) -> dict:
    """{lambda: m_lambda} for shapes of an exact slice_ranks record's degree
    (graded_codim's exact .slices is one): as a representative's assignments
    form an S_n-orbit, stabilized by the Young subgroup of its composition,
    m_lambda sums c^lambda_<mu> * m_<mu> over its slices <mu>, c from
    young.induction_coefficients and m_<mu> the slice's rank."""
    want = dict.fromkeys(shapes, 0)
    for _, slices in record.values():
        for parts, (_, [rank]) in slices.items():
            coefs = induction_coefficients(parts)
            want = {lam: m + coefs.get(lam, 0) * rank for lam, m in want.items()}
    return want


def multiplicity_exact(alg: GradedAlgebra, lam: Partition) -> int:
    """m_lambda of one shape, combining and ranking only the slices it
    induces from, and scattering only the blocks that hold one;
    multiplicities takes the shapes of a degree at once."""
    return multiplicities(alg, [lam])[lam]


def alternation_vanishing_check(alg: GradedAlgebra, n: int, trials: int = 200,
                                seed: int = 0):
    """Random full alternations in more variables than the dimension.

    Each trial draws a decorated monomial and a degree-respecting basis
    substitution, alternates over all n variables, and expects zero (two
    of the substituted elements must coincide).  Any nonzero value is an
    implementation bug and is reported.  Every trial is evaluated in one
    alternating_values call.
    """
    if n <= alg.dim:
        raise SizeMismatch("need strictly more variables than the dimension")
    draws = _alternation_trials(alg, n, trials, seed)
    values = alternating_values(alg.cell_table(), [sub for _, _, sub in draws],
                                [[alg.degree[b] for b in sub] for _, _, sub in draws],
                                [[degrees[v] for v in word] for word, degrees, _ in draws])
    failures = [{"trial": trial, "word": word, "degrees": degrees, "substitution": sub,
                 "value": value}
                for trial, ((word, degrees, sub), value) in enumerate(zip(draws, values))
                if value]
    return {"ok": not failures, "failures": failures, "trials": trials}


def _alternation_trials(alg: GradedAlgebra, n: int, trials: int, seed: int) -> list:
    """alternation_vanishing_check's draws from random.Random(seed), trial
    by trial: (word, degrees, substitution), word a shuffle of the n
    variables and each variable's degree and basis element drawn from the
    support and that degree's component."""
    rng = random.Random(seed)
    support = alg.support()
    comp = {t: alg.component_indices(t) for t in support}
    draws = []
    for _ in range(trials):
        word = list(range(n))
        rng.shuffle(word)
        degrees = [rng.choice(support) for _ in range(n)]
        sub = [rng.choice(comp[degrees[v]]) for v in range(n)]
        draws.append((tuple(word), tuple(degrees), tuple(sub)))
    return draws
