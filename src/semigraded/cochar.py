"""Partitions, Young symmetrizers, the theta bookkeeping function, the
explicit witness polynomials with their substitution tableaux, and exact
multiplicity computation at small degree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

# _product_cache stays bound here because the benchmark's tracer test
# (perfbench/test_tracing.py) reads cochar._product_cache
from .codim import _product_cache, block_rank, exact_blocks, independent_rows  # noqa: F401
from .errors import (
    BadParam,
    BetaInvalid,
    HypothesisViolated,
    ResourceLimit,
    SizeMismatch,
    TooManyParts,
    UnsupportedAlgebra,
)
from .gralgebra import GradedAlgebra, mul_sparse
from .linalg import ZERO, frac


# -- partitions ----------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """lambda_i with 1-based i; zero beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(tuple(sum(1 for p in self.parts if p >= c)
                               for c in range(1, self.parts[0] + 1)))

    def column_heights(self):
        return list(self.conjugate().parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_of(n: int, max_parts=None):
    """Weakly decreasing positive tuples summing to n, lexicographically
    decreasing."""
    def gen(remaining, cap, length):
        if remaining == 0:
            yield ()
            return
        if max_parts is not None and length == max_parts:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first, length + 1):
                yield (first,) + rest
    for parts in gen(n, n, 0):
        yield Partition(parts)


def enumerate_partitions(n: int, predicate=None, max_parts=None):
    """Partitions of n passing the optional exact membership predicate.

    Discrete polytope membership (see the polytope module) plugs in as
    the predicate; constraints are evaluated in integers.
    """
    out = []
    for lam in partitions_of(n, max_parts=max_parts):
        if predicate is None or predicate(lam):
            out.append(lam)
    return out


def hook_dim(lam: Partition) -> int:
    """n! over the product of hook lengths."""
    parts = lam.parts
    if not parts:
        return 1
    conj = lam.conjugate().parts
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(lam.n) // hooks


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


# -- tableaux and polynomials ---------------------------------------------------

@dataclass(frozen=True)
class YoungTableau:
    shape: Partition
    rows: tuple  # tuple of tuples of variable indices (0-based)

    @classmethod
    def column_major(cls, shape: Partition):
        """Fill boxes 0..n-1 down each column, left to right."""
        heights = shape.column_heights()
        rows = [[] for _ in shape.parts]
        counter = 0
        for c, h in enumerate(heights):
            for r in range(h):
                rows[r].append(counter)
                counter += 1
        return cls(shape, tuple(tuple(r) for r in rows))

    def columns(self):
        heights = self.shape.column_heights()
        return [tuple(self.rows[r][c] for r in range(h)) for c, h in enumerate(heights)]

    def row_group(self):
        """All row-preserving substitutions as variable->variable dicts."""
        groups = [list(permutations(row)) for row in self.rows]
        for combo in product(*groups):
            mapping = {}
            for row, image in zip(self.rows, combo):
                mapping.update(dict(zip(row, image)))
            yield mapping

    def column_group_signed(self):
        for combo in product(*[list(permutations(col)) for col in self.columns()]):
            mapping = {}
            sign = 1
            for col, image in zip(self.columns(), combo):
                mapping.update(dict(zip(col, image)))
                sign *= _perm_sign(col, image)
            yield mapping, sign


def _perm_sign(domain, image):
    pos = {v: i for i, v in enumerate(domain)}
    perm = [pos[v] for v in image]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        mu = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            mu += 1
        if mu % 2 == 0:
            sign = -sign
    return sign


@dataclass
class GradedPolynomial:
    """Formal rational combination of decorated monomials, all of one length."""

    n: int
    terms: dict  # GradedMonomial-like key (word, pos_degrees) -> coefficient

    @classmethod
    def from_monomial(cls, n, word, pos_degrees, coeff=1):
        return cls(n, {(tuple(word), tuple(pos_degrees)): frac(coeff)})

    def __add__(self, other):
        if self.n != other.n:
            raise SizeMismatch("polynomial lengths differ")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, ZERO) + c
            if terms[k] == 0:
                del terms[k]
        return GradedPolynomial(self.n, terms)

    def scale(self, c):
        c = frac(c)
        if c == 0:
            return GradedPolynomial(self.n, {})
        return GradedPolynomial(self.n, {k: v * c for k, v in self.terms.items()})

    def concat(self, other):
        """Noncommutative product; variable sets must be disjoint."""
        terms = {}
        for (w1, d1), c1 in self.terms.items():
            for (w2, d2), c2 in other.terms.items():
                key = (w1 + w2, d1 + d2)
                terms[key] = terms.get(key, ZERO) + c1 * c2
        return GradedPolynomial(self.n, terms)

    def rename(self, mapping):
        terms = {}
        for (w, d), c in self.terms.items():
            key = (tuple(mapping.get(v, v) for v in w), d)
            terms[key] = terms.get(key, ZERO) + c
        return GradedPolynomial(self.n, terms)

    def variables(self):
        vs = set()
        for (w, _), _ in self.terms.items():
            vs.update(w)
        return vs

    def evaluate(self, alg, tau, cache=None):
        """Value on the substitution tau: variable -> basis index.

        Positional degree labels act as component projections: any factor
        of the wrong degree kills the term.
        """
        out = {}
        degree = alg.degree
        table = cache if cache is not None else alg.eval_table()
        for (w, d), coeff in self.terms.items():
            basis_seq = []
            dead = False
            for var, t in zip(w, d):
                b = tau[var]
                if degree[b] != t:
                    dead = True
                    break
                basis_seq.append(b)
            if dead:
                continue
            value = _word_value(table, basis_seq)
            if value:
                for k, c in value.items():
                    out[k] = out.get(k, 0) + coeff * c
        return {k: c for k, c in out.items() if c != 0}


def _word_value(table, seq):
    value = {seq[0]: 1}
    for b in seq[1:]:
        value = mul_sparse(table, value, {b: 1})
        if not value:
            break
    return value


def alternating_column_polynomial(variables, word_slots, pos_degrees):
    """Sum over all sign-weighted rearrangements of the column variables.

    variables: the column's variable indices, top to bottom.
    word_slots: position k of the product holds variable variables[word_slots[k]].
    pos_degrees: degree label applied at position k.
    """
    h = len(variables)
    terms = {}
    for sigma in permutations(range(h)):
        sign = _perm_sign(tuple(range(h)), sigma)
        word = tuple(variables[sigma[word_slots[k]]] for k in range(len(word_slots)))
        terms[(word, tuple(pos_degrees))] = frac(sign)
    return GradedPolynomial(len(variables), terms)


@dataclass
class FactoredPolynomial:
    """Ordered product of polynomials on pairwise disjoint variable sets.

    The witnesses live here: expanding the product is hopeless at the
    sizes the certificates need, but the value of a product on a
    substitution is the (ordered) product of the factor values.
    """

    n: int
    factors: list  # GradedPolynomial
    column_sets: list  # the variable tuple of each factor, for the alternation check

    def evaluate(self, alg, tau, cache=None):
        table = cache if cache is not None else alg.eval_table()
        value = None
        for f in self.factors:
            v = f.evaluate(alg, tau, cache=table)
            if not v:
                return {}
            value = v if value is None else mul_sparse(table, value, v)
            if not value:
                return {}
        return value or {}

    def expand(self) -> GradedPolynomial:
        acc = None
        for f in self.factors:
            acc = f if acc is None else acc.concat(f)
        if acc is None:
            return GradedPolynomial(self.n, {})
        return GradedPolynomial(self.n, acc.terms)

    def rename(self, mapping):
        return FactoredPolynomial(
            self.n,
            [f.rename(mapping) for f in self.factors],
            [tuple(mapping.get(v, v) for v in col) for col in self.column_sets],
        )


# -- Young symmetrizer application ----------------------------------------------

def _compose(outer, inner):
    """Variable map outer o inner on the union of their supports."""
    keys = set(outer) | set(inner)
    return {k: outer.get(inner.get(k, k), inner.get(k, k)) for k in keys}


def _check_column_alternating(f, tableau):
    """Factored witnesses alternate by construction; verify the shape."""
    cols = [tuple(sorted(c)) for c in tableau.columns()]
    fcols = [tuple(sorted(c)) for c in f.column_sets]
    return sorted(cols) == sorted(fcols)


def apply_symmetrizer(alg, tableau: YoungTableau, f, tau, convention: str = "e",
                      shortcut=None):
    """Value of the symmetrized polynomial on the substitution tau.

    With the product convention "e" (row symmetrization after column
    alternation) and f alternating in every column of the tableau, the
    column sum collapses to the scalar prod(column height factorials),
    leaving only the row-group sum; that shortcut makes the tall
    witnesses tractable.  convention "e_star" forces the double sum.
    """
    n = sum(tableau.shape.parts)
    if getattr(f, "n", n) != n:
        raise SizeMismatch("polynomial length does not match the tableau")
    if convention not in ("e", "e_star"):
        raise ValueError("convention must be 'e' or 'e_star'")
    table = alg.eval_table()
    use_shortcut = shortcut
    if use_shortcut is None:
        use_shortcut = (
            convention == "e"
            and isinstance(f, FactoredPolynomial)
            and _check_column_alternating(f, tableau)
        )
    out = {}
    if use_shortcut:
        scalar = 1
        for h in tableau.shape.column_heights():
            scalar *= math.factorial(h)
        for rho in tableau.row_group():
            comp = {v: tau[rho[v]] for v in rho}
            for v, b in tau.items():
                comp.setdefault(v, b)
            value = f.evaluate(alg, comp, cache=table)
            for k, c in value.items():
                out[k] = out.get(k, 0) + c
        out = {k: c * scalar for k, c in out.items() if c != 0}
    else:
        for rho in tableau.row_group():
            for sigma, sign in tableau.column_group_signed():
                if convention == "e":
                    g = _compose(rho, sigma)
                else:
                    g = _compose(sigma, rho)
                comp = {v: tau[g.get(v, v)] for v in tau}
                value = f.evaluate(alg, comp, cache=table)
                for k, c in value.items():
                    out[k] = out.get(k, 0) + sign * c
        out = {k: c for k, c in out.items() if c != 0}
    vec = [ZERO] * alg.dim
    for k, c in out.items():
        vec[k] = frac(c)
    return tuple(vec)


# -- the theta function -----------------------------------------------------------

def theta(alg: GradedAlgebra, basis_index: int) -> int:
    """Column minus row of the matrix unit behind a catalog basis element."""
    if alg.matrix_positions is None:
        raise UnsupportedAlgebra("algebra carries no matrix-unit positions")
    i, j = alg.matrix_positions[basis_index]
    return j - i


def theta_scan(alg: GradedAlgebra, n_max: int):
    """Exhaustively check additivity and the [-1, 1] window of theta on
    all nonzero products of at most n_max basis elements."""
    if alg.matrix_positions is None:
        raise UnsupportedAlgebra("algebra carries no matrix-unit positions")
    table = alg.eval_table()
    violations = []
    checked = 0

    def walk(seq, value, theta_sum):
        nonlocal checked
        if seq:
            checked += 1
            support = [k for k in value]
            if len(support) != 1:
                violations.append(("support", tuple(seq)))
            else:
                t = theta(alg, support[0])
                if t != theta_sum or not (-1 <= theta_sum <= 1):
                    violations.append(("theta", tuple(seq), theta_sum, t))
        if len(seq) == n_max:
            return
        for b in range(alg.dim):
            nxt = mul_sparse(table, value, {b: 1}) if seq else {b: 1}
            if nxt:
                walk(seq + [b], nxt, theta_sum + theta(alg, b))
            # zero products impose nothing

    walk([], {}, 0)
    return {"ok": not violations, "violations": violations, "products_checked": checked}


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


def validate_beta(variant: str, lam: Partition, beta: BetaDecomposition):
    v = _variant(variant)
    q = v.q
    vals = beta.values
    if any(c < 0 for c in vals.values()):
        raise BetaInvalid("negative column count")
    if vals.get("f1", 0) != lam.part(q) or vals.get("f2", 0) != lam.part(q - 1) - lam.part(q):
        raise BetaInvalid("tall column counts disagree with the shape")
    comp = 0
    for h in range(q - 2, 0, -1):
        odd, even = v.kinds_by_height[h]
        cap = lam.part(h) - lam.part(h + 1)
        if vals.get(odd, 0) + vals.get(even, 0) != cap:
            raise BetaInvalid(f"height-{h} column count must be {cap}")
        comp += vals.get(odd, 0)
    if comp + beta.surplus != lam.part(q):
        raise BetaInvalid("compensating columns plus surplus must match the tall count")
    if beta.surplus not in (0, 1):
        raise BetaInvalid("surplus must be 0 or 1")


def build_witness(variant: str, lam: Partition, beta: BetaDecomposition | None = None,
                  alg: GradedAlgebra | None = None) -> WitnessData:
    """Assemble the witness polynomial and its substitution tableau.

    The shape's columns are typed left to right: tall columns first,
    then the forced height-(q-1) kind, then at each lower height the
    compensating kind before the neutral kind.  The product order pairs
    each tall column with one compensating column (orientation fixed per
    variant); an uncompensated tall column, which occurs exactly on the
    boundary stratum, goes right after the pairs, before the neutral
    columns.
    """
    v = _variant(variant)
    if beta is None:
        beta = choose_beta(variant, lam)
    else:
        validate_beta(variant, lam, beta)
    if alg is None:
        from .gralgebra import paper_catalog
        alg = paper_catalog("thm_T1_fractional" if variant == "T1" else "thm_T3_fractional")
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
        poly = alternating_column_polynomial(col_vars, slots, degs)
        factors_by_column.append(poly)
        for var, label in zip(col_vars, v.columns[kind]):
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

    f = FactoredPolynomial(
        lam.n,
        [factors_by_column[i] for i in order],
        [columns[i] for i in order],
    )
    return WitnessData(lam, tableau, beta, f, tau, kinds)


def multiplicity_nonzero_certificate(alg: GradedAlgebra, variant: str,
                                     lam: Partition) -> bool:
    """True when the assembled witness evaluates to a nonzero vector.

    A sufficient certificate for nonzero multiplicity; False only means
    the certificate failed, never that the multiplicity vanishes.
    """
    data = build_witness(variant, lam, alg=alg)
    value = apply_symmetrizer(alg, data.tableau, data.f, data.tau)
    return any(c != 0 for c in value)


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

def _symmetrizer(lam: Partition):
    """The terms (g, sign) of e_T = sum of sign(sigma) rho.sigma over the row
    group and the signed column group of the column-major tableau T, each g
    a variable map."""
    tableau = YoungTableau.column_major(lam)
    return [(_compose(rho, sigma), sign)
            for rho in tableau.row_group()
            for sigma, sign in tableau.column_group_signed()]


def spanning_permutations(lam: Partition) -> list:
    """Permutations pi of range(n) whose elements e_T.pi form a basis of the
    right ideal e_T.KS_n: the first in lexicographic order that raise the
    rank over Q.  Their number is checked to be hook_dim(lam)."""
    perms = list(permutations(range(lam.n)))
    where = {w: i for i, w in enumerate(perms)}
    group = _symmetrizer(lam)
    elements = []
    for pi in perms:
        element = {}
        for g, sign in group:
            i = where[tuple(g.get(v, v) for v in pi)]
            element[i] = element.get(i, 0) + sign
        elements.append(element)
    basis = [perms[i] for i in independent_rows(elements)]
    if len(basis) != hook_dim(lam):
        raise HypothesisViolated(
            f"e_T.KS_n has dimension {len(basis)} for {lam}, not {hook_dim(lam)}")
    return basis


def multiplicity_exact(alg: GradedAlgebra, lam: Partition, n_cap: int = 5,
                       monomial_cap: int = 20000) -> int:
    """The multiplicity of the shape's irreducible in the multilinear
    quotient, as the rank of the symmetrized spanning monomials evaluated
    on all basis substitutions.

    The row of a permutation pi and position degrees d is the evaluation,
    at degrees d, of the group-algebra element e_T.pi, and it is linear in
    that element.  The elements e_T.pi over all of S_n span the right ideal
    e_T.KS_n, a minimal one of dimension d_lambda = hook_dim(lam), so the
    d_lambda permutations of spanning_permutations give, for every d, the
    same row space and hence the same rank as all n! of them.

    A word w with degrees d forces the degree a[w[k]] = d[k] on each
    variable, and its row is row w of the exact evaluation block of a
    (see codim.exact_blocks).  Blocks of different assignments have
    disjoint columns, placed side by side.  Only the blocks of sorted
    assignments are built: if a[v] = rep[sigma(v)], row w of a's block is
    row sigma.w of rep's block with its columns in a fixed new order, which
    leaves the rank unchanged.  n_cap bounds the degree and monomial_cap
    bounds n! * |support| ** n, the number of rows before the reduction to
    d_lambda permutations.
    """
    n = lam.n
    if n < 1:
        raise BadParam("a shape needs at least one box")
    if n > n_cap:
        raise ResourceLimit(f"multiplicity_exact capped at degree {n_cap}", context=lam)
    support = alg.support()
    if math.factorial(n) * len(support) ** n > monomial_cap:
        raise ResourceLimit("spanning monomial set too large", context=lam)
    where = {w: i for i, w in enumerate(permutations(range(n)))}
    degrees = list(product(support, repeat=n))
    reps = {rep: (block, width) for rep, block, width in
            exact_blocks(alg, n, dict.fromkeys(tuple(sorted(a)) for a in degrees))}
    # per assignment a: its representative's block, a's column offset, and
    # sigma with a[v] = rep[sigma(v)]
    blocks, n_cols = {}, 0
    for a in degrees:
        order = sorted(range(n), key=a.__getitem__)
        block, width = reps[tuple(a[v] for v in order)]
        blocks[a] = (block, n_cols, [order.index(v) for v in range(n)])
        n_cols += width
    group = _symmetrizer(lam)
    rows = []
    for pi in spanning_permutations(lam):
        # per word of e_T.pi: the word, the position of each variable in it,
        # and its sign
        terms = []
        for g, sign in group:
            w = tuple(g.get(v, v) for v in pi)
            terms.append((w, [w.index(v) for v in range(n)], sign))
        for d in degrees:
            acc = {}
            for w, pos, sign in terms:
                block, offset, sigma = blocks[tuple(d[k] for k in pos)]
                for j, c in block[where[tuple(sigma[v] for v in w)]].items():
                    acc[offset + j] = acc.get(offset + j, 0) + sign * c
            rows.append({j: c for j, c in acc.items() if c})
    return block_rank(rows, n_cols)


def alternation_vanishing_check(alg: GradedAlgebra, n: int, trials: int = 200,
                                seed: int = 0):
    """Random full alternations in more variables than the dimension.

    Each trial draws a decorated monomial and a degree-respecting basis
    substitution, alternates over all n variables, and expects zero (two
    of the substituted elements must coincide).  Any nonzero value is an
    implementation bug and is reported.
    """
    if n <= alg.dim:
        raise SizeMismatch("need strictly more variables than the dimension")
    rng = random.Random(seed)
    support = alg.support()
    comp = {t: alg.component_indices(t) for t in support}
    table = alg.eval_table()
    failures = []
    for trial in range(trials):
        word = list(range(n))
        rng.shuffle(word)
        var_degs = [rng.choice(support) for _ in range(n)]
        sub = [rng.choice(comp[var_degs[v]]) for v in range(n)]
        pos_degs = tuple(var_degs[v] for v in word)

        total = {}

        def walk(k, remaining, value, sign):
            if not value:
                return
            if k == n:
                for coord, c in value.items():
                    total[coord] = total.get(coord, 0) + sign * c
                return
            b_pos = pos_degs[k]
            for idx, var in enumerate(remaining):
                bsub = sub[var]
                if alg.degree[bsub] != b_pos:
                    continue
                nxt = mul_sparse(table, value, {bsub: 1}) if k else {bsub: 1}
                # sign bookkeeping: moving remaining[idx] to the front
                walk(k + 1, remaining[:idx] + remaining[idx + 1:], nxt,
                     sign * (-1) ** idx)

        walk(0, tuple(range(n)), {0: 1}, 1)
        nonzero = {k: c for k, c in total.items() if c != 0}
        if nonzero:
            failures.append({"trial": trial, "word": tuple(word),
                             "degrees": tuple(var_degs), "substitution": tuple(sub),
                             "value": nonzero})
    return {"ok": not failures, "failures": failures, "trials": trials}
