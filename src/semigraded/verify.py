"""The end-to-end verification battery.

Every check here is exact or carries an explicit tolerance; the CLI
subcommand and the acceptance test module both run this list.  Checks
are grouped by topic so a run can be filtered to one area.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from . import asympt, codim, cochar, structure
from .gralgebra import (
    _full_matrix_positions,
    _pair_algebra,
    is_graded_subspace,
    opposite,
    paper_catalog,
    validate_or_raise,
)
from .semigroup import (
    catalog_semigroup,
    classify_order2,
    enumerate_semigroups,
    is_cancellative,
    isomorphism_classes,
)


@dataclass
class CheckResult:
    check_id: str
    group: str
    passed: bool
    detail: str
    seconds: float


def _get(algebras, name, *params):
    key = name if not params else f"{name}({','.join(map(str, params))})"
    if algebras and key in algebras:
        return algebras[key]
    return paper_catalog(name, *params)


def check_semigroup_classification(algebras=None):
    raw = enumerate_semigroups(2)
    classes = isomorphism_classes(raw)
    tags = sorted(classify_order2(c[0]) for c in classes)
    # a finite cancellative semigroup is a group: the other four are the
    # abstract's non-groups
    cancellative = sorted(classify_order2(c[0]) for c in classes if is_cancellative(c[0]))
    ok = tags == ["T1", "T2", "T3", "T3op", "Z2"] and cancellative == ["Z2"]
    return ok, (f"{len(raw)} associative tables in {len(classes)} classes: {', '.join(tags)}; "
                f"cancellative: {', '.join(cancellative) or 'none'}")


def check_radical_gradedness(algebras=None):
    from .linalg import Subspace

    def pure_second_coordinate_span(alg, positions):
        # the vectors (0, w_pq) = (e_pq, w_pq) - (e_pq, 0) for the given pq
        rows = []
        for p, q in positions:
            i0 = alg.basis_labels.index(f"(e{p}{q},0)")
            i1 = alg.basis_labels.index(f"(e{p}{q},e{p}{q})")
            rows.append([int(k == i1) - int(k == i0) for k in range(alg.dim)])
        return Subspace(alg.dim, rows)

    expected = {
        "exampleT1": [(1, 2)],
        "exampleT2": [(1, 1), (1, 2), (2, 1), (2, 2)],
        "exampleT3": [(1, 1), (1, 2), (2, 1), (2, 2)],
    }
    details = []
    ok = True
    for name, positions in expected.items():
        alg = _get(algebras, name, 2)
        rad = structure.jacobson_radical(alg)
        matches = rad == pure_second_coordinate_span(alg, positions)
        graded = is_graded_subspace(alg, rad)
        meets = all(
            rad.intersect(alg.component(t)).dim == 0
            for t in alg.support()
        )
        good = matches and not graded and meets
        ok = ok and good
        details.append(f"{name}(2): radical is the displayed span={matches}, "
                       f"graded={graded}, component meets 0={meets}")
    return ok, "; ".join(details)


def check_graded_splitting(algebras=None):
    details = []
    ok = True
    for k in (2, 3):
        alg = _get(algebras, "utk_column_graded", k)
        data = structure.graded_malcev_zeroband(alg)
        graded = is_graded_subspace(alg, data.complement)
        closed = all(
            data.complement.contains(alg.integer_product(u, v))
            for u in data.complement.rows for v in data.complement.rows
        )
        dims = data.complement.dim + data.radical.dim == alg.dim
        good = graded and closed and dims
        ok = ok and good
        details.append(
            f"utk_column_graded({k}): complement dim {data.complement.dim}, "
            f"graded={graded}, closed={closed}, dims add={dims}")
    return ok, "; ".join(details)


@functools.cache
def _two_block_counterexample():
    """The direct sum of two full matrix algebras M_2 with the diagonal copy
    in degree one, built and validated once: its only proper graded ideal
    is the degree-zero summand."""
    return validate_or_raise(_pair_algebra(
        2, _full_matrix_positions(2), "ideal", catalog_semigroup("T1"),
        "two_block_diag", unital=True))


def check_graded_simplicity(algebras=None):
    t3 = _get(algebras, "thm_T3_fractional")
    r1 = structure.is_graded_simple(t3)
    counter = _two_block_counterexample()
    r2 = structure.is_graded_simple(counter)
    witness_ok = (
        r2.verdict == "certified_false"
        and r2.witness is not None
        and r2.witness.dim == 4
        and all(counter.degree[next(i for i, c in enumerate(row) if c != 0)] == 0
                for row in r2.witness.rows)
    )
    ok = r1.verdict == "certified_true" and witness_ok
    return ok, (f"thm_T3_fractional: {r1.verdict}; "
                f"two-block counterexample: {r2.verdict} with degree-zero witness={witness_ok}")


def check_codim_t1_t2(algebras=None):
    t1 = _get(algebras, "thm_T1_fractional")
    t2 = _get(algebras, "thm_T2_fractional")
    details = []
    ok = True
    for n in range(1, 5):
        a = codim.graded_codim(t1, n)
        b = codim.graded_codim(t2, n)
        stable = (a.certification == codim.CERT_MODULAR_STABLE
                  and b.certification == codim.CERT_MODULAR_STABLE)
        good = a.value == b.value and stable
        ok = ok and good
        details.append(f"n={n}: {a.value} = {b.value} (modular, stable)")
    for n in range(1, 4):
        a = codim.graded_codim(t1, n, mode="exact")
        b = codim.graded_codim(t2, n, mode="exact")
        good = a.value == b.value
        ok = ok and good
        details.append(f"n={n}: {a.value} = {b.value} (exact)")
    return ok, "; ".join(details)


def check_c1_values(algebras=None):
    details = []
    ok = True
    for k in (2, 3):
        mk = _get(algebras, "mk_column_graded", k)
        graded = codim.graded_codim(mk, 1, mode="exact").value
        plain = codim.ordinary_codim(_get(algebras, "full_matrix", k), 1, mode="exact").value
        good = graded == k and plain == 1
        ok = ok and good
        details.append(f"k={k}: graded c_1={graded}, ordinary c_1={plain}")
    return ok, "; ".join(details)


def check_opposite_codim(algebras=None):
    # c_n(A^op) = c_n(A): the opposite of thm_T3_fractional is graded by
    # the fourth semigroup of the abstract, T3op
    mirror = opposite(_get(algebras, "thm_T3_fractional"))
    tag = classify_order2(mirror.semigroup)
    values = [codim.graded_codim(mirror, n) for n in range(1, 5)]
    stable = all(r.certification == codim.CERT_MODULAR_STABLE for r in values)
    ok = tag == "T3op" and [r.value for r in values] == [2, 8, 45, 305] and stable
    return ok, (f"thm_T3_fractional.op graded by {tag}: c_1..c_4 = "
                f"{', '.join(str(r.value) for r in values)} "
                f"({'modular, stable' if stable else 'not stable'})")


def check_phi_maximization(algebras=None):
    details = []
    ok = True
    for q in range(4, 11):
        res = asympt.maximize_phi(asympt.lemma_max_polytope(q))
        closed = asympt.lemma_max_closed_form(q)
        diff = abs(res.value - closed.value)
        good = diff <= 1e-9
        ok = ok and good
        details.append(f"q={q}: |{res.value:.10f} - closed| = {diff:.1e}")
    ok = ok and abs(asympt.lemma_max_closed_form(7).value - 6.828427124746190) < 1e-12
    ok = ok and abs(asympt.lemma_max_closed_form(6).value - 5.828427124746190) < 1e-12
    return ok, "; ".join(details)


def check_witness_nonvanishing(algebras=None):
    t1 = _get(algebras, "thm_T1_fractional")
    t3 = _get(algebras, "thm_T3_fractional")
    cases = [
        ("T1", t1, [(2, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2, 1)]),
        ("T3", t3, [(2, 1, 1, 1, 1), (2, 2, 2, 2, 2, 1)]),
    ]
    details = []
    ok = True
    for variant, alg, shapes in cases:
        certified = cochar.multiplicity_nonzero_certificate(
            alg, variant, [cochar.Partition(parts) for parts in shapes])
        for lam, good in certified.items():
            ok = ok and good
            details.append(f"{variant} {lam.parts}: {'nonzero' if good else 'ZERO'}")
    return ok, "; ".join(details)


def check_alternation_vanishing(algebras=None):
    t1 = _get(algebras, "thm_T1_fractional")
    t3 = _get(algebras, "thm_T3_fractional")
    r1 = cochar.alternation_vanishing_check(t1, t1.dim + 1, trials=200, seed=0)
    r3 = cochar.alternation_vanishing_check(t3, t3.dim + 1, trials=200, seed=0)
    ok = r1["ok"] and r3["ok"]
    return ok, (f"thm_T1_fractional n={t1.dim + 1}: {len(r1['failures'])} failures / 200; "
                f"thm_T3_fractional n={t3.dim + 1}: {len(r3['failures'])} failures / 200")


def check_theta_window(algebras=None):
    t1 = _get(algebras, "thm_T1_fractional")
    t3 = _get(algebras, "thm_T3_fractional")
    r1 = cochar.theta_scan(t1, 4)
    r3 = cochar.theta_scan(t3, 4)
    ok = r1["ok"] and r3["ok"]
    return ok, (f"thm_T1_fractional: {r1['products_checked']} nonzero products clean; "
                f"thm_T3_fractional: {r3['products_checked']} clean")


def check_exponent_formula(algebras=None):
    ut = _get(algebras, "utk_column_graded", 2)
    mk = _get(algebras, "mk_column_graded", 2)
    d_ut = structure.graded_exponent_d(ut)
    o_ut = structure.ordinary_exponent(ut)
    d_mk = structure.graded_exponent_d(mk)
    o_mk = structure.ordinary_exponent(mk)
    ok = d_ut == o_ut == 2 and d_mk == o_mk == 4
    return ok, (f"utk_column_graded(2): graded {d_ut} = ordinary {o_ut} = 2; "
                f"mk_column_graded(2): graded {d_mk} = ordinary {o_mk} = 4")


def check_hook_oracles(algebras=None):
    ok = True
    for n in range(1, 9):
        total = sum(cochar.hook_dim(l) ** 2 for l in cochar.partitions_of(n))
        ok = ok and total == math.factorial(n)
    sandwich = True
    count = 0
    for n in range(1, 13):
        for lam in cochar.partitions_of(n, max_parts=7):
            b = cochar.dim_bounds(lam, 7)
            h = cochar.hook_dim(lam)
            sandwich = sandwich and b["lower"] <= h <= b["upper"]
            count += 1
    ok = ok and sandwich
    return ok, f"sum of squared hook dims = n! for n <= 8; bounds sandwich on {count} shapes"


def check_multiplicity_cross(algebras=None):
    t3 = _get(algebras, "thm_T3_fractional")
    details = []
    ok = True
    shapes = [lam for n in range(1, 5) for lam in cochar.partitions_of(n)]
    certified = cochar.multiplicity_nonzero_certificate(t3, "T3", shapes)
    for n in range(1, 5):
        degree = [lam for lam in shapes if lam.n == n and certified[lam]]
        if not degree:
            continue
        for lam, m in cochar.multiplicities(t3, degree).items():
            if m < 1:
                ok = False
                details.append(f"{lam.parts}: certificate true but multiplicity {m}")
    return ok, "every certified shape (n <= 4) has exact multiplicity >= 1" if ok else "; ".join(details)


ALL_CHECKS = [
    ("semigroup-classification", "semigroups", check_semigroup_classification),
    ("radical-gradedness", "radical", check_radical_gradedness),
    ("graded-splitting", "splitting", check_graded_splitting),
    ("graded-simplicity", "simple", check_graded_simplicity),
    ("codim-t1-t2-agreement", "codim", check_codim_t1_t2),
    ("codim-c1-values", "codim", check_c1_values),
    ("opposite-codim", "codim", check_opposite_codim),
    ("phi-maximization", "polytope", check_phi_maximization),
    ("witness-nonvanishing", "witness", check_witness_nonvanishing),
    ("alternation-vanishing", "witness", check_alternation_vanishing),
    ("theta-window", "theta", check_theta_window),
    ("exponent-formula", "exponent", check_exponent_formula),
    ("hook-oracles", "partitions", check_hook_oracles),
    ("multiplicity-cross-check", "multiplicity", check_multiplicity_cross),
]


def run_battery(sections=None, algebras=None, emit=print):
    """Run the checks, emitting one PASS/FAIL line each; returns the results,
    each with the seconds its check took."""
    results = []
    for check_id, group, fn in ALL_CHECKS:
        if sections and not any(s in (check_id, group) for s in sections):
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(algebras)
        except Exception as exc:  # a crash is a failure with the exception as detail
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check_id, group, passed, detail, time.perf_counter() - t0))
        if emit:
            emit(f"{'PASS' if passed else 'FAIL'}  {check_id}  [{group}]  {detail}")
    return results
