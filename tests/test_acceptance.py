"""The acceptance battery: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or use
the CLI equivalent `semigraded verify-paper`.
"""

from semigraded import verify


def _run(check_id):
    fn = next(fn for cid, _, fn in verify.ALL_CHECKS if cid == check_id)
    passed, detail = fn(None)
    print(f"{'PASS' if passed else 'FAIL'}  {check_id}  {detail}")
    assert passed, detail


def test_criterion_01_semigroup_classification():
    # exactly five isomorphism classes among the order-2 tables; exact
    _run("semigroup-classification")


def test_criterion_02_radical_gradedness():
    # the three dimension-pair examples: radical as displayed, not graded,
    # zero intersection with both homogeneous components; exact
    _run("radical-gradedness")


def test_criterion_03_graded_splitting():
    # graded complement for the column-graded triangular algebras at k = 2, 3:
    # graded, multiplicatively closed, dimensions additive; exact
    _run("graded-splitting")


def test_criterion_04_graded_simplicity():
    # certified_true on the 6-dimensional module-extension algebra,
    # certified_false with the degree-zero block as witness on the
    # two-block counterexample; exact
    _run("graded-simplicity")


def test_criterion_05_codim_t1_t2_agreement():
    # termwise equality of the two degree-7 sequences: n <= 4 modular with
    # two agreeing primes, n <= 3 additionally exact rational
    _run("codim-t1-t2-agreement")


def test_criterion_06_c1_values():
    # graded c_1 = k for the column-graded matrix algebra, ordinary c_1 = 1
    _run("codim-c1-values")


def test_criterion_14_opposite_codim():
    # the opposite of thm_T3_fractional is graded by T3op and has its
    # c_1..c_4 = 2, 8, 45, 305, modular and stable
    _run("opposite-codim")


def test_criterion_07_phi_maximization():
    # numeric maximum within 1e-9 of the closed form for q in 4..10;
    # q = 7 gives 6.8284271..., q = 6 gives 5.8284271...
    _run("phi-maximization")


def test_criterion_08_witness_nonvanishing():
    # the four certificate shapes evaluate to exact nonzero vectors
    _run("witness-nonvanishing")


def test_criterion_09_alternation_vanishing():
    # 200 random full alternations in dim+1 variables vanish exactly
    _run("alternation-vanishing")


def test_criterion_10_theta_window():
    # exhaustive products of length <= 4: theta additive and inside [-1, 1]
    _run("theta-window")


def test_criterion_11_exponent_formula():
    # graded = ordinary exponent: 2 on the triangular algebra, 4 on the full one
    _run("exponent-formula")


def test_criterion_12_representation_oracles():
    # hook dimension squares sum to n! (n <= 8); bound sandwich (n <= 12, <= 7 parts)
    _run("hook-oracles")


def test_criterion_13_multiplicity_cross_check():
    # exact multiplicity >= 1 wherever a certificate exists, all shapes n <= 4
    _run("multiplicity-cross-check")


def test_negative_control_corrupted_catalog():
    """A corrupted structure constant must make both checks that read it fail."""
    from fractions import Fraction

    from semigraded.gralgebra import GradedAlgebra, paper_catalog

    good = paper_catalog("utk_column_graded", 2)
    structure = {k: dict(v) for k, v in good.structure.items()}
    structure[(0, 1)] = {2: Fraction(1)}  # e11 * e12 now lands on e22
    corrupted = GradedAlgebra(
        dim=good.dim, basis_labels=good.basis_labels, structure=structure,
        degree=good.degree, semigroup=good.semigroup, unit=good.unit,
        name="utk_column_graded(2)")
    results = verify.run_battery(
        sections=("splitting", "exponent"),
        algebras={"utk_column_graded(2)": corrupted},
        emit=None)
    assert [(r.check_id, r.passed) for r in results] == \
        [("graded-splitting", False), ("exponent-formula", False)]
