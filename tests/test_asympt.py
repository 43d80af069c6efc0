import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigraded import asympt
from semigraded.asympt import (
    Polytope,
    _dual,
    _Region,
    bound_report,
    lemma_max_closed_form,
    lemma_max_polytope,
    maximize_phi,
    mu_sequence,
    mu_sequence_detailed,
    multiplicity_support_polytope,
    omega_n_membership,
    phi,
    witness_domain_polytope,
)
from semigraded.cochar import Partition, partitions_of
from semigraded.errors import BadParam, Infeasible, NegativeCoordinate, NoConvergence, QTooSmall

SQRT2 = math.sqrt(2.0)


def test_phi_convention_and_values():
    assert phi((1.0, 0.0, 0.0)) == 1.0
    assert abs(phi((0.5, 0.5)) - 2.0) < 1e-14
    q = 6
    assert abs(phi([1.0 / q] * q) - q) < 1e-12
    with pytest.raises(NegativeCoordinate):
        phi((-0.1, 1.1))


def test_closed_form_values():
    assert abs(lemma_max_closed_form(7).value - (4 + 2 * SQRT2)) < 1e-14
    assert abs(lemma_max_closed_form(6).value - (3 + 2 * SQRT2)) < 1e-14
    r4 = lemma_max_closed_form(4)
    assert abs(r4.value - (1 + 2 * SQRT2)) < 1e-14
    assert abs(sum(r4.point) - 1.0) < 1e-12
    assert _Region(lemma_max_polytope(4)).violation(np.array(r4.point)) <= 1e-12
    with pytest.raises(QTooSmall):
        lemma_max_closed_form(3)


def test_closed_form_point_value_consistent():
    for q in range(4, 11):
        r = lemma_max_closed_form(q)
        assert abs(phi(r.point) - r.value) < 1e-11


def test_maximize_matches_closed_form():
    for q in (4, 6, 7, 9):
        res = maximize_phi(lemma_max_polytope(q))
        closed = lemma_max_closed_form(q)
        assert abs(res.value - closed.value) <= 1e-9
        assert res.certified_gap <= 1e-9
        assert _Region(lemma_max_polytope(q)).violation(np.array(res.point)) <= 1e-9


def test_maximize_plain_simplex_uniform_point():
    res = maximize_phi(Polytope(5))
    assert abs(res.value - 5.0) < 1e-9
    assert all(abs(x - 0.2) < 1e-6 for x in res.point)


def test_maximize_grid_search_oracle_q3():
    # independent oracle: dense grid over the ordered simplex
    best = 0.0
    steps = 60
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            a = i / steps
            b = j / steps
            c = 1.0 - a - b
            if a >= b >= c >= -1e-12:
                best = max(best, phi((a, b, max(c, 0.0))))
    res = maximize_phi(Polytope(3))
    assert res.value >= best - 1e-9
    assert abs(res.value - 3.0) < 1e-9


def test_maximize_collapsed_region():
    res = maximize_phi(Polytope(3, gamma=((0, (0, -1, 0)),)))
    assert abs(res.value - 1.0) < 1e-9
    assert res.point[1] == 0.0 and res.point[2] == 0.0


def test_maximize_infeasible():
    bad = Polytope(3, gamma=((-2, (1, 1, 1)),))  # sum x >= 2 on the simplex
    with pytest.raises(Infeasible):
        maximize_phi(bad)


def test_omega_membership():
    t1 = witness_domain_polytope("T1")
    assert omega_n_membership(t1, Partition((2, 1, 1, 1, 1, 1)))
    assert not omega_n_membership(t1, Partition((1, 1, 1, 1, 1, 1, 1, 1)))  # 8 parts
    assert not omega_n_membership(t1, Partition((1, 1, 1, 1, 1, 1, 1)))  # 2 > 1
    assert omega_n_membership(t1, Partition((7,)))
    # the boundary shape is outside the witness domain but inside the support region
    boundary = Partition((2, 2, 2, 2, 2, 2, 1))
    assert not omega_n_membership(t1, boundary)
    assert omega_n_membership(multiplicity_support_polytope("T1"), boundary)


def test_mu_sequence_examples():
    point = lemma_max_closed_form(7).point
    mu = mu_sequence(point, 100)
    assert mu.n == 100 and len(mu) == 7
    assert mu.parts == (24, 14, 14, 14, 14, 10, 10)
    assert mu_sequence((1.0, 0.0, 0.0), 9).parts == (9,)


def test_mu_sequence_membership_and_convergence():
    point = lemma_max_closed_form(7).point
    target = phi(point)
    domain = witness_domain_polytope("T1")
    for n in (50, 100, 500, 1000):
        mu = mu_sequence(point, n)
        assert mu.n == n
        assert omega_n_membership(domain, mu), n
    mu = mu_sequence(point, 10 ** 4)
    scaled = tuple(p / 10 ** 4 for p in mu.parts)
    assert abs(phi(scaled) - target) < 0.01


def test_mu_sequence_repair_logged():
    # alpha deliberately unordered in its tail rounding: equal entries round
    # to a weakly increasing pattern at awkward n
    alpha = (0.34, 0.33, 0.33)
    mu, moves = mu_sequence_detailed(alpha, 10)
    assert mu.n == 10
    assert all(mu.parts[i] >= mu.parts[i + 1] for i in range(len(mu) - 1))


def test_phi_window_on_sampled_feasible_points():
    rng = random.Random(0)
    poly = lemma_max_polytope(6)
    from semigraded.asympt import _Region
    import numpy as np
    region = _Region(poly)
    for _ in range(50):
        raw = np.array([rng.random() for _ in range(6)])
        p = region.project(raw / raw.sum())
        if region.violation(p) <= 1e-9:
            v = phi(tuple(np.maximum(p, 0.0)))
            assert 1.0 - 1e-9 <= v <= 6.0 + 1e-9


def test_finite_n_window():
    # every partition in the discrete support region stays below the max of
    # the continuous region inflated by 1/n in the offsets
    support = multiplicity_support_polytope("T1")
    for n in (6, 9, 12):
        inflated = lemma_max_polytope(7).inflated(1.0 / n)
        bound = maximize_phi(inflated).value
        for lam in partitions_of(n, max_parts=7):
            if omega_n_membership(support, lam):
                scaled = tuple(p / n for p in lam.parts) + (0.0,) * (7 - len(lam))
                assert phi(scaled) <= bound + 1e-9, (n, lam)


def test_bound_report():
    rows = bound_report(1.0, range(1, 4), c_values={1: 1, 2: 1, 3: 1})
    assert all(r["d_pow_n"] == 1.0 for r in rows)
    assert [r["c_n"] for r in rows] == [1, 1, 1]
    point = lemma_max_closed_form(7).point
    rows = bound_report(4 + 2 * SQRT2, range(1, 21), alpha=point)
    assert len(rows) == 20
    assert all(r["hook_lower"] >= 1 for r in rows)
    # the lower-bound column grows with n
    assert rows[-1]["hook_lower"] > rows[0]["hook_lower"]


def test_bound_report_refuses_past_the_float_range(monkeypatch):
    # 6.83^369 is a float, 6.83^370 is not: refused before any row is formed
    d = 4 + 2 * SQRT2
    assert bound_report(d, [369])[0]["d_pow_n"] < float("inf")
    monkeypatch.setattr(asympt, "mu_sequence", None)
    with pytest.raises(BadParam) as refused:
        bound_report(d, range(1, 401), alpha=lemma_max_closed_form(7).point)
    assert str(refused.value) == f"d^n for d = {d} passes the float range past n = 369"


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(5, 400))
def test_mu_sequence_always_a_partition(q, n):
    point = [1.0 / q] * q
    mu = mu_sequence(point, n)
    assert mu.n == n


def test_certified_gap_on_pairing_polytopes():
    for q in range(4, 11):
        res = maximize_phi(lemma_max_polytope(q))
        assert res.method == "entropy_dual_newton"
        assert res.certified_gap <= 1e-9
        # value + certified_gap bounds the maximum from above, up to rounding
        assert res.value + res.certified_gap >= lemma_max_closed_form(q).value - 1e-12


def test_every_dual_point_bounds_the_maximum():
    # weak duality: exp(g(y)) >= max phi for every y >= 0
    rng = random.Random(0)
    for poly, best in [(lemma_max_polytope(q), lemma_max_closed_form(q).value)
                       for q in (4, 7, 10)]:
        region = _Region(poly)
        every = np.ones(poly.q, dtype=bool)
        for _ in range(50):
            y = np.array([rng.expovariate(1.0) if rng.random() < 0.5 else 0.0
                          for _ in region.offsets])
            assert math.exp(_dual(region, y, every)[0]) >= best - 1e-12


def test_maximize_on_a_face_with_free_coordinates():
    # x_3 <= 0 forces x_3 = x_4 = 0; the rest of the ordered simplex is free
    res = maximize_phi(Polytope(4, gamma=((0, (0, 0, -1, 0)),)))
    assert res.point[2] == 0.0 and res.point[3] == 0.0
    assert abs(res.point[0] - 0.5) < 1e-12 and abs(res.point[1] - 0.5) < 1e-12
    assert abs(res.value - 2.0) < 1e-12
    assert res.certified_gap <= 1e-9


def test_gap_over_tolerance_is_no_convergence():
    with pytest.raises(NoConvergence):
        maximize_phi(lemma_max_polytope(7), tolerance=-1.0)


@st.composite
def uniform_feasible_polytopes(draw):
    """Random gamma rows that the uniform point satisfies, with slack >= 0:
    the uniform point is then the optimum on the ordered simplex."""
    q = draw(st.integers(2, 8))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = tuple(draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q)))
        slack = draw(st.sampled_from((0.0, 0.05, 0.5)))
        rows.append((slack - sum(coeffs) / q, coeffs))
    return Polytope(q, tuple(rows))


@settings(max_examples=60, deadline=None)
@given(uniform_feasible_polytopes(), st.randoms(use_true_random=False))
def test_certificate_bounds_sampled_feasible_points(poly, rnd):
    res = maximize_phi(poly)
    region = _Region(poly)
    assert region.violation(np.array(res.point)) <= 1e-12
    for _ in range(10):
        p = region.project(np.array([rnd.random() for _ in range(poly.q)]))
        if region.violation(p) <= 1e-12:
            # p is feasible only to 1e-12, and phi has unbounded slope where
            # a coordinate meets zero, so the comparison allows 1e-9
            assert res.value + res.certified_gap >= phi(np.maximum(p, 0.0)) - 1e-9


# Two thin regions that maximize_phi fails on, pinned by their exact float
# rows (the FOUND on asympt.maximize_phi in CHANGES.md; ROADMAP item 6).
# Each was drawn as an ordered-simplex anchor with trailing coordinates
# exactly 0 and integer gamma rows in -3..3 whose offsets pass through the
# anchor (slack 0 for some rows), so each region holds its anchor.
_THIN_FOUND = ("FOUND: maximize_phi fails on thin regions that hold a feasible anchor "
               "(CHANGES.md; ROADMAP item 6)")
THIN_REGIONS = [
    pytest.param(
        Polytope(3, ((-1.537766879324776, (2, -1, 3)), (-1.1540777068917414, (1, 2, 0)),
                     (1.112390832310588, (-1, 1, 2)), (2.9610543328852756, (-3, -1, 0)))),
        (0.8459222931082587, 0.1540777068917413, 0.0),
        marks=pytest.mark.xfail(strict=True, raises=Infeasible, reason=_THIN_FOUND),
        id="infeasible"),
    pytest.param(
        Polytope(3, ((-1.3072412457369489, (1, 2, 2)), (-0.3855175085261019, (1, -1, -3)),
                     (0.614482491473898, (0, -2, 0)), (1.6927587542630507, (-2, -1, 0)))),
        (0.6927587542630509, 0.307241245736949, 0.0),
        marks=pytest.mark.xfail(strict=True, raises=NoConvergence, reason=_THIN_FOUND),
        id="no-convergence"),
]


@pytest.mark.parametrize("poly, anchor", [p.values for p in THIN_REGIONS],
                         ids=[p.id for p in THIN_REGIONS])
def test_thin_regions_hold_their_anchor(poly, anchor):
    assert _Region(poly).violation(np.array(anchor)) <= 1e-12


@pytest.mark.parametrize("poly, anchor", THIN_REGIONS)
def test_maximize_on_a_thin_region_through_an_anchor(poly, anchor):
    res = maximize_phi(poly)
    region = _Region(poly)
    assert region.violation(np.array(res.point)) <= 1e-12
    assert res.certified_gap <= 1e-9
    assert res.value + res.certified_gap >= phi(anchor) - 1e-9
