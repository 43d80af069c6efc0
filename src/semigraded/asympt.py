"""The product function phi, its polytopes, and concave maximization.

This is the one deliberately numerical module: the closed-form optima
involve sqrt(2), so everything runs on 64-bit floats with explicit
tolerances (1e-9 for optima, 1e-12 for feasibility).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cochar import Partition
from .errors import BadParam, Infeasible, NegativeCoordinate, NoConvergence, QTooSmall

FEAS_TOL = 1e-12
DEFAULT_TOL = 1e-9
NEWTON_STEPS = 100  # the pairing polytopes need 3-4; a face costs a few more
PROJECT_ROUNDS = 400


@dataclass(frozen=True)
class Polytope:
    """Constraint region for the concave maximization: the ordered simplex
    x_1 >= ... >= x_q >= 0, sum x = 1, cut by the gamma rows (offset,
    coefficients), each offset + sum_j coeffs[j] x_j >= 0.  r_cutoff only
    participates in the discrete membership test.
    """

    q: int
    gamma: tuple = ()
    r_cutoff: int | None = None

    def halfspaces(self):
        """All inequality rows as (offset, coeffs), the ordering chain last."""
        rows = [(float(off), tuple(float(c) for c in coeffs)) for off, coeffs in self.gamma]
        for i in range(self.q):
            coeffs = [0.0] * self.q
            coeffs[i] = 1.0
            if i + 1 < self.q:
                coeffs[i + 1] = -1.0
            rows.append((0.0, tuple(coeffs)))
        return rows

    def inflated(self, amount: float) -> "Polytope":
        """Relax every gamma offset by the given amount (finite-n slack)."""
        rows = tuple((float(off) + amount, coeffs) for off, coeffs in self.gamma)
        return Polytope(self.q, rows, self.r_cutoff)


@dataclass
class OptimizationResult:
    point: tuple
    value: float
    method: str
    certified_gap: float = 0.0


def phi(alpha) -> float:
    """prod alpha_i^(-alpha_i) with the 0^0 = 1 convention."""
    total = 0.0
    for a in alpha:
        if a < 0:
            raise NegativeCoordinate(f"negative coordinate {a}")
        if a > 0:
            total -= a * math.log(a)
    return math.exp(total)


def lemma_max_polytope(q: int) -> Polytope:
    """Ordering + simplex + the pairing constraint x_{q-1} + x_q <= x_1."""
    coeffs = [0.0] * q
    coeffs[0] = 1.0
    coeffs[q - 2] = -1.0
    coeffs[q - 1] = -1.0
    return Polytope(q, ((0.0, tuple(coeffs)),))


def lemma_max_closed_form(q: int) -> OptimizationResult:
    """The exact maximizer on the pairing polytope and its value (q-3)+2*sqrt(2)."""
    if q < 4:
        raise QTooSmall("the closed form needs q >= 4")
    denom = 4.0 + (q - 3) * math.sqrt(2.0)
    point = [2.0 / denom]
    point += [math.sqrt(2.0) / denom] * (q - 3)
    point += [1.0 / denom, 1.0 / denom]
    value = (q - 3) + 2.0 * math.sqrt(2.0)
    return OptimizationResult(tuple(point), value, "closed_form")


def _project_simplex(x):
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    n = len(x)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, n + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    theta = css[rho - 1] / rho
    return np.maximum(x - theta, 0.0)


class _Region:
    """Precomputed arrays for one polytope, for the hot numeric loops."""

    def __init__(self, poly: Polytope):
        self.poly = poly
        rows = poly.halfspaces()
        self.offsets = np.array([off for off, _ in rows])
        self.coeffs = np.array([c for _, c in rows])
        self.norms = (self.coeffs ** 2).sum(axis=1)

    def violation(self, y) -> float:
        """The worst halfspace shortfall or distance of sum y from 1."""
        worst = float(-(self.offsets + self.coeffs @ y).min())
        return max(worst, abs(float(y.sum()) - 1.0), 0.0)

    def project(self, x):
        """A feasible point near x to FEAS_TOL: the simplex projection, then
        cyclic corrections of the violated halfspaces, for PROJECT_ROUNDS
        rounds at most."""
        y = np.array(x, dtype=float)
        for _ in range(PROJECT_ROUNDS):
            y = _project_simplex(y)
            resid = self.offsets + self.coeffs @ y
            bad = np.nonzero(resid < -FEAS_TOL)[0]
            if bad.size == 0:
                if self.violation(y) <= FEAS_TOL:
                    return y
                continue
            for i in bad:
                r = self.offsets[i] + float(self.coeffs[i] @ y)
                if r < 0:
                    y = y - (r / self.norms[i]) * self.coeffs[i]
        return y


def _dual(region: _Region, y, cols):
    """The entropy dual g at multipliers y >= 0, on the coordinates cols.

    With s = A^T y, g(y) = y.offsets + log sum_i exp(s_i); the inner
    maximum of the Lagrangian over the simplex is at x proportional to
    exp(s).  Returns (g, its gradient, which is the constraint residual at
    x, its Hessian, x).
    """
    c = region.coeffs[:, cols]
    s = c.T @ y
    with np.errstate(over="ignore", invalid="ignore"):
        top = s.max()
        e = np.exp(s - top)
        x = e / e.sum()
        value = float(region.offsets @ y + top + math.log(e.sum()))
        cx = c @ x
        hess = (c * x) @ c.T - np.outer(cx, cx)
        grad = region.offsets + c @ x
    return value, grad, hess, x


def _dual_newton(region: _Region, y, cols):
    """Minimise the dual over y >= 0 by projected Newton (Bertsekas 1982).

    Multipliers at or near zero whose gradient pushes them out stay at
    zero; the rest take a Newton step damped by |g|^2, since redundant
    halfspaces make the Hessian singular.  The Armijo test allows rounding
    noise.  On a face where x_i -> 0 the dual falls like exp(-t) along a
    ray, so an accepted full step is doubled while the value still falls.
    """
    def trial(t):
        z = np.maximum(y + t * step, 0.0)
        return z, _dual(region, z, cols)

    value, grad, hess, _ = _dual(region, y, cols)
    for _ in range(NEWTON_STEPS):
        if y @ grad <= 1e-14 and grad.min() >= -1e-14:
            break
        near = min(1e-3, float(np.abs(y - np.maximum(y - grad, 0.0)).max()))
        free = (y > near) | (grad <= 0)
        step = -y
        g = grad[free]
        damped = hess[np.ix_(free, free)] + (g @ g) * np.eye(len(g))
        step[free] = np.linalg.lstsq(damped, -g, rcond=None)[0]
        noise = 1e-15 * (1.0 + abs(value))
        t = 1.0
        z, nxt = trial(t)
        while not nxt[0] <= value + 1e-4 * float(grad @ (z - y)) + noise:
            t *= 0.5
            if t < 1e-12:
                return y
            z, nxt = trial(t)
        while 1.0 <= t < 1e6:
            z2, far = trial(2.0 * t)
            if not far[0] < nxt[0] - noise:
                break
            t, z, nxt = 2.0 * t, z2, far
        if np.array_equal(z, y):
            break
        y = z
        value, grad, hess, _ = nxt
    return y


def maximize_phi(poly: Polytope, tolerance: float = DEFAULT_TOL) -> OptimizationResult:
    """Maximize phi by one projected-Newton solve of the entropy dual.

    log phi = -sum x log x is strictly concave, so its maximum over the
    polytope is the minimum of the dual g over y >= 0 (Boyd-Vandenberghe,
    Convex Optimization, ch. 5), recovered as x proportional to exp(A^T y).
    A coordinate that is zero on the whole region sends y to infinity: it
    shows as x_i below 1e-12 of the largest, and the solve is repeated
    on the face without it, which gives exact zeros there.  The point is
    then made feasible to 1e-12 by _Region.project.  By weak duality every
    y >= 0 bounds the maximum by exp(g(y)), so certified_gap =
    exp(g(y)) - phi(x) bounds the distance to the true maximum (up to
    floating-point rounding).  A NaN tolerance is BadParam: no gap would
    exceed it.
    """
    if math.isnan(tolerance):
        raise BadParam("tolerance must be a number, got nan")
    q = poly.q
    region = _Region(poly)
    every = np.ones(q, dtype=bool)
    y = _dual_newton(region, np.zeros(len(region.offsets)), every)
    bound, _, _, x = _dual(region, y, every)
    live = x > 1e-12 * x.max()
    if not live.all():
        x = np.zeros(q)
        x[live] = _dual(region, _dual_newton(region, y, live), live)[3]
    x = np.where(live, np.maximum(region.project(x), 0.0), 0.0)
    if not region.violation(x) <= FEAS_TOL:
        if region.violation(region.project(np.full(q, 1.0 / q))) > 1e-9:
            raise Infeasible("no feasible point found from the uniform start")
        raise NoConvergence("the dual point could not be made feasible at 1e-12")
    value = phi(x)
    gap = max(0.0, math.exp(bound) - value)
    if gap > tolerance:
        raise NoConvergence(f"the dual bound exceeds the value by {gap}")
    return OptimizationResult(tuple(float(a) for a in x), value, "entropy_dual_newton", gap)


# -- discrete membership and the floor sequence ---------------------------------

def omega_n_membership(poly: Polytope, lam: Partition) -> bool:
    """Exact integer test of the discrete constraints on a partition."""
    q = poly.q
    for off, coeffs in poly.gamma:
        total = Fraction(off).limit_denominator(10 ** 9) if isinstance(off, float) else Fraction(off)
        for j, c in enumerate(coeffs, start=1):
            cf = Fraction(c).limit_denominator(10 ** 9) if isinstance(c, float) else Fraction(c)
            total += cf * lam.part(j)
        if total < 0:
            return False
    if poly.r_cutoff is not None and lam.part(poly.r_cutoff + 1) > 0:
        return False
    return True


def witness_domain_polytope(variant: str) -> Polytope:
    """Discrete region where the witness construction runs without a
    surplus column: at most q parts and lambda_{q-1}+lambda_q <= lambda_1."""
    q = 7 if variant == "T1" else 6
    coeffs = [0] * q
    coeffs[0] = 1
    coeffs[q - 2] = -1
    coeffs[q - 1] = -1
    return Polytope(q, ((0, tuple(coeffs)),), r_cutoff=q)


def multiplicity_support_polytope(variant: str) -> Polytope:
    """Discrete region the nonzero multiplicities are confined to:
    lambda_{q-1}+lambda_q <= lambda_1 + 1 with at most q parts."""
    q = 7 if variant == "T1" else 6
    coeffs = [0] * q
    coeffs[0] = 1
    coeffs[q - 2] = -1
    coeffs[q - 1] = -1
    return Polytope(q, ((1, tuple(coeffs)),), r_cutoff=q)


def mu_sequence_detailed(alpha, n: int):
    """Floor-scale a feasible point to a partition of n.

    mu_i = floor(alpha_i n) for i >= 2 and mu_1 takes the remainder;
    when flooring breaks weak decrease the excess moves left one unit at
    a time, each move logged.
    """
    q = len(alpha)
    mu = [0] * q
    for i in range(1, q):
        mu[i] = math.floor(alpha[i] * n)
    mu[0] = n - sum(mu[1:])
    moves = []
    changed = True
    while changed:
        changed = False
        for i in range(q - 1):
            if mu[i] < mu[i + 1]:
                mu[i] += 1
                mu[i + 1] -= 1
                moves.append(i + 1)
                changed = True
    parts = tuple(p for p in mu if p > 0)
    return Partition(parts), moves


def mu_sequence(alpha, n: int) -> Partition:
    return mu_sequence_detailed(alpha, n)[0]


def bound_report(d: float, n_values, c_values=None, alpha=None):
    """Rows (n, d^n, c_n, hook lower bound) for the report tables.

    Purely descriptive: the growth constants in front of d^n are
    existential, so no ratio here claims convergence.  Raises BadParam,
    before any row, when d^n passes the float range.
    """
    from .cochar import hook_dim
    n_values = list(n_values)
    top = math.log(sys.float_info.max) / math.log(d) if d > 1 else math.inf
    if max(n_values, default=0) > top:
        raise BadParam(f"d^n for d = {d} passes the float range past n = {math.floor(top)}")
    rows = []
    c_map = dict(c_values or {})
    for n in n_values:
        row = {"n": n, "d_pow_n": d ** n, "c_n": c_map.get(n)}
        if alpha is not None:
            row["hook_lower"] = hook_dim(mu_sequence(alpha, n))
        else:
            row["hook_lower"] = None
        rows.append(row)
    return rows
