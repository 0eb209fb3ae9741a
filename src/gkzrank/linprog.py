"""Exact linear programming over the rationals, on an integer tableau.

A dense two-phase simplex with Bland's rule, fraction-free: each tableau row
is stored as integers, a positive multiple of the rational row, and is
divided by the gcd of its entries after every pivot.  The multiple is the
row's entry in its basic column.  The cost row is pivoted with the other
rows and carries its own integer scale, and the ratio test compares by
cross-multiplication, so the pivots are the ones Bland's rule takes on the
rational tableau (Bareiss 1968; Azulay and Pique 1998).

Coefficients may be ints or Fractions.  All variables are free; callers
encode non-negativity explicitly.  The one caller in the package,
secondary.normal_cone_sample, poses strict feasibility as slack maximization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


class LPResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    # for infeasible systems: multipliers y (>=0 on inequality rows) with
    # y.A_ub + z.A_eq = 0 and y.b_ub + z.b_eq < 0
    farkas: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None


def _exact(values) -> list:
    return [v if isinstance(v, int) else Fraction(v) for v in values]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_multiple(values) -> tuple[list[int], int]:
    """Integers equal to the rationals times a positive multiplier, and it."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class _Tableau:
    def __init__(self, rows, basis):
        self.rows = rows  # lists of ints, last entry = rhs
        self.basis = basis
        # reduced costs, then minus the objective value, times self.scale
        self.cost: list[int] = []
        self.scale = 1

    def set_costs(self, costs) -> None:
        """Install the cost row c - c_B.B^-1.A for the current basis."""
        ints, den = _integer_multiple(costs)
        # (row, its scale, cost of its basic column) where that cost is nonzero
        basic = [
            (row, row[b], ints[b]) for row, b in zip(self.rows, self.basis) if ints[b]
        ]
        mult = lcm(*(scale for _, scale, _ in basic))
        cost = [mult * c for c in ints] + [0]
        for row, scale, cb in basic:
            f = cb * (mult // scale)
            cost = [a - f * b for a, b in zip(cost, row)]
        self._store_cost(cost, den * mult)

    def _store_cost(self, cost, scale) -> None:
        g = gcd(scale, *cost)
        self.cost = [v // g for v in cost]
        self.scale = scale // g

    def pivot(self, r, c):
        prow = self.rows[r]
        p = prow[c]
        if p < 0:
            prow = self.rows[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(self.rows):
            f = row[c]
            if f and i != r:
                self.rows[i] = _primitive([p * a - f * b for a, b in zip(row, prow)])
        f = self.cost[c]
        if f:
            self._store_cost(
                [p * a - f * b for a, b in zip(self.cost, prow)], self.scale * p
            )
        self.basis[r] = c


def _run_simplex(tab: _Tableau, ncols: int):
    """Minimize the cost row over columns below ncols with Bland's rule.

    Returns the optimum, or None when unbounded below.
    """
    while True:
        cost = tab.cost
        # Bland: the first improving index
        entering = next((j for j in range(ncols) if cost[j] < 0), -1)
        if entering < 0:
            return Fraction(-cost[-1], tab.scale)
        leaving = -1
        for i, row in enumerate(tab.rows):
            a = row[entering]
            if a > 0:
                if leaving < 0:
                    leaving, num, den = i, row[-1], a
                    continue
                # row[-1] / a against num / den, both denominators positive
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and tab.basis[i] < tab.basis[leaving]):
                    leaving, num, den = i, row[-1], a
        if leaving < 0:
            return None  # unbounded below
        tab.pivot(leaving, entering)


def solve_lp(
    nvars: int,
    objective=None,
    a_ub=(),
    b_ub=(),
    a_eq=(),
    b_eq=(),
    maximize: bool = False,
) -> LPResult:
    """Solve min/max objective.x subject to a_ub.x <= b_ub and a_eq.x = b_eq.

    The x variables are unrestricted in sign.
    """
    a_ub = [_exact(row) for row in a_ub]
    b_ub = _exact(b_ub)
    a_eq = [_exact(row) for row in a_eq]
    b_eq = _exact(b_eq)
    if objective is None:
        obj = [0] * nvars
    else:
        obj = _exact(objective)
        if maximize:
            obj = [-v for v in obj]

    n_ub = len(a_ub)
    n_eq = len(a_eq)
    m = n_ub + n_eq
    # columns: x+ (nvars) | x- (nvars) | slacks (n_ub) | artificials (m) | rhs
    nx = 2 * nvars
    art = nx + n_ub
    ncols = art + m
    rows = []
    flipped = []
    for r in range(m):
        if r < n_ub:
            coeff, rhs = a_ub[r], b_ub[r]
        else:
            coeff, rhs = a_eq[r - n_ub], b_eq[r - n_ub]
        row = [0] * (ncols + 1)
        for j in range(nvars):
            row[j] = coeff[j]
            row[nvars + j] = -coeff[j]
        if r < n_ub:
            row[nx + r] = 1
        row[-1] = rhs
        flip = rhs < 0
        if flip:
            row = [-v for v in row]
        flipped.append(flip)
        row[art + r] = 1
        rows.append(_primitive(_integer_multiple(row)[0]))

    tab = _Tableau(rows, list(range(art, ncols)))

    # phase 1: minimize the artificial sum
    tab.set_costs([0] * art + [1] * m)
    value = _run_simplex(tab, ncols)
    if value is None:
        raise RuntimeError("phase-1 objective unbounded; malformed tableau")
    if value > 0:
        # Farkas certificate from the phase-1 duals: y_r = 1 - reduced cost of
        # the r-th artificial column
        duals = []
        for r in range(m):
            y = Fraction(tab.scale - tab.cost[art + r], tab.scale)
            if flipped[r]:
                y = -y
            duals.append(y)
        y_ub = tuple(-v for v in duals[:n_ub])
        y_eq = tuple(-v for v in duals[n_ub:])
        _verify_farkas(nvars, a_ub, b_ub, a_eq, b_eq, y_ub, y_eq)
        return LPResult(status="infeasible", farkas=(y_ub, y_eq))

    # drive remaining artificial variables out of the basis where possible
    for i in range(m):
        if tab.basis[i] >= art:
            row = tab.rows[i]
            pivot_col = next((j for j in range(art) if row[j]), -1)
            if pivot_col >= 0:
                tab.pivot(i, pivot_col)

    tab.set_costs(obj + [-v for v in obj] + [0] * (ncols - nx))
    value = _run_simplex(tab, art)
    if value is None:
        return LPResult(status="unbounded")

    x = [Fraction(0)] * nx
    for row, b in zip(tab.rows, tab.basis):
        if b < nx:
            x[b] = Fraction(row[-1], row[b])
    point = tuple(x[j] - x[nvars + j] for j in range(nvars))
    objective_value = sum(o * v for o, v in zip(obj, point))
    if maximize:
        objective_value = -objective_value
    return LPResult(status="optimal", x=point, objective=objective_value)


def _verify_farkas(nvars, a_ub, b_ub, a_eq, b_eq, y_ub, y_eq):
    for y in y_ub:
        if y < 0:
            raise RuntimeError("farkas certificate extraction failed (sign)")
    for j in range(nvars):
        total = sum(y * row[j] for y, row in zip(y_ub, a_ub))
        total += sum(z * row[j] for z, row in zip(y_eq, a_eq))
        if total != 0:
            raise RuntimeError("farkas certificate extraction failed (combination)")
    rhs = sum(y * b for y, b in zip(y_ub, b_ub)) + sum(z * b for z, b in zip(y_eq, b_eq))
    if rhs >= 0:
        raise RuntimeError("farkas certificate extraction failed (rhs)")

