from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from gkzrank import linprog
from gkzrank.linprog import solve_lp

from secondary_lp_reference import feasible_point


def test_simple_max():
    res = solve_lp(2, [1, 1], a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[2, 3, 4], maximize=True)
    assert res.status == "optimal"
    assert res.objective == 4


def test_equality_constraints():
    res = solve_lp(
        2, [0, 1], a_ub=[[0, 1]], b_ub=[5], a_eq=[[1, 1]], b_eq=[1], maximize=True
    )
    assert res.status == "optimal"
    assert res.objective == 5
    assert res.x[0] + res.x[1] == 1


def test_exact_fractions():
    # optimum at a genuinely fractional vertex
    res = solve_lp(
        2,
        [1, 1],
        a_ub=[[3, 1], [1, 3]],
        b_ub=[1, 1],
        maximize=True,
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 2)
    assert res.x == (Fraction(1, 4), Fraction(1, 4))


def test_infeasible_with_farkas():
    res = solve_lp(1, None, a_ub=[[1], [-1]], b_ub=[0, -1])
    assert res.status == "infeasible"
    y_ub, y_eq = res.farkas
    # certificate: y >= 0, y.A = 0, y.b < 0 (verified internally too)
    assert all(v >= 0 for v in y_ub)
    assert y_ub[0] * 1 + y_ub[1] * (-1) == 0
    assert y_ub[0] * 0 + y_ub[1] * (-1) < 0


def test_unbounded():
    res = solve_lp(1, [1], a_ub=[[-1]], b_ub=[0], maximize=True)
    assert res.status == "unbounded"


def test_feasible_point():
    x = feasible_point(2, a_ub=[[1, 1]], b_ub=[3], a_eq=[[1, -1]], b_eq=[1])
    assert x is not None
    assert x[0] - x[1] == 1
    assert x[0] + x[1] <= 3
    assert feasible_point(1, a_ub=[[1], [-1]], b_ub=[-1, -1]) is None


def test_degenerate_pivoting_terminates():
    # a degenerate feasibility system with many redundant constraints
    rows = [[1, 1, 1], [2, 2, 2], [3, 3, 3], [-1, -1, -1], [1, 0, 0]]
    rhs = [1, 2, 3, -1, 0]
    x = feasible_point(3, a_ub=rows, b_ub=rhs, a_eq=[[1, 1, 1]], b_eq=[1])
    assert x is not None
    assert sum(x) == 1


def test_fraction_rows_and_rhs():
    half, third = Fraction(1, 2), Fraction(1, 3)
    res = solve_lp(
        2,
        [half, half],
        a_ub=[[half, third], [third, half]],
        b_ub=[1, 1],
        a_eq=[[1, -1]],
        b_eq=[third],
        maximize=True,
    )
    assert res.status == "optimal"
    assert res.x == (Fraction(4, 3), Fraction(1))
    assert res.objective == Fraction(7, 6)


def test_redundant_equalities_drive_out_on_negative_entry(monkeypatch):
    # the third equality is the sum of the first two, so an artificial
    # variable stays basic at zero after phase 1 and is driven out on a
    # negative entry
    pivots = []
    pivot = linprog._Tableau.pivot

    def recording_pivot(tab, r, c):
        pivots.append(tab.rows[r][c])
        pivot(tab, r, c)

    monkeypatch.setattr(linprog._Tableau, "pivot", recording_pivot)
    res = solve_lp(
        2,
        [-1, 2],
        a_ub=[[0, -1]],
        b_ub=[1],
        a_eq=[[0, 1], [-2, 1], [-2, 2]],
        b_eq=[-1, 1, 0],
    )
    assert any(p < 0 for p in pivots)
    assert res.status == "optimal"
    assert res.x == (-1, -1)
    assert res.objective == -1


def test_infeasible_equalities_with_negative_rhs():
    # x1 + x2 = -1 and x1 - x2 = 3 force x2 = -2 < 0
    a_ub, b_ub = [[-1, 0], [0, -1]], [0, 0]
    a_eq, b_eq = [[1, 1], [1, -1]], [-1, 3]
    res = solve_lp(2, None, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    assert res.status == "infeasible"
    y_ub, y_eq = res.farkas
    assert y_ub == (0, 2)
    assert y_eq == (1, -1)
    for j in range(2):
        assert sum(y * row[j] for y, row in zip(y_ub + y_eq, a_ub + a_eq)) == 0
    assert sum(y * b for y, b in zip(y_ub + y_eq, b_ub + b_eq)) < 0


def test_beale_cycling_example_terminates():
    # Beale (1955): the textbook rule cycles on this degenerate LP; Bland's
    # rule reaches the optimum
    res = solve_lp(
        4,
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        a_ub=[
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        b_ub=[0, 0, 1, 0, 0, 0, 0],
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(-1, 20)
    assert res.x == (Fraction(1, 25), 0, 1, 0)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _solve_square(rows, rhs):
    """The unique solution of a square rational system, or None."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][n] / m[r][r] for r in range(n))


def _vertices(nvars, a_ub, b_ub, a_eq, b_eq):
    """Basic feasible solutions: every solution of nvars tight rows."""
    out = set()
    for subset in combinations(list(zip(a_ub + a_eq, b_ub + b_eq)), nvars):
        x = _solve_square(*zip(*subset))
        if x is None:
            continue
        if all(_dot(r, x) <= b for r, b in zip(a_ub, b_ub)) and all(
            _dot(r, x) == b for r, b in zip(a_eq, b_eq)
        ):
            out.add(x)
    return out


def _brute_force(c, a_ub, b_ub, a_eq, b_eq):
    """Status and minimum of c.x over a pointed polyhedron (a_ub holds x >= 0)."""
    n = len(c)
    points = _vertices(n, a_ub, b_ub, a_eq, b_eq)
    if not points:
        return "infeasible", None
    # unbounded iff a recession direction d >= 0, normalised by sum(d) = 1,
    # has c.d < 0
    rays = _vertices(
        n, a_ub, [0] * len(a_ub), a_eq + [[1] * n], [0] * len(a_eq) + [1]
    )
    if any(_dot(c, d) < 0 for d in rays):
        return "unbounded", None
    return "optimal", min(_dot(c, x) for x in points)


@st.composite
def tiny_systems(draw):
    nvars = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    vector = st.lists(entry, min_size=nvars, max_size=nvars)
    rows = draw(st.lists(st.tuples(vector, entry, st.booleans()), max_size=4))
    a_ub = [r for r, _, eq in rows if not eq]
    b_ub = [b for _, b, eq in rows if not eq]
    a_eq = [r for r, _, eq in rows if eq]
    b_eq = [b for _, b, eq in rows if eq]
    for j in range(nvars):  # x >= 0 keeps the polyhedron pointed
        a_ub.append([-1 if k == j else 0 for k in range(nvars)])
        b_ub.append(0)
    return draw(vector), a_ub, b_ub, a_eq, b_eq


@settings(max_examples=200, deadline=None)
@given(tiny_systems())
def test_agrees_with_vertex_enumeration(system):
    c, a_ub, b_ub, a_eq, b_eq = system
    res = solve_lp(len(c), c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    status, best = _brute_force(c, a_ub, b_ub, a_eq, b_eq)
    assert res.status == status
    if status == "optimal":
        assert res.objective == best == _dot(c, res.x)
        assert all(_dot(r, res.x) <= b for r, b in zip(a_ub, b_ub))
        assert all(_dot(r, res.x) == b for r, b in zip(a_eq, b_eq))
