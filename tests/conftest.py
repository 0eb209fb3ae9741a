import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from gkzrank.elimination import Budget
from gkzrank.lattice import kernel_basis
from gkzrank.polytope import InvalidConfiguration, validate_aset
from gkzrank.secondary import secondary_polytope


@pytest.fixture(scope="session")
def a3():
    return validate_aset(2, [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)])


@pytest.fixture(scope="session")
def kp2():
    return validate_aset(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)])


@pytest.fixture(scope="session")
def f2():
    return validate_aset(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 2, 1), (0, -1, 1)])


@pytest.fixture(scope="session")
def grid():
    """The 3 x 3 grid: 387 regular triangulations, 1,190 flips."""
    return validate_aset(3, [(1, i, j) for i in range(3) for j in range(3)])


@pytest.fixture(scope="session")
def grid_secondary(grid):
    return secondary_polytope(grid)


@pytest.fixture(scope="session")
def a3_secondary(a3):
    return secondary_polytope(a3)


@pytest.fixture(scope="session")
def kp2_secondary(kp2):
    return secondary_polytope(kp2)


@pytest.fixture(scope="session")
def f2_secondary(f2):
    return secondary_polytope(f2)


def make_random_aset(rng: random.Random):
    """Random valid A-set with d <= 3, n <= 6 in desk-scale windows."""
    while True:
        d = rng.choice([2, 3])
        n = rng.randint(d + 1, 6)
        try:
            if d == 2:
                start = rng.randint(-3, 0)
                ks = rng.sample(range(6), n)
                pts = [(1, start + k) for k in sorted(ks)]
            else:
                box = [(x, y) for x in range(-1, 3) for y in range(-1, 3)]
                pts = [(x, y, 1) for x, y in sorted(rng.sample(box, n))]
            return validate_aset(d, pts)
        except (InvalidConfiguration, ValueError):
            continue


def four_dimensional_draws():
    """40 seeded d = 4 configurations of 6 to 8 points (1, x, y, z),
    0 <= x <= 1, 0 <= y, z <= 2."""
    rng = random.Random(314159)
    box = [(x, y, z) for x in range(2) for y in range(3) for z in range(3)]
    out = []
    while len(out) < 40:
        pts = sorted(rng.sample(box, rng.randint(6, 8)))
        try:
            out.append(validate_aset(4, [(1,) + p for p in pts]))
        except InvalidConfiguration:
            continue
    return out


@st.composite
def height_one_asets(draw):
    """Height-one configurations with d = 3 or 4; d = 4 reaches q = 3."""
    d = draw(st.sampled_from([3, 4]))
    r = 2 if d == 3 else 1
    box = list(product(range(-r, r + 1), repeat=d - 1))
    pts = draw(st.lists(st.sampled_from(box), min_size=d + 1, max_size=d + 3, unique=True))
    try:
        return validate_aset(d, [p + (1,) for p in pts])
    except InvalidConfiguration:
        assume(False)


def singular_point_vector(exps, y0):
    """Coefficients making the family singular at the given torus point.

    For exponents w_j and a rational point y0 this solves the linear system
    g(y0) = 0, y_i dg/dy_i (y0) = 0 exactly and returns one rational
    coefficient vector in its kernel; the family discriminant must vanish
    there.  This is the independent check used against the face oracles
    and the Buchberger reference in buchberger.py.
    """
    k = len(exps)
    nx = len(exps[0])
    rows = []
    monos = []
    for w in exps:
        val = Fraction(1)
        for y, e in zip(y0, w):
            val *= Fraction(y) ** e
        monos.append(val)
    rows.append(list(monos))
    for i in range(nx):
        rows.append([w[i] * monos[j] for j, w in enumerate(exps)])
    # clear denominators to integers and take an exact kernel vector
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // __import__("math").gcd(den, x.denominator)
    int_rows = [[int(x * den) for x in row] for row in rows]
    kern = kernel_basis(int_rows)
    assert kern, "singular system has no kernel"
    # prefer a kernel vector with every coordinate nonzero if available
    for vec in kern:
        if all(v != 0 for v in vec):
            return tuple(Fraction(v) for v in vec)
    total = [sum(vec[i] for vec in kern) for i in range(k)]
    return tuple(Fraction(v) for v in total)


@pytest.fixture(scope="session")
def oracle_budget():
    return Budget(seconds=30)
