import pytest

from gkzrank.elimination import Budget, BudgetExceeded
from gkzrank.polynomial import IntPolynomial

from buchberger import eliminate, groebner_basis
from conftest import singular_point_vector
from fractions import Fraction


def univariate_system(exps):
    """g = sum a_j y^(e_j), its Euler derivative, and the saturation relation."""
    k = len(exps)
    nv = 2 + k

    def mono(t, y, j):
        a = [0] * k
        a[j] = 1
        return (t, y) + tuple(a)

    g = {mono(0, e, j): 1 for j, e in enumerate(exps)}
    yg = {mono(0, e, j): e for j, e in enumerate(exps) if e}
    sat = {(1, 1) + (0,) * k: 1, (0,) * nv: -1}
    return [g, yg, sat], 2, nv


def eliminant(exps, seconds=60):
    gens, ne, nv = univariate_system(exps)
    out = eliminate(gens, ne, nv, Budget(seconds=seconds))
    assert len(out) == 1
    k = len(exps)
    return IntPolynomial(k, {e[ne:]: c for e, c in out[0].items()})


QUARTIC_DISCRIMINANT = IntPolynomial(
    5,
    {
        (3, 0, 0, 0, 3): 256,
        (2, 1, 0, 1, 2): -192,
        (2, 0, 2, 0, 2): -128,
        (2, 0, 1, 2, 1): 144,
        (2, 0, 0, 4, 0): -27,
        (1, 2, 1, 0, 2): 144,
        (1, 2, 0, 2, 1): -6,
        (1, 1, 2, 1, 1): -80,
        (1, 1, 1, 3, 0): 18,
        (1, 0, 4, 0, 1): 16,
        (1, 0, 3, 2, 0): -4,
        (0, 4, 0, 0, 2): -27,
        (0, 3, 1, 1, 1): 18,
        (0, 3, 0, 3, 0): -4,
        (0, 2, 3, 0, 1): -4,
        (0, 2, 2, 2, 0): 1,
    },
)


def test_quartic_discriminant():
    assert eliminant((0, 1, 2, 3, 4)) == QUARTIC_DISCRIMINANT


def test_quadratic_discriminant():
    # b0 + b1 y + b2 y^2: sign-normalized as 4 b0 b2 - b1^2
    disc = eliminant((0, 1, 2))
    assert disc == IntPolynomial(3, {(1, 0, 1): 4, (0, 2, 0): -1})


def test_discriminant_vanishes_on_singular_families():
    disc = eliminant((0, 1, 2, 3, 4))
    for y0 in (Fraction(1), Fraction(2), Fraction(-3, 2), Fraction(5, 3)):
        a = singular_point_vector([(0,), (1,), (2,), (3,), (4,)], (y0,))
        assert disc.evaluate(a) == 0
    # and does not vanish at a smooth family
    assert disc.evaluate([1, 0, 0, 0, 1]) != 0


def test_bivariate_singular_probe():
    # the kp2 interior system: exponents shifted to be non-negative
    exps = [(1, 1), (2, 1), (1, 2), (0, 0)]
    k = len(exps)
    nv = 3 + k

    def mono(t, ys, j):
        a = [0] * k
        a[j] = 1
        return (t,) + tuple(ys) + tuple(a)

    gens = [{mono(0, e, j): 1 for j, e in enumerate(exps)}]
    for i in range(2):
        gens.append({mono(0, e, j): e[i] for j, e in enumerate(exps) if e[i]})
    gens.append({(1, 1, 1) + (0,) * k: 1, (0,) * nv: -1})
    out = eliminate(gens, 3, nv, Budget(seconds=60))
    assert len(out) == 1
    disc = IntPolynomial(k, {e[3:]: c for e, c in out[0].items()})
    assert disc == IntPolynomial(4, {(3, 0, 0, 0): 1, (0, 1, 1, 1): 27})
    for y0 in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1, 3))):
        a = singular_point_vector(exps, y0)
        assert disc.evaluate(a) == 0


def test_budget_time_exceeded():
    gens, ne, nv = univariate_system((0, 1, 2, 3, 4))
    with pytest.raises(BudgetExceeded) as err:
        eliminate(gens, ne, nv, Budget(seconds=0.0))
    assert "0s" in str(err.value)


def test_determinism():
    gens, ne, nv = univariate_system((0, 1, 2, 3))
    a = eliminate(gens, ne, nv, Budget(seconds=60))
    b = eliminate(gens, ne, nv, Budget(seconds=60))
    assert a == b


def test_groebner_elimination_property():
    # eliminating {t, y} leaves only coefficient-variable polynomials
    gens, ne, nv = univariate_system((0, 1, 2))
    gb = groebner_basis(gens, ne, nv, Budget(seconds=60))
    elim = eliminate(gens, ne, nv, Budget(seconds=60))
    for p in elim:
        for exp in p:
            assert exp[0] == 0 and exp[1] == 0
    assert len(gb) >= len(elim)
