import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzrank.polynomial import IntPolynomial, PolynomialError, match_power

from buchberger import polynomial_gcd


def poly(nvars, terms):
    return IntPolynomial(nvars, terms)


F_Q = poly(
    5,
    {
        (4, 0, 0, 0, 0): 1,
        (2, 0, 1, 0, 1): -8,
        (0, 0, 2, 0, 2): 16,
        (0, 1, 0, 1, 2): -64,
    },
)


def test_arithmetic_basics():
    x = IntPolynomial.variable(2, 0)
    y = IntPolynomial.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - x).is_zero()
    assert IntPolynomial.constant(2, 1).is_one()


def test_content_and_sign():
    p = poly(1, {(2,): -4, (0,): -6})
    assert p.content() == 2
    prim = p.primitive_part()
    assert prim == poly(1, {(2,): 2, (0,): 3})
    assert p.sign_normalized() == poly(1, {(2,): 4, (0,): 6})


def test_strip_monomial():
    p = poly(2, {(3, 1): 2, (1, 2): -5})
    assert p.strip_monomial() == poly(2, {(2, 0): 2, (0, 1): -5})


def test_leading_form_weight_examples():
    # weights (u,1,1,1,0) with u below 1/2 pick the circuit binomial in f_Q
    low = F_Q.leading_form([Fraction(1, 4), 1, 1, 1, 0])
    assert low == poly(5, {(0, 0, 2, 0, 2): 16, (0, 1, 0, 1, 2): -64})
    # with u above 1/2 the single monomial a0^4 dominates
    high = F_Q.leading_form([Fraction(3, 4), 1, 1, 1, 0])
    assert high == poly(5, {(4, 0, 0, 0, 0): 1})
    # zero weights return the polynomial itself
    assert F_Q.leading_form([0, 0, 0, 0, 0]) == F_Q


def test_leading_form_zero_error():
    with pytest.raises(PolynomialError):
        IntPolynomial.zero(2).leading_form([1, 1])


def test_exact_division():
    x = IntPolynomial.variable(2, 0)
    y = IntPolynomial.variable(2, 1)
    p = (x + 2 * y) * (3 * x - y)
    assert p.exact_div(x + 2 * y) == 3 * x - y
    assert p.exact_div(x + y) is None
    one = IntPolynomial.constant(2, 1)
    assert (p + one).exact_div(x + 2 * y) is None


def test_nth_root():
    x = IntPolynomial.variable(3, 0)
    y = IntPolynomial.variable(3, 1)
    z = IntPolynomial.variable(3, 2)
    base = 2 * x + 3 * y - z + IntPolynomial.constant(3, 5)
    assert (base ** 4).nth_root(4) == base
    assert (base ** 3).nth_root(3) == base
    assert (base ** 3).nth_root(2) is None


def test_match_power():
    delta = poly(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -1})
    mono = poly(5, {(1, 0, 0, 0, 1): 3})
    assert match_power(mono, delta) == 0
    scaled = delta * delta * poly(5, {(2, 0, 0, 0, 0): -7})
    assert match_power(scaled, delta) == 2
    other = poly(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -3})
    assert match_power(other, delta) is None


def test_polynomial_gcd():
    x = IntPolynomial.variable(2, 0)
    y = IntPolynomial.variable(2, 1)
    f = (x + y) ** 2 * (x - y)
    g = (x + y) * (x + 2 * y)
    assert polynomial_gcd(f, g) == x + y
    assert polynomial_gcd(f, (x + 2 * y)).is_constant()
    assert polynomial_gcd(IntPolynomial.zero(2), g) == g.primitive_part()


def test_embed_and_evaluate():
    p = poly(2, {(1, 1): 2, (0, 2): -1})
    wide = p.embed(4, [1, 3])
    assert wide == poly(4, {(0, 1, 0, 1): 2, (0, 0, 0, 2): -1})
    assert p.evaluate([3, 5]) == 2 * 15 - 25
    assert p.evaluate([Fraction(1, 2), 2]) == 2 - 4


def test_serialization_schema():
    rec = F_Q.to_records()
    # exponent vectors sorted lexicographically descending
    exps = [tuple(r["exps"]) for r in rec]
    assert exps == sorted(exps, reverse=True)
    assert all(isinstance(r["coeff"], str) for r in rec)
    back = IntPolynomial.from_records(5, json.loads(json.dumps(rec)))
    assert back == F_Q


def test_to_str():
    p = poly(2, {(1, 0): 1, (0, 1): -2, (0, 0): 3})
    assert p.to_str(["x", "y"]) == "x - 2*y + 3"


coeffs = st.integers(min_value=-30, max_value=30)
exps3 = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
polys3 = st.dictionaries(exps3, coeffs, min_size=1, max_size=5).map(
    lambda d: IntPolynomial(3, d)
)
weights3 = st.tuples(
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
)


@settings(max_examples=120, deadline=None)
@given(polys3, polys3, weights3)
def test_leading_form_is_multiplicative(p, q, w):
    if p.is_zero() or q.is_zero():
        return
    left = (p * q).leading_form(w)
    right = p.leading_form(w) * q.leading_form(w)
    assert left == right


@settings(max_examples=120, deadline=None)
@given(polys3, weights3, st.integers(min_value=1, max_value=60))
def test_leading_form_of_fraction_weights_and_their_integer_multiples(p, w, k):
    if p.is_zero():
        return
    # the terms maximizing the rational weighted degree, found directly
    vals = {e: sum(wi * ei for wi, ei in zip(w, e)) for e in p.terms}
    expected = IntPolynomial(3, {e: c for e, c in p.terms.items() if vals[e] == max(vals.values())})
    scale = k
    for x in w:
        scale *= x.denominator
    integer_w = [int(x * scale) for x in w]
    assert p.leading_form(w) == p.leading_form(integer_w) == expected


@settings(max_examples=120, deadline=None)
@given(polys3)
def test_serialization_round_trip(p):
    rec = json.loads(json.dumps(p.to_records()))
    assert IntPolynomial.from_records(3, rec) == p
