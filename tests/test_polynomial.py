import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzrank.polynomial import IntPolynomial, PolynomialError, match_power

from buchberger import polynomial_gcd
import polynomial_reference as ref


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


def test_leading_form_reads_ints_and_equal_fractions_alike():
    ints = (1, 4, 4, 4, 0)
    fractions = tuple(Fraction(2 * x, 2) for x in ints)
    assert F_Q.leading_form(ints) == F_Q.leading_form(fractions)
    assert F_Q.leading_form(ints) == poly(5, {(0, 0, 2, 0, 2): 16, (0, 1, 0, 1, 2): -64})
    with pytest.raises(PolynomialError):
        F_Q.leading_form([0.25, 1, 1, 1, 0])


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


def test_match_power():
    delta = poly(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -1})
    mono = poly(5, {(1, 0, 0, 0, 1): 3})
    assert match_power(mono, delta) == 0
    scaled = delta * delta * poly(5, {(2, 0, 0, 0, 0): -7})
    assert match_power(scaled, delta) == 2
    other = poly(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -3})
    assert match_power(other, delta) is None


def test_match_power_refuses_a_constant_base_and_a_degree_off_its_multiples():
    # a base that is a constant times a monomial is constant once both are
    # stripped, so no non-constant value is a power of it; a value of
    # degree 3 is no power of a base of degree 2
    delta = poly(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -1})
    for base in (IntPolynomial.constant(5, 7), poly(5, {(1, 0, 0, 0, 2): -3})):
        assert match_power(delta, base) is None
    cubic = delta * poly(5, {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 1})
    assert match_power(cubic, delta) is None


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


@settings(max_examples=200, deadline=None)
@given(polys3, polys3, st.integers(min_value=0, max_value=3), weights3)
def test_packed_arithmetic_matches_the_tuple_reference(p, q, k, w):
    a, b = p.terms, q.terms
    assert (p * q).terms == ref.mul(a, b)
    assert (p + q).terms == ref.add(a, b)
    assert (p - q).terms == ref.add(a, b, -1)
    assert (p**k).terms == ref.power(a, k, 3)
    assert len(p * q) == len(ref.mul(a, b))
    assert p.to_records() == ref.records(a)
    if q:
        quot = p.exact_div(q)
        expected = ref.exact_div(a, b)
        assert (quot is None) == (expected is None)
        assert quot is None or quot.terms == expected
        assert (p * q).exact_div(q) == p
        assert q.strip_monomial().terms == ref.strip_monomial(b)
        assert q.leading_form(w).terms == ref.leading_form(b, w)


weight_lists3 = st.lists(
    st.tuples(*[st.one_of(st.integers(min_value=-5, max_value=5), st.fractions(min_value=-3, max_value=3))] * 3),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(polys3, weight_lists3)
def test_leading_forms_match_the_reference_one_weight_at_a_time(p, ws):
    # one decode for all the weights, variables that never occur skipped
    if p.is_zero():
        return
    forms = p.leading_forms(ws)
    assert [f.terms for f in forms] == [ref.leading_form(p.terms, w) for w in ws]
    assert forms == [p.leading_form(w) for w in ws]


def test_leading_forms_refuse_bool_weights():
    p = poly(2, {(1, 0): 1, (0, 1): 1})
    for w in ([True, False], [1, False], [Fraction(1, 2), True]):
        with pytest.raises(PolynomialError):
            p.leading_form(w)
        with pytest.raises(PolynomialError):
            p.leading_forms([[1, 0], w])


@pytest.mark.parametrize(
    "terms",
    [
        {(1.9, 0): 2.7},
        {(1, 0): 2.7},
        {(1.0, 0): 2},
        {(True, 0): 1},
        {(1, 0): True},
        {(1, 0): Fraction(2)},
        {(1, "0"): 1},
        {(-1, 0): 1},
        {(1,): 1},
        {(0, 2**31): 1},
    ],
)
def test_constructor_rejects_terms_that_are_not_ints_in_range(terms):
    with pytest.raises(PolynomialError):
        IntPolynomial(2, terms)


def test_public_constructors_reject_coercible_values():
    for bad in (
        lambda: IntPolynomial.constant(2, 1.5),
        lambda: IntPolynomial.constant(2, False),
        lambda: IntPolynomial.variable(2, True),
        lambda: IntPolynomial.variable(2, 2),
        lambda: IntPolynomial(2.0, {}),
        lambda: IntPolynomial.from_records(1, [{"coeff": 2.5, "exps": [1]}]),
        lambda: IntPolynomial.from_records(1, [{"coeff": "2", "exps": [1.0]}]),
    ):
        with pytest.raises(PolynomialError):
            bad()
    assert IntPolynomial.from_records(1, [{"coeff": "-27", "exps": [3]}]).terms == {(3,): -27}


@pytest.mark.parametrize(
    "coeff", ["1_0", " 7 ", "+5", "007", "\u0665", "0", "-0", "", "x"]
)
def test_from_records_refuses_a_coefficient_to_records_never_writes(coeff):
    # int() reads each of these (bar the last two), "1_0" as 10 and the
    # Arabic-Indic digit five as 5; to_records writes only str(c), c != 0
    with pytest.raises(PolynomialError):
        IntPolynomial.from_records(1, [{"coeff": coeff, "exps": [1]}])


def test_from_records_refuses_a_repeated_exponent_vector():
    records = [{"coeff": "2", "exps": [1, 0]}, {"coeff": "3", "exps": [1, 0]}]
    with pytest.raises(PolynomialError, match="repeated"):
        IntPolynomial.from_records(2, records)


def test_product_at_the_field_limit_raises_instead_of_carrying():
    limit = 2**31 - 1
    top = IntPolynomial(2, {(0, limit): 1})
    assert top.terms == {(0, limit): 1}
    with pytest.raises(PolynomialError):
        top * IntPolynomial.variable(2, 1)
    half = IntPolynomial(2, {(1, 2**30): 1})
    with pytest.raises(PolynomialError):
        half * half
    with pytest.raises(PolynomialError):
        half**2
    below = IntPolynomial(2, {(0, 2**30 - 1): 3})
    assert (below * below).terms == {(0, limit - 1): 9}
    assert (top * IntPolynomial.variable(2, 0)).terms == {(1, limit): 1}


def test_monomial_division_never_borrows_from_the_next_field():
    a0 = IntPolynomial.variable(2, 0)
    a1 = IntPolynomial.variable(2, 1)
    assert a0.exact_div(a1) is None
    assert a1.exact_div(a0) is None
    assert (a0 * a1).exact_div(a1) == a0
    p = IntPolynomial(3, {(1, 0, 5): 1})
    assert p.exact_div(IntPolynomial(3, {(0, 1, 0): 1})) is None
    assert p.exact_div(IntPolynomial(3, {(1, 0, 2): 1})) == IntPolynomial(3, {(0, 0, 3): 1})


def test_division_refuses_a_remainder_exponent_beyond_the_limit():
    # x^2 y^2 z over x y + y z^L leaves x y^2 z^(L + 1) after one step: its z
    # exponent is past the limit, so no exact quotient can cancel it
    limit = 2**31 - 1
    p = IntPolynomial(3, {(2, 2, 1): 1})
    g = IntPolynomial(3, {(1, 1, 0): 1, (0, 1, limit): 1})
    assert p.exact_div(g) is None


def test_terms_is_a_read_only_decoded_copy():
    p = poly(2, {(2, 1): 3, (0, 4): -1})
    terms = p.terms
    terms[(7, 7)] = 1
    assert p.terms == {(2, 1): 3, (0, 4): -1}
    assert len(p) == 2
    with pytest.raises(AttributeError):
        p.terms = {}
