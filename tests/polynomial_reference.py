"""A tuple-dict reference for IntPolynomial: a polynomial is a dict from
exponent tuple to nonzero int, and every operation is written out term by
term on the tuples, with no packing."""

from fractions import Fraction


def clean(p):
    return {e: c for e, c in p.items() if c}


def add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return clean(out)


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return clean(out)


def power(p, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = mul(out, p)
    return out


def exact_div(p, g):
    """The quotient by repeated division of lex-leading terms, or None when
    a leading term does not divide."""
    rem, quot = dict(p), {}
    lead_g = max(g)
    while rem:
        lead_r = max(rem)
        q = tuple(a - b for a, b in zip(lead_r, lead_g))
        c, r = divmod(rem[lead_r], g[lead_g])
        if min(q, default=0) < 0 or r:
            return None
        quot[q] = c
        rem = add(rem, mul({q: c}, g), -1)
    return quot


def strip_monomial(p):
    low = tuple(map(min, zip(*p)))
    return {tuple(a - b for a, b in zip(e, low)): c for e, c in p.items()}


def leading_form(p, weights):
    vals = {e: sum(Fraction(w) * x for w, x in zip(weights, e)) for e in p}
    best = max(vals.values())
    return {e: c for e, c in p.items() if vals[e] == best}


def records(p):
    return [{"coeff": str(p[e]), "exps": list(e)} for e in sorted(p, reverse=True)]
