"""Sparse multivariate polynomials over arbitrary-precision integers.

Terms are stored as a map from exponent tuple (length = number of variables)
to a nonzero integer coefficient.  The canonical serialization orders terms
by exponent vector, lexicographically descending, and must round-trip
bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Exponent = tuple[int, ...]


class PolynomialError(ValueError):
    pass


class IntPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        clean: dict[Exponent, int] = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = int(c)
                if c == 0:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != self.nvars or any(x < 0 for x in e):
                    raise PolynomialError("bad exponent vector %r" % (e,))
                clean[e] = clean.get(e, 0) + c
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: int(c)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "IntPolynomial":
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, IntPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _like(self, other):
        if not isinstance(other, IntPolynomial):
            raise PolynomialError("expected IntPolynomial")
        if other.nvars != self.nvars:
            raise PolynomialError("variable count mismatch")

    def __add__(self, other):
        self._like(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return IntPolynomial(self.nvars, out)

    def __sub__(self, other):
        self._like(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return IntPolynomial(self.nvars, out)

    def __neg__(self):
        return IntPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial.zero(self.nvars)
            return IntPolynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._like(other)
        out: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return IntPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolynomialError("negative power")
        result = IntPolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def lead_exponent(self) -> Exponent:
        """Lexicographically largest exponent vector."""
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        return max(self.terms)

    def trail_exponent(self) -> Exponent:
        if not self.terms:
            raise PolynomialError("zero polynomial has no trailing term")
        return min(self.terms)

    def primitive_part(self) -> "IntPolynomial":
        """Content-free copy with positive lex-leading coefficient."""
        if not self.terms:
            return self
        g = self.content()
        if self.terms[self.lead_exponent()] < 0:
            g = -g
        if g == 1:
            return self
        return IntPolynomial(self.nvars, {e: c // g for e, c in self.terms.items()})

    def sign_normalized(self) -> "IntPolynomial":
        """Same polynomial up to sign, lex-largest monomial positive."""
        if self.terms and self.terms[self.lead_exponent()] < 0:
            return -self
        return self

    def exponent_gcd(self) -> Exponent:
        """Coordinate-wise minimum exponent (the largest dividing monomial)."""
        if not self.terms:
            raise PolynomialError("zero polynomial")
        it = iter(self.terms)
        low = list(next(it))
        for e in it:
            for i, x in enumerate(e):
                if x < low[i]:
                    low[i] = x
        return tuple(low)

    def strip_monomial(self) -> "IntPolynomial":
        low = self.exponent_gcd()
        if not any(low):
            return self
        return IntPolynomial(
            self.nvars, {tuple(a - b for a, b in zip(e, low)): c for e, c in self.terms.items()}
        )

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def leading_form(self, weights) -> "IntPolynomial":
        """Sum of the terms maximizing <weights, exponent>."""
        if not self.terms:
            raise PolynomialError("leading form of the zero polynomial")
        w = [Fraction(x) for x in weights]
        if len(w) != self.nvars:
            raise PolynomialError("weight vector length mismatch")
        # a positive integer multiple of the weights has the same maximizers
        scale = lcm(*(x.denominator for x in w))
        w = [x.numerator * (scale // x.denominator) for x in w]
        vals = {e: sum(map(mul, w, e)) for e in self.terms}
        best = max(vals.values())
        return IntPolynomial(self.nvars, {e: c for e, c in self.terms.items() if vals[e] == best})

    def exact_div(self, other) -> "IntPolynomial | None":
        """Exact quotient self / other over ZZ, or None when not divisible."""
        self._like(other)
        if other.is_zero():
            raise PolynomialError("division by zero polynomial")
        rem = dict(self.terms)
        quot: dict[Exponent, int] = {}
        lead_g = max(other.terms)
        lc_g = other.terms[lead_g]
        while rem:
            lead_r = max(rem)
            q_exp = tuple(a - b for a, b in zip(lead_r, lead_g))
            if any(x < 0 for x in q_exp):
                return None
            c, r = divmod(rem[lead_r], lc_g)
            if r != 0:
                return None
            quot[q_exp] = c
            for e, cg in other.terms.items():
                te = tuple(a + b for a, b in zip(q_exp, e))
                s = rem.get(te, 0) - c * cg
                if s:
                    rem[te] = s
                else:
                    rem.pop(te, None)
        return IntPolynomial(self.nvars, quot)

    def nth_root(self, m: int) -> "IntPolynomial | None":
        """The exact m-th root, or None when self is not an m-th power."""
        if m <= 0:
            raise PolynomialError("root order must be positive")
        if m == 1:
            return self
        if self.is_zero():
            return self
        lead = self.lead_exponent()
        lc = self.terms[lead]
        if any(x % m for x in lead):
            return None
        if lc < 0 and m % 2 == 0:
            return None
        root_c = _int_nth_root(abs(lc), m)
        if root_c is None:
            return None
        if lc < 0:
            root_c = -root_c
        root = IntPolynomial(self.nvars, {tuple(x // m for x in lead): root_c})
        # peel terms in lex order: the next-highest term of self - root^m
        # determines the next term of the root
        lead_r = root.lead_exponent()
        for _ in range(len(self.terms) * m + 2):
            diff = self - root**m
            if diff.is_zero():
                return root
            t = diff.lead_exponent()
            denom_exp = tuple(x * (m - 1) for x in lead_r)
            t_exp = tuple(a - b for a, b in zip(t, denom_exp))
            if any(x < 0 for x in t_exp) or t_exp >= lead_r:
                return None
            c, r = divmod(diff.terms[t], m * root_c ** (m - 1))
            if r != 0:
                return None
            root = root + IntPolynomial(self.nvars, {t_exp: c})
        return None

    def embed(self, nvars: int, positions) -> "IntPolynomial":
        """Place variable i of self at positions[i] in a wider variable set."""
        positions = list(positions)
        if len(positions) != self.nvars:
            raise PolynomialError("positions length mismatch")
        out = {}
        for e, c in self.terms.items():
            big = [0] * nvars
            for i, x in enumerate(e):
                big[positions[i]] += x
            out[tuple(big)] = c
        return IntPolynomial(nvars, out)

    def evaluate(self, values):
        """Exact evaluation at integers or Fractions."""
        vals = list(values)
        if len(vals) != self.nvars:
            raise PolynomialError("value vector length mismatch")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, x in zip(vals, e):
                if x:
                    term *= v**x
            total += term
        return total

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"coeff": str(self.terms[e]), "exps": list(e)}
            for e in sorted(self.terms, reverse=True)
        ]

    @classmethod
    def from_records(cls, nvars: int, records) -> "IntPolynomial":
        return cls(nvars, {tuple(r["exps"]): int(r["coeff"]) for r in records})

    def to_str(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            if self.nvars <= 10:
                names = ["a%d" % i for i in range(self.nvars)]
            else:
                names = ["a_%d" % i for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                names[i] if x == 1 else "%s^%d" % (names[i], x)
                for i, x in enumerate(e)
                if x
            )
            if not mono:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = mono
            else:
                piece = "%d*%s" % (abs(c), mono)
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)

    def __repr__(self):
        return "IntPolynomial(%d, %s)" % (self.nvars, self.to_str())


def _int_nth_root(value: int, m: int) -> int | None:
    if value < 0:
        return None
    if value in (0, 1):
        return value
    lo, hi = 1, 1
    while hi**m < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**m < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**m == value else None


def match_power(value: IntPolynomial, base: IntPolynomial) -> int | None:
    """The k >= 0 with value = +-base^k after both are made primitive.

    Both inputs are reduced to their monomial-free, content-free, sign
    normalized cores before matching; None when no power fits.
    """
    core = value.strip_monomial().primitive_part().sign_normalized()
    b = base.strip_monomial().primitive_part().sign_normalized()
    if core.is_constant():
        return 0 if abs(core.terms.get((0,) * core.nvars, 0)) == 1 else None
    if b.is_constant():
        return None
    deg_b = b.total_degree()
    deg_v = core.total_degree()
    if deg_b == 0 or deg_v % deg_b:
        return None
    k = deg_v // deg_b
    probe = b**k
    if probe == core or probe == -core:
        return k
    return None
