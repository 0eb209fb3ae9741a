"""Sparse multivariate polynomials over arbitrary-precision integers.

A term is a packed monomial, one 32-bit field per variable with variable 0
most significant (integer order is lexicographic order), mapped to a nonzero
integer coefficient.  Each field's top bit is a guard bit, clear in stored
monomials: a monomial product is one addition, and a set guard bit raises
PolynomialError instead of carrying; a monomial quotient a / b is
(a | G) - b, exact when every guard bit survives (Monagan and Pearce 2007).
Only the public constructors validate: exponents and coefficients must be
of type int, so bools and floats are refused.  Exponent tuples are decoded
only where they leave the class.  The serialization orders terms
lexicographically descending and round-trips; its reader refuses any
record the writer never produces.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from operator import mul, or_

Exponent = tuple[int, ...]

_FIELD = 32
_GUARD = 1 << (_FIELD - 1)
_EXP_LIMIT = _GUARD - 1
_DECIMAL = re.compile(r"-?[1-9][0-9]*")  # str(c) for an int c != 0


class PolynomialError(ValueError):
    pass


@lru_cache(maxsize=None)
def _layout(nvars: int):
    """The guard bits of all nvars fields, and the struct of the fields."""
    return sum(_GUARD << (_FIELD * i) for i in range(nvars)), struct.Struct(">%dI" % nvars)


class IntPolynomial:
    __slots__ = ("nvars", "_packed")

    def __init__(self, nvars: int, terms=None):
        if type(nvars) is not int or nvars < 0:
            raise PolynomialError("bad variable count %r" % (nvars,))
        self.nvars = nvars
        packed: dict[int, int] = {}
        for e, c in (terms.items() if isinstance(terms, dict) else terms or ()):
            e = tuple(e)
            if len(e) != nvars or not all(type(x) is int and 0 <= x <= _EXP_LIMIT for x in e):
                raise PolynomialError("bad exponent vector %r" % (e,))
            if type(c) is not int:
                raise PolynomialError("non-integer coefficient %r" % (c,))
            k = self._key(e)
            packed[k] = packed.get(k, 0) + c
        self._packed = {k: c for k, c in packed.items() if c}

    def _new(self, packed: dict[int, int]) -> "IntPolynomial":
        """The polynomial in self's variables with these packed terms, unchecked."""
        p = object.__new__(IntPolynomial)
        p.nvars = self.nvars
        p._packed = packed
        return p

    def _key(self, e) -> int:
        return int.from_bytes(_layout(self.nvars)[1].pack(*e), "big")

    def _exponents(self, keys) -> list[Exponent]:
        fields = _layout(self.nvars)[1]
        unpack, size = fields.unpack, fields.size
        return [unpack(k.to_bytes(size, "big")) for k in keys]

    @property
    def terms(self) -> dict[Exponent, int]:
        """{exponent tuple: coefficient}, decoded afresh on every read."""
        return dict(zip(self._exponents(self._packed), self._packed.values()))

    def __len__(self):
        return len(self._packed)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "IntPolynomial":
        if type(index) is not int or not 0 <= index < nvars:
            raise PolynomialError("bad variable index %r" % (index,))
        return cls(nvars, {tuple(int(i == index) for i in range(nvars)): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        return not any(self._packed)

    def is_monomial(self) -> bool:
        return len(self._packed) == 1

    def __bool__(self):
        return bool(self._packed)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and (self.nvars, self._packed) == (
            other.nvars, other._packed)

    def __hash__(self):
        return hash((self.nvars, frozenset(self._packed.items())))

    # -- arithmetic --------------------------------------------------------

    def _like(self, other):
        if not isinstance(other, IntPolynomial):
            raise PolynomialError("expected IntPolynomial")
        if other.nvars != self.nvars:
            raise PolynomialError("variable count mismatch")

    def _plus(self, other, sign: int):
        self._like(other)
        out = dict(self._packed)
        for k, c in other._packed.items():
            s = out.get(k, 0) + sign * c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._new(out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._new({k: -c for k, c in self._packed.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({k: c * other for k, c in self._packed.items()} if other else {})
        self._like(other)
        out: dict[int, int] = {}
        get = out.get
        right = other._packed.items()
        for k1, c1 in self._packed.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        # each field sum is below 2^32, so a set guard bit is an exponent
        # above the limit, never a carry
        if reduce(or_, out, 0) & _layout(self.nvars)[0]:
            raise PolynomialError("product exponent above %d" % _EXP_LIMIT)
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolynomialError("negative power")
        result = self._new({0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def content(self) -> int:
        return gcd(*self._packed.values())

    def primitive_part(self) -> "IntPolynomial":
        """Content-free copy with positive lex-leading coefficient."""
        if not self._packed:
            return self
        g = self.content() if self._packed[max(self._packed)] > 0 else -self.content()
        if g == 1:
            return self
        return self._new({k: c // g for k, c in self._packed.items()})

    def sign_normalized(self) -> "IntPolynomial":
        """Same polynomial up to sign, lex-largest monomial positive."""
        if self._packed and self._packed[max(self._packed)] < 0:
            return -self
        return self

    def strip_monomial(self) -> "IntPolynomial":
        """self over its largest monomial factor (the coordinate-wise
        minimum exponent)."""
        if not self._packed:
            raise PolynomialError("zero polynomial")
        low = self._key(map(min, zip(*self._exponents(self._packed))))
        if not low:
            return self
        return self._new({k - low: c for k, c in self._packed.items()})

    def total_degree(self) -> int:
        return max(map(sum, self._exponents(self._packed)), default=0)

    def leading_form(self, weights) -> "IntPolynomial":
        """Sum of the terms maximizing <weights, exponent>."""
        return self.leading_forms([weights])[0]

    def leading_forms(self, weight_list) -> list["IntPolynomial"]:
        """leading_form for each weight vector (ints or Fractions, not bools),
        the exponents decoded once and read on the variables that occur."""
        if not self._packed:
            raise PolynomialError("leading form of the zero polynomial")
        items = self._packed.items()
        cols = [(i, col) for i, col in enumerate(zip(*self._exponents(self._packed))) if any(col)]
        exps = list(zip(*(col for _, col in cols))) or [()] * len(items)
        forms = []
        for w in map(list, weight_list):
            if len(w) != self.nvars:
                raise PolynomialError("weight vector length mismatch")
            if not all(isinstance(x, (int, Fraction)) and type(x) is not bool for x in w):
                raise PolynomialError("weights must be ints or Fractions")
            # a positive integer multiple of the weights has the same maximizers
            scale = lcm(*(x.denominator for x in w))
            w = [w[i].numerator * (scale // w[i].denominator) for i, _ in cols]
            vals = [sum(map(mul, w, e)) for e in exps]
            best = max(vals)
            forms.append(self._new({k: c for (k, c), v in zip(items, vals) if v == best}))
        return forms

    def exact_div(self, other) -> "IntPolynomial | None":
        """Exact quotient self / other over ZZ, or None when not divisible."""
        self._like(other)
        if other.is_zero():
            raise PolynomialError("division by zero polynomial")
        guard = _layout(self.nvars)[0]
        rem = dict(self._packed)
        quot: dict[int, int] = {}
        lead_g = max(other._packed)
        lc_g = other._packed[lead_g]
        while rem:
            lead_r = max(rem)
            # a field of lead_r below lead_g's borrows its own guard bit; a
            # guard bit set in lead_r is an exponent no exact quotient reaches
            q = (lead_r | guard) - lead_g
            if lead_r & guard or q & guard != guard:
                return None
            q ^= guard
            c, r = divmod(rem[lead_r], lc_g)
            if r != 0:
                return None
            quot[q] = c
            for e, cg in other._packed.items():
                k = q + e
                s = rem.get(k, 0) - c * cg
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return self._new(quot)

    def embed(self, nvars: int, positions) -> "IntPolynomial":
        """Place variable i of self at positions[i] in a wider variable set."""
        positions = list(positions)
        if len(positions) != self.nvars:
            raise PolynomialError("positions length mismatch")
        out = []
        for e, c in zip(self._exponents(self._packed), self._packed.values()):
            big = [0] * nvars
            for i, x in enumerate(e):
                big[positions[i]] += x
            out.append((big, c))
        return IntPolynomial(nvars, out)

    def evaluate(self, values):
        """Exact evaluation at integers or Fractions."""
        vals = list(values)
        if len(vals) != self.nvars:
            raise PolynomialError("value vector length mismatch")
        return _value(vals, self._exponents(self._packed), self._packed.values())

    # -- serialization -----------------------------------------------------

    def _sorted_terms(self):
        """(exponent tuple, coefficient), lexicographically descending."""
        keys = sorted(self._packed, reverse=True)
        return zip(self._exponents(keys), (self._packed[k] for k in keys))

    def to_records(self) -> list[dict]:
        return [{"coeff": str(c), "exps": list(e)} for e, c in self._sorted_terms()]

    @classmethod
    def from_records(cls, nvars: int, records) -> "IntPolynomial":
        """The inverse of to_records, refusing what it never writes: a
        coefficient other than a nonzero decimal string in canonical form,
        or an exponent vector given twice."""
        terms = {}
        for r in records:
            c, e = r["coeff"], tuple(r["exps"])
            if not isinstance(c, str) or not _DECIMAL.fullmatch(c):
                raise PolynomialError("coefficients must be canonical nonzero decimal strings")
            if e in terms:
                raise PolynomialError("repeated exponent vector %r" % (e,))
            terms[e] = int(c)
        return cls(nvars, terms)

    def to_str(self, names=None) -> str:
        if not self._packed:
            return "0"
        if names is None:
            names = [("a%d" if self.nvars <= 10 else "a_%d") % i for i in range(self.nvars)]
        parts = []
        for e, c in self._sorted_terms():
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


def _value(values, exponents, coeffs):
    """sum_e c_e values^e over matching exponent tuples and coefficients."""
    return sum(c * prod(map(pow, values, e)) for e, c in zip(exponents, coeffs))


def match_power(value: IntPolynomial, base: IntPolynomial) -> int | None:
    """The k >= 0 with value = +-base^k after both are made primitive.

    Both inputs are reduced to their monomial-free, content-free, sign
    normalized cores before matching; None when no power fits.
    """
    core = value.strip_monomial().primitive_part()
    b = base.strip_monomial().primitive_part()
    if core.is_constant():
        return 0 if abs(core._packed.get(0, 0)) == 1 else None
    if b.is_constant():
        return None
    deg_b = b.total_degree()
    deg_v = core.total_degree()
    if deg_v % deg_b:
        return None
    k = deg_v // deg_b
    probe = b**k
    if probe == core or probe == -core:
        return k
    return None
