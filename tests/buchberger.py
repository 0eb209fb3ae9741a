"""Buchberger block elimination and the polynomial gcd: the reference
eliminant the tests check the package's face oracles against.

Discriminant ideals are eliminated with Buchberger's algorithm under a block
order: the variables to eliminate (an inverse-saturation variable t followed
by the torus variables) are compared graded-lexicographically, ties fall
through to lexicographic comparison of the coefficient variables.  All
polynomial arithmetic is integer-primitive.

Monomials are packed into single integers, one 16-bit field per variable
plus a guard bit, with the x-block total degree in the most significant
field.  Plain integer comparison of packed monomials then realizes the block
order, monomial multiplication is integer addition, and divisibility is the
classic guard-bit borrow test.  An exponent that does not fit its field
raises ExponentOverflow.  The elimination runs under gkzrank's Budget.

_groebner_eliminant is the gcd, by primitive pseudo-remainder sequences, of
the generators of a face's eliminated singular-locus system: the second
discriminant oracle that the resultant and interpolation results are
compared with.
"""

from __future__ import annotations

from heapq import heappush, heappop
from math import gcd

from gkzrank.discriminant import OracleError
from gkzrank.elimination import _EXP_MAX, Budget, ExponentOverflow, _Clock
from gkzrank.polynomial import IntPolynomial

Exponent = tuple[int, ...]

_FIELD = 17


class _Packing:
    """Packed-integer monomials for the elimination block order."""

    def __init__(self, n_elim: int, nvars: int):
        self.n_elim = n_elim
        self.nvars = nvars
        self.nfields = nvars + 1
        # field significance, high to low: xdeg, x_0..x_{ne-1}, a_0..a_{na-1};
        # little-endian field index = nfields-1-significance
        shifts = []
        for i in range(nvars):  # variable i -> its field shift
            significance = 1 + i  # 0 is xdeg
            field_index = self.nfields - 1 - significance
            shifts.append(field_index * _FIELD)
        self.var_shift = shifts
        self.deg_shift = (self.nfields - 1) * _FIELD
        guard = 0
        for f in range(self.nfields):
            guard |= 1 << (f * _FIELD + 16)
        self.guard_mask = guard

    def encode(self, exps: Exponent) -> int:
        word = 0
        xdeg = 0
        for i, e in enumerate(exps):
            if e:
                if e > _EXP_MAX:
                    raise ExponentOverflow(e)
                word += e << self.var_shift[i]
                if i < self.n_elim:
                    xdeg += e
        word += xdeg << self.deg_shift
        return word

    def decode(self, word: int) -> Exponent:
        return tuple((word >> self.var_shift[i]) & _EXP_MAX for i in range(self.nvars))

    def lcm(self, a: int, b: int) -> int:
        ea = self.decode(a)
        eb = self.decode(b)
        return self.encode(tuple(max(x, y) for x, y in zip(ea, eb)))

    def coprime(self, a: int, b: int) -> bool:
        ea = self.decode(a)
        eb = self.decode(b)
        return all(x == 0 or y == 0 for x, y in zip(ea, eb))

    def total_degree(self, word: int) -> int:
        return sum(self.decode(word))


def _primitive(p: dict) -> dict:
    if not p:
        return p
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            return p
    return {e: c // g for e, c in p.items()}


def _normal_form(p: dict, basis, clock, guard_mask) -> dict:
    """Full normal form of p against the basis entries, integer-primitive."""
    rem: dict = {}
    p = dict(p)
    scaled = 0
    while p:
        clock.check("reduction")
        if scaled >= 8:
            g_all = 0
            for c in p.values():
                g_all = gcd(g_all, c)
                if g_all == 1:
                    break
            if g_all != 1:
                for c in rem.values():
                    g_all = gcd(g_all, c)
                    if g_all == 1:
                        break
            if g_all > 1:
                p = {e: c // g_all for e, c in p.items()}
                rem = {e: c // g_all for e, c in rem.items()}
            scaled = 0
        lead = max(p)
        coeff = p[lead]
        hit = None
        hit_rank = None
        for lt, lc, g in basis:
            if not ((lead - lt) & guard_mask):
                # prefer reducers whose leading coefficient divides (no
                # rescaling of p), then short ones
                rank = (coeff % lc != 0, len(g))
                if hit is None or rank < hit_rank:
                    hit = (lt, lc, g)
                    hit_rank = rank
                    if rank == (False, 2):
                        break
        if hit is None:
            rem[lead] = coeff
            del p[lead]
            continue
        lt, lc, g = hit
        common = gcd(coeff, lc)
        scale = lc // common
        mult = coeff // common
        if scale != 1:
            if scale < 0:
                scale, mult = -scale, -mult
            p = {e: c * scale for e, c in p.items()}
            if rem:
                rem = {e: c * scale for e, c in rem.items()}
            scaled += 1
        shift = lead - lt
        for e, c in g.items():
            key = e + shift
            s = p.get(key, 0) - mult * c
            if s:
                p[key] = s
            else:
                p.pop(key, None)
    return _primitive(rem)


def _spoly(fe, ge, lcm_word, clock) -> dict:
    lt_f, lc_f, f = fe
    lt_g, lc_g, g = ge
    common = gcd(lc_f, lc_g)
    mf = lc_g // common
    mg = lc_f // common
    sf = lcm_word - lt_f
    sg = lcm_word - lt_g
    s: dict = {}
    for e, c in f.items():
        s[e + sf] = c * mf
    for e, c in g.items():
        key = e + sg
        d = s.get(key, 0) - c * mg
        if d:
            s[key] = d
        else:
            s.pop(key, None)
    clock.check("s-polynomial")
    return _primitive(s)


class _GroebnerState:
    def __init__(self, pack: _Packing):
        self.pack = pack
        self.entries: list = []  # (lt, lc, poly) in packed form
        self.redundant: list[bool] = []
        self.pairs: list = []  # heap of (degree, lcm, i, j)
        self.alive: set = set()
        self.pairs_lcm: dict = {}

    def add(self, poly: dict):
        """Gebauer-Moller update with the new basis element."""
        pack = self.pack
        lt = max(poly)
        entry = (lt, poly[lt], poly)
        new_index = len(self.entries)

        candidates = []
        for i, (lt_i, _, _) in enumerate(self.entries):
            if self.redundant[i]:
                continue
            candidates.append((i, pack.lcm(lt_i, lt)))

        kept: list = []
        for idx, (i, lcm_i) in enumerate(candidates):
            drop = False
            for jdx, (j, lcm_j) in enumerate(candidates):
                if idx == jdx or lcm_j == lcm_i and jdx > idx:
                    continue
                if not ((lcm_i - lcm_j) & pack.guard_mask) and lcm_j != lcm_i:
                    drop = True
                    break
            if not drop:
                kept.append((i, lcm_i))
        deduped: list = []
        seen_lcms: set = set()
        for i, lcm_i in kept:
            if lcm_i in seen_lcms:
                continue
            seen_lcms.add(lcm_i)
            deduped.append((i, lcm_i))
        final = [
            (i, lcm_i)
            for i, lcm_i in deduped
            if not pack.coprime(self.entries[i][0], lt)
        ]

        # prune old pairs made redundant by the new leading term
        for (i, j) in list(self.alive):
            lcm_ij = self.pairs_lcm[(i, j)]
            if ((lcm_ij - lt) & pack.guard_mask) == 0:
                lcm_i_new = pack.lcm(self.entries[i][0], lt)
                lcm_j_new = pack.lcm(self.entries[j][0], lt)
                if lcm_i_new != lcm_ij and lcm_j_new != lcm_ij:
                    self.alive.discard((i, j))

        for i, (lt_i, _, _) in enumerate(self.entries):
            if not self.redundant[i] and ((lt_i - lt) & pack.guard_mask) == 0:
                self.redundant[i] = True

        self.entries.append(entry)
        self.redundant.append(False)
        for i, lcm_i in final:
            pair = (i, new_index)
            self.alive.add(pair)
            self.pairs_lcm[pair] = lcm_i
            heappush(self.pairs, (pack.total_degree(lcm_i), lcm_i, i, new_index))



def groebner_basis_packed(polys, n_elim: int, nvars: int, budget: Budget | None = None):
    budget = budget or Budget()
    clock = _Clock(budget)
    pack = _Packing(n_elim, nvars)

    state = _GroebnerState(pack)

    seeds = []
    for p in polys:
        q: dict = {}
        for e, c in p.items():
            if c:
                q[pack.encode(e)] = q.get(pack.encode(e), 0) + c
        q = _primitive({e: c for e, c in q.items() if c})
        if q:
            seeds.append(q)
    seeds.sort(key=max)

    for p in seeds:
        nf = _normal_form(p, state.entries, clock, pack.guard_mask)
        if nf:
            state.add(nf)

    while state.pairs:
        clock.check("pair selection")
        _, lcm_word, i, j = heappop(state.pairs)
        if (i, j) not in state.alive:
            continue
        state.alive.discard((i, j))
        s = _spoly(state.entries[i], state.entries[j], lcm_word, clock)
        if not s:
            continue
        nf = _normal_form(s, state.entries, clock, pack.guard_mask)
        if nf:
            state.add(nf)

    # minimal basis: keep entries whose leading terms are not divisible by
    # another kept leading term
    entries = state.entries
    order_idx = sorted(range(len(entries)), key=lambda k: entries[k][0])
    minimal: list[int] = []
    for k in order_idx:
        lt = entries[k][0]
        if any(((lt - entries[m][0]) & pack.guard_mask) == 0 for m in minimal):
            continue
        minimal.append(k)

    reduced = []
    min_entries = [entries[k] for k in minimal]
    for pos in range(len(min_entries)):
        lt, lc, g = min_entries[pos]
        others = min_entries[:pos] + min_entries[pos + 1 :]
        nf = _normal_form(g, others, clock, pack.guard_mask)
        if nf:
            if nf[max(nf)] < 0:
                nf = {e: -c for e, c in nf.items()}
            reduced.append(nf)
    reduced.sort(key=max)
    return reduced, pack


def groebner_basis(polys, n_elim: int, nvars: int, budget: Budget | None = None):
    """Reduced Groebner basis under the elimination block order (tuple form)."""
    packed, pack = groebner_basis_packed(
        [dict(p) for p in polys], n_elim, nvars, budget
    )
    return [{pack.decode(e): c for e, c in g.items()} for g in packed]


def eliminate(polys, n_elim: int, nvars: int, budget: Budget | None = None):
    """Generators of the elimination ideal (first n_elim variables removed).

    Returned polynomials keep full-width exponent tuples; their first n_elim
    entries are all zero.
    """
    packed, pack = groebner_basis_packed(
        [dict(p) for p in polys], n_elim, nvars, budget
    )
    xdeg_shift = pack.deg_shift
    out = []
    for g in packed:
        lt = max(g)
        if lt >> xdeg_shift == 0:
            out.append({pack.decode(e): c for e, c in g.items()})
    return out


def _degree_in(p: IntPolynomial, var: int) -> int:
    if not p.terms:
        return 0
    return max(e[var] for e in p.terms)


def polynomial_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """GCD over ZZ[a_1..a_n] by primitive pseudo-remainder sequences.

    The result is primitive with positive leading coefficient, up to the
    integer content gcd of the inputs.
    """
    if f.is_zero():
        return g.primitive_part() * _content_sign(g)
    if g.is_zero():
        return f.primitive_part() * _content_sign(f)
    int_content = gcd(f.content(), g.content())
    result = _gcd_primitive(f.primitive_part(), g.primitive_part())
    return (result * int_content).sign_normalized()


def _content_sign(p: IntPolynomial) -> int:
    return gcd(0, p.content())


def _gcd_primitive(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    nv = f.nvars
    var = next((i for i in range(nv) if _degree_in(f, i) or _degree_in(g, i)), None)
    if var is None:
        return IntPolynomial.constant(nv, 1)
    fu = _to_univariate(f, var)
    gu = _to_univariate(g, var)
    fc = _coeff_content(fu)
    gc = _coeff_content(gu)
    fp = [c.exact_div(fc) for c in fu]
    gp = [c.exact_div(gc) for c in gu]
    cont = _gcd_primitive(fc, gc)
    a, b = (fp, gp) if len(fp) >= len(gp) else (gp, fp)
    while True:
        if not b:
            prim = _from_univariate(a, var, nv)
            prim_cont = _coeff_content(a)
            prim = prim.exact_div(prim_cont)
            if len(a) == 1:
                prim = IntPolynomial.constant(nv, 1)
            return (cont * prim).primitive_part()
        r = _pseudo_rem(a, b, nv)
        r = _trim(r)
        if r:
            rc = _coeff_content(r)
            r = [c.exact_div(rc) for c in r]
        a, b = b, r


def _trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _to_univariate(p: IntPolynomial, var: int) -> list[IntPolynomial]:
    deg = _degree_in(p, var)
    coeffs = [dict() for _ in range(deg + 1)]
    for e, c in p.terms.items():
        rest = list(e)
        k = rest[var]
        rest[var] = 0
        coeffs[k][tuple(rest)] = c
    return [IntPolynomial(p.nvars, d) for d in coeffs]


def _from_univariate(coeffs, var: int, nvars: int) -> IntPolynomial:
    out = IntPolynomial.zero(nvars)
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        shift = {tuple(x + (k if i == var else 0) for i, x in enumerate(e)): cc
                 for e, cc in c.terms.items()}
        out = out + IntPolynomial(nvars, shift)
    return out


def _coeff_content(coeffs) -> IntPolynomial:
    acc = IntPolynomial.zero(coeffs[0].nvars)
    for c in coeffs:
        acc = polynomial_gcd(acc, c)
        if acc == IntPolynomial.constant(acc.nvars, 1):
            break
    return acc


def _pseudo_rem(a, b, nvars):
    """Pseudo remainder of univariate polynomials with IntPolynomial coefficients."""
    da, db = len(a) - 1, len(b) - 1
    lc_b = b[-1]
    r = list(a)
    for _ in range(da - db + 1):
        dr = len(r) - 1
        if dr < db:
            break
        lc_r = r[-1]
        r = [c * lc_b for c in r]
        for i in range(db + 1):
            r[dr - db + i] = r[dr - db + i] - lc_r * b[i]
        r = _trim(r)
        if not r:
            break
    return r


def _groebner_eliminant(exps, budget: Budget | None) -> IntPolynomial:
    """The gcd of the generators of the coefficient eliminant of the
    saturated singular-locus system, in the face-local a-variables."""
    k = len(exps)
    nx = len(exps[0])
    ne = nx + 1  # torus variables plus the saturation variable
    nv = ne + k

    def mono(t, ys, j):
        a = [0] * k
        a[j] = 1
        return (t,) + tuple(ys) + tuple(a)

    system = [{mono(0, e, j): 1 for j, e in enumerate(exps)}]
    for axis in range(nx):
        deriv = {mono(0, e, j): e[axis] for j, e in enumerate(exps) if e[axis]}
        if deriv:
            system.append(deriv)
    system.append({(1,) + (1,) * nx + (0,) * k: 1, (0,) * nv: -1})

    elim = eliminate(system, ne, nv, budget)
    if not elim:
        raise OracleError("elimination ideal is zero; dual variety filled the space")
    polys = [
        IntPolynomial(k, {e[ne:]: c for e, c in p.items()}) for p in elim
    ]
    h = polys[0]
    for p in polys[1:]:
        h = polynomial_gcd(h, p)
        if h.is_constant():
            break
    return h
