"""Saturation-based elimination oracle over the rationals.

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
raises ExponentOverflow.

The oracle is budgeted: a wall-clock limit and an optional cap on the number
of terms of any intermediate polynomial.  Exceeding either raises
BudgetExceeded with the budget echoed in the message.  The face oracles in
discriminant.py (the resultant for one-dimensional faces, interpolation for
higher ones) run under the same budget clock and exponent limit; Buchberger
itself no longer serves any face and stays as the tests' reference
eliminant.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from heapq import heappush, heappop
from math import gcd

Exponent = tuple[int, ...]

DEFAULT_BUDGET_SECONDS = 60.0

_FIELD = 17
_EXP_MAX = (1 << 16) - 1


class InvalidBudget(ValueError):
    """A time budget that is not a number of seconds >= 0."""


def parse_seconds(text: str) -> float:
    error = InvalidBudget("expected seconds >= 0, got %r" % text)
    try:
        value = float(text)
    except ValueError:
        raise error from None
    if not value >= 0:  # false for NaN too
        raise error
    return value


def default_budget_seconds() -> float:
    raw = os.environ.get("GKZ_BUDGET_SECS")
    if raw is None:
        return DEFAULT_BUDGET_SECONDS
    try:
        return parse_seconds(raw)
    except InvalidBudget as exc:
        raise InvalidBudget("GKZ_BUDGET_SECS: %s" % exc) from None


@dataclass(frozen=True)
class Budget:
    seconds: float | None = None
    max_terms: int | None = None

    def effective_seconds(self) -> float | None:
        return default_budget_seconds() if self.seconds is None else self.seconds

    def describe(self) -> str:
        secs = self.effective_seconds()
        parts = ["%gs" % secs if secs is not None else "unlimited time"]
        if self.max_terms is not None:
            parts.append("%d terms" % self.max_terms)
        return ", ".join(parts)


class BudgetExceeded(RuntimeError):
    def __init__(self, budget: Budget, stage: str):
        self.budget = budget
        self.stage = stage
        super().__init__(
            "elimination budget exceeded (%s) during %s" % (budget.describe(), stage)
        )


class ExponentOverflow(ValueError):
    """An exponent does not fit in its 16-bit packed monomial field."""

    def __init__(self, exponent: int):
        super().__init__(
            "exponent %d exceeds the elimination limit %d" % (exponent, _EXP_MAX)
        )


class _Clock:
    __slots__ = ("budget", "deadline", "max_terms", "_tick")

    def __init__(self, budget: Budget):
        self.budget = budget
        secs = budget.effective_seconds()
        self.deadline = None if secs is None else time.monotonic() + secs
        self.max_terms = budget.max_terms
        self._tick = 0

    def check(self, nterms: int = 0, stage: str = "reduction"):
        if self.max_terms is not None and nterms > self.max_terms:
            raise BudgetExceeded(self.budget, stage)
        # the clock is read on the first check and on every 64th after it
        tick = self._tick
        self._tick = tick + 1
        if tick & 0x3F:
            return
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded(self.budget, stage)


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
        clock.check(len(p))
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
    clock.check(len(s), "s-polynomial")
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
        clock.check(0, "pair selection")
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
