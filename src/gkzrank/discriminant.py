"""Discriminants and the principal A-determinant.

Circuit discriminants come from the explicit binomial formula attached to a
primitive relation.  Face discriminants are routed by the face alone: a
vertex gives its own variable, a simplex the constant 1, a face with one
point more than a simplex (corank one) the binomial of its primitive affine
relation, or 1 on a pyramid over a circuit, a one-dimensional face the
resultant Res(F_x, F_y) of the partials of its binary form (the determinant
of their sparse Bezout matrix, of order N - 1 for degree N, its monomial
factor stripped), and a face of dimension two or more the interpolation
oracle.  One face loop per configuration (_factors) ranks and eliminates its
faces in faces order, so the top face comes last and reads its multidegree
off the factors already held; a higher face asked for on its own is the top
face of its own configuration.  The discriminant is the kernel of the matrix
that evaluates the monomials of that multidegree at points of the dual
variety, each point's row evaluated once, exactly, and kept in bytes; it is
eliminated modulo primes below 2^21 in rows packed into 64-bit slots, lifted
by CRT and certified exactly on the same rows.  Both oracles read the face
in the lattice its points generate, so either eliminant is the irreducible
discriminant up to its content and sign, which primitive_part removes.  Both
oracles poll one budget clock and share its exponent limit.  The principal
A-determinant is the product of the loop's face discriminants raised to
their K-theory rank exponents.
"""

from __future__ import annotations

import random
import struct
from math import gcd, isqrt, lcm, prod
from operator import floordiv, getitem, mul
from typing import NamedTuple

from .elimination import (
    _EXP_MAX,
    Budget,
    BudgetExceeded,
    ExponentOverflow,
    _Clock,
)
from .ktheory import FaceInvariants, rank_k0_face
from .lattice import Span, kernel_basis, span
from .polynomial import IntPolynomial, match_power
from .polytope import (
    ASet,
    Face,
    faces,
    fold_table,
    lower_hull_triangulation,
    placing_lifts,
    validate_aset,
)
from .secondary import Circuit, EdgeData, SecondaryPolytope


class OracleError(RuntimeError):
    """Structural failure of the elimination oracle."""


class MultiplicityError(RuntimeError):
    """The leading form failed to match a power of the circuit discriminant."""


def circuit_discriminant(circuit: Circuit, nvars: int) -> IntPolynomial:
    """The binomial discriminant of a circuit, sign-normalized.

    For the primitive relation sum l_i v_i = 0 the two monomials are
    prod_{l_i>0} l_i^{l_i} * prod_{l_i<0} a_i^{-l_i} and
    prod_{l_i<0} l_i^{-l_i} * prod_{l_i>0} a_i^{l_i}; the signed coefficients
    are kept exactly as the relation dictates.  Raises ExponentOverflow,
    before any power is taken, when sum |l_i| * bit_length(|l_i|), a bound on
    the bit length of both coefficients, exceeds the limit.
    """
    rel = circuit.relation
    if any(l == 0 for l in rel):
        raise ValueError("relation with zero coefficient is not primitive")
    if gcd(*rel) != 1:
        raise ValueError("relation is not primitive")
    bits = sum(abs(l) * abs(l).bit_length() for l in rel)
    if bits > _EXP_MAX:
        raise ExponentOverflow(bits, "circuit binomial coefficient bit bound")
    coeff_plus = 1
    coeff_minus = 1
    exp_plus = [0] * nvars
    exp_minus = [0] * nvars
    for i, l in zip(circuit.indices, rel):
        if l > 0:
            coeff_plus *= l**l
            exp_plus[i] = l
        else:
            coeff_minus *= l ** (-l)
            exp_minus[i] = -l
    delta = IntPolynomial(
        nvars, {tuple(exp_minus): coeff_plus, tuple(exp_plus): -coeff_minus}
    )
    return delta.sign_normalized()


def face_local_exponents(aset: ASet, face: Face):
    """Exponent vectors of the face configuration in saturated affine
    coordinates, shifted to be non-negative."""
    pts = [aset.points[i] for i in face.indices]
    return _local_exponents(span(pts, aset.dim), pts)


def _local_exponents(lat: Span, pts):
    """face_local_exponents of the points pts, read from lat, their span."""
    coords = [lat.coordinates(p) for p in pts]
    if lat.rank == 1:
        return [()] * len(pts)
    base = coords[0]
    diffs = [tuple(a - b for a, b in zip(c, base)) for c in coords[1:]]
    dlat = span(diffs, lat.rank)
    dcoords = [dlat.coordinates(v) for v in diffs]
    drank = dlat.rank
    if drank != lat.rank - 1:
        raise OracleError("face coordinates have unexpected affine rank")
    exps = [(0,) * drank] + dcoords
    lows = [min(e[i] for e in exps) for i in range(drank)]
    return [tuple(x - lo for x, lo in zip(e, lows)) for e in exps]


def face_discriminant(aset: ASet, face: Face, budget: Budget | None = None) -> IntPolynomial:
    """The discriminant of the face configuration, in the global a-variables.

    Vertices give their own coordinate variable; simplex faces (and any face
    whose dual variety has codimension above one) give the constant 1, and
    corank-one faces the binomial of their primitive affine relation (GKZ
    1994, ch. 9), without reading the clock.  Other one-dimensional faces
    are eliminated by the resultant of their binary form's partials, the
    determinant of a Bezout matrix of order N - 1 for degree N, on their
    exponents divided by their gcd, their coordinates in the lattice the
    face's points generate; higher faces by their own configuration's face
    loop.
    Raises BudgetExceeded when the budget's clock, started here, runs out and
    ExponentOverflow when a local exponent exceeds the limit (an edge's once
    divided by their gcd, a higher face's in saturated coordinates) or when
    circuit_discriminant refuses a corank-one face's binomial as too large.
    """
    return _face_discriminant(aset, face, _Clock(budget or Budget()), None)


def _face_discriminant(aset: ASet, face: Face, clock: _Clock, held) -> IntPolynomial:
    """face_discriminant, where held is None for a face asked for on its own
    and otherwise _factors' fold table of aset and rows of the faces before
    this one: all the proper faces when this is the top face."""
    n = aset.n
    idx = face.indices
    if len(idx) == 1:
        return IntPolynomial.variable(n, idx[0])
    if face.dim == len(idx) - 1:
        return IntPolynomial.constant(n, 1)

    pts = [aset.points[i] for i in idx]
    lat = span(pts, aset.dim)
    exps = _local_exponents(lat, pts)
    if len(exps[0]) == 1:
        g = gcd(*(e for (e,) in exps))
        exps = [(e // g,) for (e,) in exps]
    for e in exps:
        for x in e:
            if x > _EXP_MAX:
                raise ExponentOverflow(x)
    if len(idx) == face.dim + 2:  # corank one: one primitive affine relation
        (rel,) = kernel_basis([[1] * len(idx), *zip(*exps)])
        if 0 in rel:  # a pyramid over a circuit
            return IntPolynomial.constant(n, 1)
        h = circuit_discriminant(Circuit(tuple(range(len(idx))), rel), len(idx))
    elif len(exps[0]) == 1:
        h = _resultant_eliminant(exps, clock)
    elif held is not None and len(idx) == n:
        h = _interpolation_eliminant(aset, *held, clock)
    else:  # the face as its own configuration, in the lattice it generates
        coords = [tuple(map(floordiv, lat.coordinates(p), lat.diag)) for p in pts]
        h = _factors(validate_aset(lat.rank, coords), clock)[-1].discriminant
        if h is None:  # its row holds the interpolation's BudgetExceeded
            raise BudgetExceeded(clock.budget, "interpolation")
    return h.primitive_part().embed(n, list(idx))


def _factors(conf: ASet, clock: _Clock) -> list[FaceFactor]:
    """One row per face of conf, in faces order (by dimension, the top face
    last): its rank_k0_face row, read off conf's one fold table, and its
    discriminant, or the BudgetExceeded that stopped it."""
    table = fold_table(conf.points, conf.dim)
    rows = []
    for face in faces(conf):
        row = rank_k0_face(conf, face, table)
        try:
            delta, err = _face_discriminant(conf, face, clock, (table, rows)), None
        except BudgetExceeded as exc:
            delta, err = None, str(exc)
        rows.append(FaceFactor(invariants=row, discriminant=delta, error=err))
    return rows


def _resultant_eliminant(exps, clock: _Clock) -> IntPolynomial:
    """Res(F_x, F_y) for the binary form F = sum_j a_j x^(e_j) y^(N-e_j),
    N = max e_j, its monomial factor stripped: +-N^(N-2) times the
    discriminant of F.

    When the exponents have gcd 1, F has a single double root at a generic
    point of the discriminant, and this is the discriminant of the
    one-dimensional configuration up to a constant (GKZ 1994, ch. 12); with
    gcd g the double roots come in groups of g and it is a g-th power.
    It is the determinant of the Bezout matrix of f = F_x(x, 1) =
    sum e_j a_j x^(e_j-1) and g = F_y(x, 1) = sum (N-e_j) a_j x^(e_j), both
    of formal degree m = N-1: the order m matrix whose entry (r, c) is the
    coefficient of x^r y^c in (f(x) g(y) - f(y) g(x)) / (x - y).  A term
    pair b a_s x^p of f and b' a_t x^q of g adds b b' a_s a_t to the
    entries (q+i, p-1-i), i < p-q, when p > q, and subtracts it from
    (p+i, q-1-i), i < q-p, when p < q.  The matrix is held as sparse rows,
    column -> entry, built with a clock read per entry; its determinant is
    taken by fraction-free (Bareiss) elimination from the last column
    down, every division exact.
    """
    degrees = [e for (e,) in exps]
    k = len(degrees)
    top = max(degrees)
    coeffs = [IntPolynomial.variable(k, j) for j in range(k)]
    rows = [{} for _ in range(top - 1)]
    for e, a_s in zip(degrees, coeffs):
        for q, a_t in zip(degrees, coeffs):
            p = e - 1  # the term e a_s x^p of f against (N-q) a_t x^q of g
            if e and q < top and p != q:
                term = a_s * a_t * (e * (top - q) * (1 if p > q else -1))
                lo, hi = sorted((p, q))
                for i in range(hi - lo):
                    row, c = rows[lo + i], hi - 1 - i
                    row[c] = row[c] + term if c in row else term
                    clock.check("resultant")
    rows = [{c: x for c, x in row.items() if x} for row in rows]  # drop cancelled entries
    prev = IntPolynomial.constant(k, 1)
    for col in reversed(range(top - 1)):
        r = next((r for r, row in enumerate(rows) if col in row), None)
        if r is None:
            raise OracleError("Bezout matrix of F_x and F_y is singular")
        pivot_row = rows.pop(r)
        pivot = pivot_row.pop(col)
        for row in rows:
            m = row.pop(col, None)
            if m is None:
                for c, x in row.items():
                    row[c] = _exact(pivot * x, prev, clock)
                continue
            for c in row.keys() | pivot_row.keys():
                q = pivot * row[c] if c in row else IntPolynomial.zero(k)
                if c in pivot_row:
                    q = q - m * pivot_row[c]
                q = _exact(q, prev, clock)
                if q:
                    row[c] = q
                else:
                    row.pop(c, None)
        prev = pivot
    return prev.strip_monomial()


def _exact(p: IntPolynomial, d: IntPolynomial, clock: _Clock) -> IntPolynomial:
    q = p.exact_div(d)
    if q is None:
        raise OracleError("inexact Bareiss division")
    clock.check("resultant")
    return q


# samples beyond the first nullity-one matrix, checked against its kernel
_SPARE_SAMPLES = 2
# kernel-basis multipliers of the sample points lie in [-R, R]
_SAMPLE_RANGE = 64


def _interpolation_eliminant(conf: ASet, table, rows, clock: _Clock) -> IntPolynomial:
    """The discriminant of the top face of conf, a configuration of
    dimension two or more in a basis of the lattice its points generate, by
    interpolation on points of its dual variety; table is conf's fold table
    and rows are _factors' rows of the proper faces of conf.

    Every u in ker B (B = conf) is a point of the dual variety (Kapranov
    1991), and so is its torus orbit, on which a B-homogeneous polynomial
    only picks up a common factor.  The multidegree of Delta_B is read off
    the rows the face loop already holds (_target), so Delta_B lies in the
    span of the monomials of that multidegree, and it spans the polynomials
    there that vanish on ker B.  The evaluation matrix [u^beta] at sample points
    u in ker B therefore has a kernel containing Delta_B.  Its nullity
    modulo a prime p below 2^21 is brought to one by adding samples, each
    row reduced in packed 64-bit slots with one reduction mod p per row
    (_Echelon); the rank over QQ is at least the rank mod p, so the kernel
    over QQ is the line through Delta_B.  The kernel vector is lifted by CRT
    over further primes with rational reconstruction (Wang 1981) until it
    vanishes exactly at every sample.  Each sample's row is evaluated once,
    exactly, and kept packed for the first prime, the pivots' rows mod every
    further prime and the exact check, a dot product with the lifted vector.
    """
    clock.check("interpolation")  # a row over budget means the deadline has passed
    cands = _fiber(table, _target(conf.n, table, rows), clock)
    if cands == [(0,) * conf.n]:
        return IntPolynomial.constant(conf.n, 1)
    if not cands:
        raise OracleError("no monomial has the discriminant's multidegree")
    ncols = len(cands)
    kernel = kernel_basis([[p[r] for p in conf.points] for r in range(conf.dim)])
    samples = _kernel_samples(kernel)
    primes = _primes()
    p = next(primes)

    # sample until the nullity mod p is one, then check a few more samples
    # against it
    echelon = _Echelon(p, ncols)
    exact = []  # every sample's row, exactly, packed
    pivots = []
    spare = 0
    while spare < _SPARE_SAMPLES:
        if len(exact) > 2 * ncols + 16:
            raise OracleError("evaluation matrix keeps a kernel of dimension above one")
        clock.check("interpolation")
        row = _exact_row(next(samples), cands)
        exact.append(_pack(row))
        if echelon.add([x % p for x in row]):
            if len(pivots) == ncols - 1:
                raise OracleError("no candidate polynomial vanishes on the dual variety")
            pivots.append(exact[-1])
        elif len(pivots) == ncols - 1:
            spare += 1
    free = echelon.free_column()
    residues = echelon.kernel_vector(free)
    modulus, lifted, attempt = p, 1, 1
    while True:
        if lifted == attempt:
            # after each of the first eight primes, then each time their
            # number grows by an eighth: a failed attempt is a Euclid on the
            # whole modulus, and at every prime of a lift over hundreds of
            # primes the attempts would cost more than the lift
            attempt += 1 + lifted // 8
            v = _reconstruct(residues, modulus)
            if v is not None and not any(sum(map(mul, _unpack(row), v)) for row in exact):
                return IntPolynomial(conf.n, dict(zip(cands, v)))
        q = next(primes)
        echelon = _Echelon(q, ncols)
        for row in pivots:
            clock.check("interpolation")
            echelon.add([x % q for x in _unpack(row)])
        if len(echelon.rows) != ncols - 1 or echelon.free_column() != free:
            continue  # q divides a pivot minor
        w = echelon.kernel_vector(free)
        inv = pow(modulus, -1, q)
        residues = [a + modulus * ((b - a) * inv % q) for a, b in zip(residues, w)]
        modulus *= q
        lifted += 1


def _target(n: int, table, rows) -> list[int]:
    """An exponent beta of Delta_B for B the configuration of n points
    whose fold table is table, from the rows of the proper faces of B; its
    multidegree is B beta.

    E_B = prod_F Delta_F^(u * i) over the faces F of B (GKZ 1994, ch. 10)
    has the exponent phi_T of the placing triangulation T, so
    beta = phi_T - sum_F (u * i)_F beta_F is an exponent of Delta_B for any
    exponent beta_F of each Delta_F.
    """
    beta = [0] * n
    for simplex in lower_hull_triangulation(table, placing_lifts(table)):
        for i in simplex:
            beta[i] += abs(table[simplex][0])
    for row in rows:
        beta_f = next(iter(row.discriminant.terms))
        beta = [b - row.exponent * x for b, x in zip(beta, beta_f)]
    return beta


def _fiber(table, beta0, clock: _Clock):
    """All beta >= 0 with B beta = B beta0, for B the configuration whose
    fold table is table.

    The coordinates off the table's first simplex sigma run over the
    compositions of at most the total degree sum(beta0); the coordinates on
    sigma then follow by Cramer's rule, and must be non-negative integers.
    In the basis sigma, det sigma times a free point j is
    -(det sigma / c_j[-1]) c_j[:-1], for c_j the table's relation on sigma
    plus j, whose entry c_j[-1] divides det sigma.
    """
    sigma, (det, rels) = next(iter(table.items()))
    free = [j for j in range(len(beta0)) if j not in sigma]
    steps = [[-(det // rels[j][-1]) * c for c in rels[j][:-1]] for j in free]
    acc = [det * beta0[i] for i in sigma]
    for j, step in zip(free, steps):
        acc = [a + beta0[j] * s for a, s in zip(acc, step)]
    out = []
    beta = [0] * len(beta0)

    def walk(pos, left, acc):
        clock.check("interpolation")
        if pos < len(free):
            step = steps[pos]
            for b in range(left + 1):
                beta[free[pos]] = b
                walk(pos + 1, left - b, acc)
                acc = [a - s for a, s in zip(acc, step)]
            beta[free[pos]] = 0
            return
        for i, a in zip(sigma, acc):
            y, r = divmod(a, det)
            if r or y < 0:
                return
            beta[i] = y
        out.append(tuple(beta))

    if (degree := sum(beta0)) >= 0:
        walk(0, degree, acc)
    return out


def _kernel_samples(kernel):
    """Small integer combinations of the kernel basis, from a fixed seed."""
    rng = random.Random(0)
    while True:
        lam = [rng.randint(-_SAMPLE_RANGE, _SAMPLE_RANGE) for _ in kernel]
        yield tuple(sum(c * v[j] for c, v in zip(lam, kernel)) for j in range(len(kernel[0])))


def _exact_row(u, cands) -> list[int]:
    """[u^beta for beta in cands], exactly, read from one table of powers
    per coordinate of u, over the exponents the candidates give it."""
    tables = [{b: x**b for b in set(col)} for x, col in zip(u, zip(*cands))]
    return [prod(map(getitem, tables, beta)) for beta in cands]


def _pack(row) -> tuple[int, bytes]:
    """row as signed little-endian bytes, bit_length // 8 + 1 bytes per entry
    for the longest (room for its sign): far less memory than a list of ints."""
    width = max(map(int.bit_length, row)) // 8 + 1
    return width, b"".join([x.to_bytes(width, "little", signed=True) for x in row])


def _unpack(packed: tuple[int, bytes]) -> list[int]:
    width, data = packed
    return [int.from_bytes(data[i : i + width], "little", signed=True) for i in range(0, len(data), width)]


# primes lie below this bound, so a slot entry and a reduction factor are
# below 2^21 and one row operation adds less than 2^42 to a 64-bit slot
_PRIME_BOUND = 1 << 21
_SLOT_MASK = (1 << 64) - 1


class _Echelon:
    """The row space of a matrix mod p, in echelon form, grown one row at a
    time.  Each stored row is reduced against the rows stored before it, so
    it is zero at their pivots and one at its own.

    A row is one int of 64-bit slots, column c in bits 64c to 64c + 63.  A
    new row r is reduced against a stored row by one multiply-add,
    r += (p - f) * prow, with f its entry at the stored pivot mod p; this
    adds less than 2^42 to every slot.  With p < 2^21 and fewer than 2^22
    columns, hence fewer than 2^22 stored rows, no slot reaches 2^64, so r
    is reduced mod p once, after every stored row (delayed reduction:
    Dumas, Giorgi and Pernet 2008)."""

    def __init__(self, p: int, ncols: int):
        if p >= _PRIME_BOUND or ncols >= 1 << 22:
            raise ValueError("64-bit slots need p < 2^21 and fewer than 2^22 columns")
        self.p = p
        self.ncols = ncols
        self.slots = struct.Struct("<%dQ" % ncols)
        self.rows: dict[int, int] = {}  # pivot column -> packed row, in insertion order

    def add(self, row) -> bool:
        """Reduce the row into the space; True when it was independent."""
        p = self.p
        r = self._pack(row)
        for c, prow in self.rows.items():
            f = (r >> (c << 6) & _SLOT_MASK) % p
            if f:
                r += (p - f) * prow
        row = [x % p for x in self._unpack(r)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = pow(row[col], -1, p)
        self.rows[col] = self._pack([x * inv % p for x in row])
        return True

    def _pack(self, row) -> int:
        return int.from_bytes(self.slots.pack(*row), "little")

    def _unpack(self, r: int):
        return self.slots.unpack(r.to_bytes(self.slots.size, "little"))

    def free_column(self) -> int:
        return next(c for c in range(self.ncols) if c not in self.rows)

    def kernel_vector(self, free: int) -> list[int]:
        """The kernel vector with entry 1 at the free column, when the
        nullity is one, by back-substitution over the rows in reverse
        insertion order: a row's entries off its own pivot lie at the free
        column and at the pivots of later rows, already solved."""
        p = self.p
        v = [0] * self.ncols
        v[free] = 1
        for c, row in reversed(self.rows.items()):
            v[c] = -sum(map(mul, self._unpack(row), v)) % p
        return v


# the odd numbers from 3 to past sqrt(_PRIME_BOUND): an odd n between them and
# _PRIME_BOUND is prime exactly when it is coprime to their product
_ODD_FACTORS = prod(range(3, isqrt(_PRIME_BOUND) + 2, 2))


def _primes():
    """Primes below 2^21 (_PRIME_BOUND), descending."""
    n = _PRIME_BOUND - 1
    while True:
        if gcd(n, _ODD_FACTORS) == 1:
            yield n
        n -= 2


def _reconstruct(residues, modulus: int) -> list[int] | None:
    """The integer vector whose ratios reduce to the residues mod modulus,
    by rational reconstruction of each entry (Wang 1981), or None."""
    bound = isqrt(modulus // 2)
    fracs = []
    for a in residues:
        r0, r1, s0, s1 = modulus, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        fracs.append((r1, s1) if s1 > 0 else (-r1, -s1))
    den = lcm(*(s for _, s in fracs))
    return [r * (den // s) for r, s in fracs]


class FaceFactor(NamedTuple):
    """A face's discriminant, raised in E_A to the face's rank u * i."""

    invariants: FaceInvariants
    discriminant: IntPolynomial | None
    error: str | None = None

    @property
    def face(self) -> Face:
        return self.invariants.face

    @property
    def exponent(self) -> int:
        return self.invariants.k0_rank


class EDetResult(NamedTuple):
    factors: tuple[FaceFactor, ...]
    e_a: IntPolynomial | None


def principal_a_determinant(aset: ASet, budget: Budget | None = None) -> EDetResult:
    """E_A as the product over non-empty faces of face discriminants raised
    to their K-theory rank exponents, with a per-face report.

    One clock, started here, bounds every face oracle.  A face over budget is
    captured in its row and leaves E_A unmultiplied, since the product is
    taken only once every face has its discriminant.
    """
    rows = _factors(aset, _Clock(budget or Budget()))
    if any(row.discriminant is None for row in rows):
        return EDetResult(factors=tuple(rows), e_a=None)
    product = IntPolynomial.constant(aset.n, 1)
    for row in rows:
        if row.exponent:
            product = product * row.discriminant**row.exponent
    return EDetResult(factors=tuple(rows), e_a=product)


def multiplicity(poly: IntPolynomial, edge: EdgeData) -> int:
    """The power with which the edge's circuit discriminant appears in the
    leading form of poly (a face discriminant, or E_A itself) along the
    edge's normal direction: form_multiplicity of poly.leading_form(psi)."""
    if poly.is_zero():
        raise MultiplicityError("the polynomial is zero")
    return form_multiplicity(
        poly.leading_form(edge.psi), circuit_discriminant(edge.circuit, poly.nvars)
    )


def form_multiplicity(form: IntPolynomial, circuit_disc: IntPolynomial) -> int:
    """The k with form = circuit_disc^k up to a monomial and a constant, for
    multiplicity and for verify_theorem's batched leading forms: zero for a
    monomial form with no match_power, and an error for any other mismatch,
    since it would break the rank bookkeeping downstream."""
    if form.is_monomial():
        return 0
    k = match_power(form, circuit_disc)
    if k is None:
        raise MultiplicityError(
            "not a power of the circuit discriminant: leading form %s vs %s"
            % (form.to_str(), circuit_disc.to_str())
        )
    return k


class NewtonReport(NamedTuple):
    ok: bool
    missing_vertices: tuple[tuple[int, ...], ...]
    non_vertex_phis: tuple[tuple[int, ...], ...]
    outside_exponents: tuple[tuple[int, ...], ...]


def newton_polytope_check(e_a: IntPolynomial, sp: SecondaryPolytope) -> NewtonReport:
    """Vertices of the Newton polytope of E_A must be exactly the
    characteristic functions of the regular triangulations, read from the
    facets of their convex hull (sp.hull, built from sp.phis in order): each
    phi must be a vertex (the only phi on every facet through it) and every
    other exponent must satisfy the hull equations and every facet
    inequality."""
    exps = set(e_a.terms)
    hull = sp.hull
    phi_set = set(sp.phis)
    missing = tuple(sorted(p for p in sp.phis if p not in exps))
    non_vertex = [p for k, p in enumerate(sp.phis) if not hull.is_vertex(k, len(sp.phis))]
    outside = [e for e in sorted(exps) if e not in phi_set and not hull.contains(e)]

    ok = not missing and not non_vertex and not outside
    return NewtonReport(
        ok=ok,
        missing_vertices=missing,
        non_vertex_phis=tuple(non_vertex),
        outside_exponents=tuple(outside),
    )
