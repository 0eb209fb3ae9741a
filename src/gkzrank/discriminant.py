"""Discriminants and the principal A-determinant.

Circuit discriminants come from the explicit binomial formula attached to a
primitive relation.  Face discriminants are eliminants of the face's
coefficient family, written in saturated face-local coordinates.  A
one-dimensional face f = sum_j a_j x^(e_j) takes the resultant Res(f, f'),
the determinant of a sparse Sylvester matrix, with its monomial factor
stripped.  A face of dimension two or more goes to the Buchberger oracle:
the singular-locus system is saturated against the torus and the
coefficient-variable eliminant is extracted.  Either eliminant is made
primitive and stripped to its underlying irreducible power root.  Both
oracles share the elimination budget and its exponent limit.  The principal
A-determinant is the product of face discriminants raised to their K-theory
rank exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .elimination import (
    _EXP_MAX,
    Budget,
    BudgetExceeded,
    ExponentOverflow,
    _Clock,
    eliminate,
)
from .lattice import span_coordinates
from .polynomial import IntPolynomial, match_power, polynomial_gcd
from .polytope import ASet, Face, affine_rank, faces
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
    are kept exactly as the relation dictates.
    """
    rel = circuit.relation
    if any(l == 0 for l in rel):
        raise ValueError("relation with zero coefficient is not primitive")
    g = 0
    for l in rel:
        g = gcd(g, l)
    if g != 1:
        raise ValueError("relation is not primitive")
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
    coords, rank = span_coordinates(pts, aset.dim)
    if rank == 1:
        return [()] * len(pts)
    base = coords[0]
    diffs = [tuple(a - b for a, b in zip(c, base)) for c in coords[1:]]
    dcoords, drank = span_coordinates(diffs, rank)
    if drank != rank - 1:
        raise OracleError("face coordinates have unexpected affine rank")
    exps = [(0,) * drank] + dcoords
    lows = [min(e[i] for e in exps) for i in range(drank)]
    return [tuple(x - lo for x, lo in zip(e, lows)) for e in exps]


def face_discriminant(
    aset: ASet, face: Face, budget: Budget | None = None
) -> IntPolynomial:
    """The discriminant of the face configuration, in the global a-variables.

    Vertices give their own coordinate variable; simplex faces (and any face
    whose dual variety has codimension above one) give the constant 1.
    One-dimensional faces are eliminated by a resultant, higher faces by
    Buchberger.  Raises BudgetExceeded when the oracle runs out of budget.
    """
    n = aset.n
    idx = face.indices
    if len(idx) == 1:
        return IntPolynomial.variable(n, idx[0])
    pts = [aset.points[i] for i in idx]
    if affine_rank(pts) == len(idx) - 1:
        return IntPolynomial.constant(n, 1)

    exps = face_local_exponents(aset, face)
    if len(exps[0]) == 1:
        h = _resultant_eliminant(exps, budget)
    else:
        h = _groebner_eliminant(exps, budget)
    return _irreducible_core(h).embed(n, list(idx))


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


def _resultant_eliminant(exps, budget: Budget | None) -> IntPolynomial:
    """Res(f, f') for f = sum_j a_j x^(e_j), its monomial factor stripped.

    For a one-dimensional configuration this is the classical discriminant
    restricted to the sparse family, times powers of the coefficients of the
    two end monomials (GKZ 1994, ch. 12).  The Sylvester matrix is held as
    sparse rows, column -> entry, with column c the coefficient of
    x^(2N-2-c), and its determinant is taken by fraction-free (Bareiss)
    elimination, every division exact.
    """
    degrees = [e for (e,) in exps]
    for e in degrees:
        if e > _EXP_MAX:
            raise ExponentOverflow(e)
    clock = _Clock(budget or Budget())
    k = len(degrees)
    top = max(degrees)
    last = 2 * top - 2
    coeffs = [IntPolynomial.variable(k, j) for j in range(k)]
    rows = [
        {last - s - e: a for e, a in zip(degrees, coeffs)} for s in range(top - 1)
    ] + [
        {last + 1 - s - e: a * e for e, a in zip(degrees, coeffs) if e}
        for s in range(top)
    ]
    prev = IntPolynomial.constant(k, 1)
    for col in range(last + 1):
        r = next((r for r, row in enumerate(rows) if col in row), None)
        if r is None:
            raise OracleError("Sylvester matrix of f and f' is singular")
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
    clock.check(len(q.terms), "resultant")
    return q


def _irreducible_core(h: IntPolynomial) -> IntPolynomial:
    """The primitive, sign-normalized irreducible whose power h is; the
    constant 1 when h is a constant."""
    h = h.primitive_part()
    if h.is_constant():
        return IntPolynomial.constant(h.nvars, 1)
    return _power_root(h).sign_normalized()


def _power_root(h: IntPolynomial) -> IntPolynomial:
    """Strip h = c * p^m down to p; the eliminant of an irreducible dual
    variety is always a power of a single irreducible."""
    lead = h.lead_exponent()
    trail = h.trail_exponent()
    g = 0
    for e in (lead, trail):
        for x in e:
            g = gcd(g, x)
    for m in range(g, 1, -1):
        if g % m:
            continue
        root = h.nth_root(m)
        if root is not None:
            return root
    return h


@dataclass(frozen=True)
class FaceFactor:
    face: Face
    u: int
    index: int
    exponent: int
    discriminant: IntPolynomial | None
    error: str | None = None


@dataclass(frozen=True)
class EDetResult:
    factors: tuple[FaceFactor, ...]
    e_a: IntPolynomial | None

    @property
    def complete(self) -> bool:
        return self.e_a is not None


def principal_a_determinant(aset: ASet, budget: Budget | None = None) -> EDetResult:
    """E_A as the product over non-empty faces of face discriminants raised
    to their K-theory rank exponents, with a per-face report.

    Budget failures are captured per face; the product is assembled only when
    every factor is available.
    """
    from .ktheory import face_index_i, face_volume_u

    n = aset.n
    rows = []
    product = IntPolynomial.constant(n, 1)
    complete = True
    for face in faces(aset):
        u = face_volume_u(aset, face).u
        idx = face_index_i(aset, face)
        exponent = u * idx
        try:
            delta = face_discriminant(aset, face, budget)
            err = None
        except BudgetExceeded as exc:
            delta = None
            err = str(exc)
            complete = False
        rows.append(
            FaceFactor(
                face=face,
                u=u,
                index=idx,
                exponent=exponent,
                discriminant=delta,
                error=err,
            )
        )
        if complete and delta is not None and exponent:
            product = product * delta**exponent
    e_a = product.sign_normalized() if complete else None
    return EDetResult(factors=tuple(rows), e_a=e_a)


def multiplicity(
    aset: ASet,
    face: Face,
    edge: EdgeData,
    face_disc: IntPolynomial,
    circuit_disc: IntPolynomial | None = None,
) -> int:
    """The power with which the edge's circuit discriminant appears in the
    leading form of the face discriminant along the edge's normal direction.

    A pure-monomial leading form gives zero; any other mismatch is an error
    because it would break the rank bookkeeping downstream.
    """
    if circuit_disc is None:
        circuit_disc = circuit_discriminant(edge.circuit, aset.n)
    if face_disc.is_zero():
        raise MultiplicityError("face discriminant is zero")
    if face_disc.is_constant():
        return 0
    form = face_disc.leading_form(edge.psi)
    k = match_power(form, circuit_disc)
    if k is None:
        raise MultiplicityError(
            "not a power of the circuit discriminant: leading form %s vs %s"
            % (form.to_str(), circuit_disc.to_str())
        )
    return k


@dataclass(frozen=True)
class RestrictionReport:
    ok: bool
    exponent: int | None
    expected_exponent: int
    leading_form: IntPolynomial
    circuit_disc: IntPolynomial


def edge_restriction_check(
    aset: ASet, edge: EdgeData, e_a: IntPolynomial, expected_exponent: int
) -> RestrictionReport:
    """Check that the coefficient restriction of E_A to the edge is the
    expected power of the circuit discriminant (up to sign and a monomial)."""
    delta = circuit_discriminant(edge.circuit, aset.n)
    form = e_a.leading_form(edge.psi)
    k = match_power(form, delta)
    return RestrictionReport(
        ok=(k == expected_exponent),
        exponent=k,
        expected_exponent=expected_exponent,
        leading_form=form,
        circuit_disc=delta,
    )


@dataclass(frozen=True)
class NewtonReport:
    ok: bool
    missing_vertices: tuple[tuple[int, ...], ...]
    non_vertex_phis: tuple[tuple[int, ...], ...]
    outside_exponents: tuple[tuple[int, ...], ...]


def newton_polytope_check(e_a: IntPolynomial, sp: SecondaryPolytope) -> NewtonReport:
    """Vertices of the Newton polytope of E_A must be exactly the
    characteristic functions of the regular triangulations."""
    from .linprog import feasible_point, in_convex_hull

    exps = set(e_a.terms)
    phis = list(sp.phis)
    phi_set = set(phis)
    missing = tuple(sorted(p for p in phis if p not in exps))

    non_vertex = []
    n = e_a.nvars
    for p in phis:
        others = [q for q in phis if q != p]
        if not others:
            continue
        a_ub = []
        b_ub = []
        for q in others:
            a_ub.append([q[k] - p[k] for k in range(n)])
            b_ub.append(-1)
        if feasible_point(n, a_ub, b_ub) is None:
            non_vertex.append(p)

    outside = []
    for e in sorted(exps):
        if e in phi_set:
            continue
        if not in_convex_hull(e, phis):
            outside.append(e)

    ok = not missing and not non_vertex and not outside
    return NewtonReport(
        ok=ok,
        missing_vertices=missing,
        non_vertex_phis=tuple(non_vertex),
        outside_exponents=tuple(outside),
    )
