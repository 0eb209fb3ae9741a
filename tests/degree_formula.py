"""The degree and multidegree of a face discriminant predicted from the
face lattice alone, with no oracle.  For a face B, read as its own
configuration in the lattice its points generate,

    deg Delta_B = sum_alpha (-1)^(dim B - dim alpha) (dim alpha + 1) Vol(alpha) Eu_B(alpha)

over the faces alpha of B, where Vol(alpha) is the normalized volume of
alpha in the lattice its points generate (1 for a vertex), and the Euler
obstructions Eu_B come down from Eu_B(B) = 1 by

    Eu_B(alpha) = sum_{alpha < gamma <= B} (-1)^(dim gamma - dim alpha - 1) m(alpha, gamma) Eu_B(gamma),

with m(alpha, gamma) the rank u * i of alpha read in gamma's own
configuration.  This is the formula as measured on this package's
discriminants: it gives the degree of every face discriminant of the
built-ins, acceptance corpus instances 0-99 and the 40 four-dimensional
draws of conftest, E_A's top faces among them, and 0 for every face that is
a pyramid over a circuit (Delta = 1).  With the weight u in place of u * i it
does not: five of the draws' top faces come out too high.

The vector form gives the multidegree B beta of Delta_B, for any exponent
beta of it, in the coordinates of B's points:

    B beta = sum_alpha (-1)^(dim B - dim alpha) Eu_B(alpha) B phi_alpha,

where phi_alpha is the characteristic function of the placing triangulation
of alpha in the lattice its points generate (a vertex contributes its own
point).  Since the entries of phi_alpha add up to (dim alpha + 1) Vol(alpha),
its height row is the degree formula; the other rows are a measured fact on
the same faces, not a statement taken from a paper."""

from operator import floordiv

from gkzrank.ktheory import rank_k0_face
from gkzrank.lattice import span
from gkzrank.polytope import (
    faces,
    fold_table,
    lower_hull_triangulation,
    placing_lifts,
    placing_volume,
    validate_aset,
)


def own_configuration(points, d):
    """The points in a basis of the lattice they generate."""
    lat = span(points, d)
    coords = [tuple(map(floordiv, lat.coordinates(p), lat.diag)) for p in points]
    return validate_aset(lat.rank, coords)


def predicted_degree(aset, face) -> int:
    """deg Delta_face by the formula above."""
    if len(face.indices) == 1:
        return 1
    alphas, own, eu = euler_obstructions(aset, face)
    top = alphas[-1]
    return sum(
        (-1) ** (top.dim - alpha.dim)
        * (alpha.dim + 1)
        * (placing_volume(own[alpha.indices][1]) if len(alpha.indices) > 1 else 1)
        * eu[alpha.indices]
        for alpha in alphas
    )


def predicted_multidegree(aset, face) -> tuple[int, ...]:
    """B beta for an exponent beta of Delta_face, in aset's coordinates, by
    the vector form above."""
    points = [aset.points[i] for i in face.indices]
    if len(points) == 1:
        return points[0]
    alphas, own, eu = euler_obstructions(aset, face)
    top = alphas[-1]
    total = [0] * aset.dim
    for alpha in alphas:
        weight = (-1) ** (top.dim - alpha.dim) * eu[alpha.indices]
        for i, phi in zip(alpha.indices, placing_phi(own, alpha)):
            total = [t + weight * phi * x for t, x in zip(total, points[i])]
    return tuple(total)


def multidegree(aset, poly) -> tuple[int, ...]:
    """B beta for an exponent beta of poly, a polynomial in aset's
    variables that is homogeneous for aset's grading (0 for a constant)."""
    beta = next(iter(poly.terms))
    return tuple(sum(b * x for b, x in zip(beta, col)) for col in zip(*aset.points))


def euler_obstructions(aset, face):
    """The faces alpha of B = face read as its own configuration, by
    dimension with B last; each one's own configuration, fold table and
    faces by indices, keyed by its indices when it is not a vertex; and
    Eu_B(alpha), keyed the same way, by the recursion above."""
    conf = own_configuration([aset.points[i] for i in face.indices], aset.dim)
    alphas = faces(conf)  # by dimension, B itself last
    own = {}  # gamma's indices -> its configuration, fold table and faces
    for gamma in alphas:
        if len(gamma.indices) > 1:
            c = own_configuration([conf.points[i] for i in gamma.indices], conf.dim)
            own[gamma.indices] = c, fold_table(c.points, c.dim), {f.indices: f for f in faces(c)}
    top = alphas[-1]
    eu = {top.indices: 1}
    for alpha in reversed(alphas[:-1]):
        eu[alpha.indices] = 0
        for gamma in alphas:
            if gamma.dim > alpha.dim and set(alpha.indices) <= set(gamma.indices):
                c, table, by_indices = own[gamma.indices]
                local = by_indices[tuple(map(gamma.indices.index, alpha.indices))]
                m = rank_k0_face(c, local, table).k0_rank
                eu[alpha.indices] += (-1) ** (gamma.dim - alpha.dim - 1) * m * eu[gamma.indices]
    return alphas, own, eu


def placing_phi(own, alpha) -> list[int]:
    """phi_alpha: the characteristic function of the placing triangulation
    of alpha in the lattice its points generate, one entry per point of
    alpha (1 at a vertex)."""
    if len(alpha.indices) == 1:
        return [1]
    table = own[alpha.indices][1]
    phi = [0] * len(alpha.indices)
    for simplex in lower_hull_triangulation(table, placing_lifts(table)):
        for i in simplex:
            phi[i] += abs(table[simplex][0])
    return phi
