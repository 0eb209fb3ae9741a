"""Test-only references for the fold table: the relation on one simplex
plus one point, a triangulation's characteristic function and a ridge's
point sides, each recomputed on its own rather than read from the table."""

from gkzrank.lattice import det_int
from gkzrank.polytope import InvalidConfiguration, _relation, _simplex_adjugate


def fold_relation(points, sigma, j):
    """Primitive integer relation c on sigma + (j,), i.e. sum_k c_k p_k = 0,
    with c[-1] > 0; sigma must be a full simplex."""
    det, adj = _simplex_adjugate(points, sigma)
    if det == 0:
        raise InvalidConfiguration("flat simplex", "sigma spans no full-dimensional cell")
    return _relation(det, adj, points[j])


def characteristic_function(aset, triangulation):
    """phi_T: each point's total |det sigma| over the simplices of T that
    contain it, every determinant by det_int."""
    phi = [0] * aset.n
    for sigma in triangulation.simplices:
        vol = abs(det_int([aset.points[i] for i in sigma]))
        for i in sigma:
            phi[i] += vol
    return tuple(phi)


def ridge_sides_by_det(aset, ridge):
    """det(ridge, p) for every point p of A: the sign gives p's side of the
    hyperplane through the ridge."""
    return [det_int([aset.points[i] for i in ridge] + [p]) for p in aset.points]
