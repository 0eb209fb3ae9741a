"""Test-only references for the fold table: the relation on one simplex plus
one point by Cramer's rule from the simplex's adjugate, and the whole table
built that way, one simplex at a time; the volume of a subset by the
placing triangulation of its own fold table; a circuit's primitive relation
by Smith normal form, a triangulation's characteristic function and a
ridge's point sides, each recomputed on its own rather than read from the
table; every fold functional of a triangulation, from Fraction barycentric
coordinates, for the cone that all its folds cut out; the facets of a
secondary cone by the rank of the extreme rays tight on each fold; an edge's lattice indices, each by the Smith normal form of
its point set rather than from the table's volumes; and the integer linear
algebra they and the lattice tests rest on: det_int (Bareiss), adjugate
(one fraction-free Gauss-Jordan pass on [M | I], the start of the
reference double description `hull_reference.extreme_rays_by_adjugate`),
mat_mul, the product that rebuilds a Smith normal form, and integer_solve,
with the A-set validation by two Smith normal forms built on it."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from gkzrank.lattice import (
    IntMatrix,
    IntVector,
    LatticeError,
    _check_matrix,
    kernel_basis,
    mat_vec,
    smith_normal_form,
    span,
)
from gkzrank.polytope import (
    ASet,
    InvalidConfiguration,
    _independent_rows,
    extreme_rays,
    fold_table,
    placing_volume,
)
from gkzrank.secondary import Circuit


def mat_mul(a, b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise LatticeError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(rows) -> tuple[int, IntMatrix | None]:
    """(det M, adj M) of a square integer matrix M, so that
    M adj = adj M = det I, by one fraction-free Gauss-Jordan pass on [M | I]
    (Bareiss 1968); (0, None) when M is singular."""
    n = len(rows)
    a = [list(map(int, r)) + [int(i == k) for k in range(n)] for i, r in enumerate(rows)]
    if any(len(r) != 2 * n for r in a):
        raise LatticeError("adjugate of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        for i, ai in enumerate(a):
            if i != k:  # every entry is a minor of [M | I], so each division is exact
                f = ai[k]
                a[i] = [(ak[k] * x - f * y) // prev for x, y in zip(ai, ak)]
        prev = ak[k]
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in a)


def reconstruct(dec, matrix) -> list[list[int]]:
    """left @ matrix @ right of a SmithDecomposition: its diagonal form."""
    return mat_mul(mat_mul(dec.left, matrix), dec.right)


def integer_solve(matrix, rhs) -> IntVector | None:
    """One integer solution x of matrix @ x = rhs, or None."""
    mat = _check_matrix(matrix)
    b = list(map(int, rhs))
    if len(b) != len(mat):
        raise LatticeError("right-hand side length mismatch")
    n = len(mat[0])
    dec = smith_normal_form(mat, left=True, right=True)
    lb = mat_vec(dec.left, b)
    rank = dec.rank
    y = [0] * n
    for i, val in enumerate(lb):
        if i < rank:
            if val % dec.diag[i] != 0:
                return None
            y[i] = val // dec.diag[i]
        elif val != 0:
            return None
    x = mat_vec(dec.right, y)
    for row, target in zip(mat, b):
        if sum(c * v for c, v in zip(row, x)) != target:
            return None
    return tuple(x)


def validate_by_two_snfs(dim, pts) -> ASet:
    """validate_aset's lattice checks on distinct integer points of length
    dim, by one Smith normal form for the height (integer_solve on the rows)
    and another for the rank and the index (span of the columns)."""
    height = integer_solve([list(p) for p in pts], [1] * len(pts))
    if height is None:
        raise InvalidConfiguration("no height functional")
    lat = span(pts, dim)
    if lat.rank != dim:
        raise InvalidConfiguration("degenerate configuration")
    if prod(lat.diag) != 1:
        raise InvalidConfiguration("does not generate lattice")
    return ASet(dim=dim, points=tuple(map(tuple, pts)), height=tuple(height))


def primitive_relation(vectors) -> IntVector:
    """The primitive integer relation of a circuit.

    The input must be a minimal dependent set; the relation is normalized so
    its first nonzero coefficient is positive.
    """
    vecs = [tuple(map(int, v)) for v in vectors]
    if len(vecs) < 2:
        raise LatticeError("not a circuit")
    d = len(vecs[0])
    cols = [[v[i] for v in vecs] for i in range(d)]  # d x k, columns = vectors
    kern = kernel_basis(cols)
    if len(kern) != 1:
        raise LatticeError("not a circuit")
    rel = kern[0]
    if any(c == 0 for c in rel):
        raise LatticeError("not a circuit")
    g = gcd(*rel)
    if g != 1:  # unimodular transform columns are primitive; guard anyway
        rel = tuple(c // g for c in rel)
    first = next(c for c in rel if c != 0)
    if first < 0:
        rel = tuple(-c for c in rel)
    for i in range(d):
        if sum(c * v[i] for c, v in zip(rel, vecs)) != 0:
            raise LatticeError("internal error: relation does not annihilate input")
    return tuple(rel)


def circuit_from_points(aset, indices) -> Circuit:
    idx = tuple(sorted(indices))
    rel = primitive_relation([aset.points[i] for i in idx])
    return Circuit(indices=idx, relation=rel)


def fold_relation(points, sigma, j):
    """Primitive integer relation c on sigma + (j,), i.e. sum_k c_k p_k = 0,
    with c[-1] > 0; sigma must be a full simplex.  By Cramer's rule from
    the adjugate of sigma: c is (-adj.p_j, det sigma) made primitive."""
    det, adj = adjugate(list(zip(*(points[i] for i in sigma))))
    if det == 0:
        raise InvalidConfiguration("flat simplex", "sigma spans no full-dimensional cell")
    rel = [-sum(a * x for a, x in zip(row, points[j])) for row in adj] + [det]
    g = gcd(*rel) if det > 0 else -gcd(*rel)
    return tuple(x // g for x in rel)


def fold_table_by_adjugates(points, dim):
    """fold_table one simplex at a time: each sorted dim-subset sigma with
    det_int != 0, in combinations order, with fold_relation for every point
    outside it, in ascending order."""
    table = {}
    for sigma in combinations(range(len(points)), dim):
        if det := det_int([points[i] for i in sigma]):
            others = (j for j in range(len(points)) if j not in sigma)
            table[sigma] = det, {j: fold_relation(points, sigma, j) for j in others}
    return table


def listed(table):
    """A fold table as a list, so that comparing two also compares the
    order of their keys and of each key's rows."""
    return [(sigma, det, list(rels.items())) for sigma, (det, rels) in table.items()]


def subset_volume(points, indices, dim) -> int:
    """Normalized volume of conv of the chosen (full-dimensional) subset,
    by the placing triangulation of its own fold table."""
    sub = [points[i] for i in indices]
    total = placing_volume(fold_table(sub, dim))
    if total == 0:
        raise InvalidConfiguration("flat subset", "subset spans no full-dimensional cell")
    return total


def barycentric(points, sigma, j):
    """Affine coordinates of point j in the full simplex sigma (Cramer)."""
    mat = [points[i] for i in sigma]
    den = det_int(mat)
    return [
        Fraction(det_int([points[j] if k == r else row for k, row in enumerate(mat)]), den)
        for r in range(len(mat))
    ]


def reference_fold_functionals(aset, simplices):
    """Every fold functional of the simplices, one for each simplex and each
    point outside it, normalised from Fraction barycentric coordinates:
    distinct, primitive and sorted."""
    out = set()
    for sigma in simplices:
        for j in set(range(aset.n)) - set(sigma):
            c = [Fraction(0)] * aset.n
            c[j] = Fraction(1)
            for coef, i in zip(barycentric(aset.points, sigma, j), sigma):
                c[i] -= coef
            den = lcm(*(x.denominator for x in c))
            ints = [int(x * den) for x in c]
            g = gcd(*ints)
            out.add(tuple(x // g for x in ints))
    return sorted(out)


def characteristic_function(aset, triangulation):
    """phi_T: each point's total |det sigma| over the simplices of T that
    contain it, every determinant by det_int."""
    phi = [0] * aset.n
    for sigma in triangulation.simplices:
        vol = abs(det_int([aset.points[i] for i in sigma]))
        for i in sigma:
            phi[i] += vol
    return tuple(phi)


def edge_indices_by_snf(aset, edge):
    """(per_j_indices, zf_rank, circuit_index) of an edge, as rank_k0_edge
    returns them: [ZZ^d : ZZ(I + J)] for each separating set J, their sum,
    and [ZZ^d : ZZ I] when the circuit I spans (None otherwise), each the
    index of one span, i.e. the product of its Smith invariant factors."""
    circuit = [aset.points[i] for i in edge.circuit.indices]
    per_j = []
    for jset in edge.separating_sets:
        lat = span(circuit + [aset.points[i] for i in jset], aset.dim)
        assert lat.rank == aset.dim, "circuit plus separating set fails to span"
        per_j.append((jset, prod(lat.diag)))
    lat = span(circuit, aset.dim)
    return tuple(per_j), sum(x for _, x in per_j), prod(lat.diag) if lat.rank == aset.dim else None


def ridge_sides_by_det(aset, ridge):
    """det(ridge, p) for every point p of A: the sign gives p's side of the
    hyperplane through the ridge."""
    return [det_int([aset.points[i] for i in ridge] + [p]) for p in aset.points]


def facets_by_rank(aset, folds, sims):
    """The indices of the folds of T that are facets of its cone C(T), read
    on the coordinates outside T's first simplex: those whose tight extreme
    rays have rank one less than the cone's dimension there."""
    off = [i for i in range(aset.n) if i not in sims[0]]
    rays = extreme_rays([[c[i] for i in off] for c in folds]) if folds else []
    rank = len(off) - 1
    tight = [[h for h, on in rays if on >> k & 1] for k in range(len(folds))]
    return [k for k, hs in enumerate(tight) if len(hs) >= rank and len(_independent_rows(hs)) == rank]
