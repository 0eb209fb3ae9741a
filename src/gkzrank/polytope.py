"""Exact rational convex geometry for height-one point configurations.

Validation of A-sets, the face lattice of Q = conv(A) with supporting
certificates, normalized volumes, and the lower hulls of integer lifts
(placing orders as powers of one base) that triangulations, subdivisions
and the staircases of faces are built on.  Every fold sign of a lower hull,
and every wall of a secondary cone, is read from the fold table of the
configuration: the integer affine relation on each full simplex plus each
further point, read off the maximal minors as one relation per
(d + 1)-subset, once per configuration.

The facets of Q (its one equation is the height functional, which also
names the coordinate Q is projected off) and the extreme rays of every cone
(a secondary cone, whose rays give the secondary polytope's facets), each
with its tight rows as one bitmask, come from one integer double
description, with no LP and no floating-point predicate, started by the
module's one fraction-free elimination; the face lattice of Q is the
closure of its facets under intersection, and each face's dimension is its
height in that graded lattice.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .lattice import LatticeError, smith_normal_form

IntVector = tuple[int, ...]


class InvalidConfiguration(ValueError):
    """A point configuration that is not a valid A-set."""

    def __init__(self, code: str, message: str | None = None):
        self.code = code
        super().__init__(message or code)


class ASet(NamedTuple):
    """A height-one lattice point configuration generating ZZ^dim."""

    dim: int
    points: tuple[IntVector, ...]
    height: IntVector

    @property
    def n(self) -> int:
        return len(self.points)


class Face(NamedTuple):
    """A non-empty face of Q = conv(A), stored as the indices of all points
    of A lying on it, with an integer supporting functional certificate:
    <support, v> <= offset on A with equality exactly on the face."""

    indices: tuple[int, ...]
    support: IntVector
    offset: int
    dim: int


class MarkedPolytope(NamedTuple):
    """A polytope together with a marked subset of A spanning it."""

    vertices_hull: tuple[int, ...]
    marks: tuple[int, ...]


def validate_aset(dim: int, points) -> ASet:
    """Validate and build an A-set; raises InvalidConfiguration."""
    if not _is_int(dim):
        raise InvalidConfiguration("non-integer dim")
    if dim < 1:
        raise InvalidConfiguration("non-positive dim", "dim must be at least 1")
    if not isinstance(points, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) for p in points
    ):
        raise InvalidConfiguration("malformed points", "points must be a list of coordinate lists")
    pts = [tuple(p) for p in points]
    if not all(_is_int(x) for p in pts for x in p):
        raise InvalidConfiguration("non-integer coordinate")
    if not pts:
        raise InvalidConfiguration("empty configuration")
    if any(len(p) != dim for p in pts):
        raise InvalidConfiguration("wrong point length", "point length differs from dim")
    if len(set(pts)) != len(pts):
        raise InvalidConfiguration("duplicate point")
    # L M R = D for the matrix M whose columns are the points: h M = 1 exactly
    # when y = h L^-1 solves y D = c = 1 R, so c vanishes past the rank, d_k
    # divides c_k, and h = y L with y_k = c_k / d_k (unique at rank dim)
    dec = smith_normal_form([[p[i] for p in pts] for i in range(dim)], left=True, right=True)
    rank, diag = dec.rank, dec.diag[: dec.rank]
    c = [sum(col) for col in zip(*dec.right)]
    y = [x // q for x, q in zip(c, diag)]
    height = tuple(sum(a * row[j] for a, row in zip(y, dec.left)) for j in range(dim))
    divisible = not any(c[rank:]) and not any(x % q for x, q in zip(c, diag))
    if not divisible or any(_dot(height, p) != 1 for p in pts):
        raise InvalidConfiguration("no height functional")
    if rank != dim:  # the points lie off 0, so rank dim is affine rank dim - 1
        raise InvalidConfiguration(
            "degenerate configuration",
            "points lie on a proper affine subspace of the height-one hyperplane",
        )
    if prod(diag) != 1:
        raise InvalidConfiguration("does not generate lattice")
    return ASet(dim=dim, points=tuple(pts), height=height)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


class HRepresentation(NamedTuple):
    """conv of finitely many integer points as {x : c.x == e for every
    equation (c, e), a.x <= b for every facet (a, b)}.  The equations are a
    basis of the integer normals of the affine hull; each facet normal a is
    primitive, outward, and zero off the hull coordinates it was found in.
    incidence holds, in facet order, the input points on each facet as a
    bitmask (bit k for the k-th point): every question about the faces
    through input points is read from it."""

    equations: tuple[tuple[IntVector, int], ...]
    facets: tuple[tuple[IntVector, int], ...]
    incidence: tuple[int, ...]

    def contains(self, x) -> bool:
        return all(_dot(c, x) == e for c, e in self.equations) and all(
            _dot(a, x) <= b for a, b in self.facets
        )

    def face(self, points: int, m: int) -> tuple[int, list[int]]:
        """For a bitmask of some of the m input points: the input points of
        the smallest face containing them all (every face is the intersection
        of the facets containing it; no facet leaves the polytope itself),
        as a bitmask, and the indices of those facets."""
        facets = [f for f, on in enumerate(self.incidence) if on & points == points]
        face = (1 << m) - 1
        for f in facets:
            face &= self.incidence[f]
        return face, facets

    def is_vertex(self, k: int, m: int) -> bool:
        """Whether the k-th of the m input points is a vertex."""
        return self.face(1 << k, m)[0] == 1 << k


def _gauss_jordan(rows) -> tuple[list[int], list[tuple[int, list[int]]], int]:
    """The indices of the rows independent of the rows before them (as many
    as the rank), the stored rows as (pivot column, row | combination) and
    their common pivot, by one incremental fraction-free Gauss-Jordan pass
    (Bareiss 1968); ([], [], 1) for no rows.  A row times the common pivot,
    less the stored rows times its entries at their pivots, is a row of
    minors, zero when the row is dependent; a kept row clears its pivot from
    the stored ones, by exact division.  Each stored row carries the
    combination of basis rows that reduces it to its pivot, so at full rank
    the combinations are the pivot times the basis inverse."""
    m = len(rows[0]) if rows else 0
    basis, stored, det = [], [], 1
    for t, row in enumerate(rows):
        if len(basis) == m:
            break
        x = [det * v for v in row] + [det if k == len(basis) else 0 for k in range(m)]
        for k, s in stored:
            if f := row[k]:
                x = [a - f * b for a, b in zip(x, s)]
        if (c := next((k for k in range(m) if x[k]), None)) is not None:
            stored = [(k, [(x[c] * a - s[c] * b) // det for a, b in zip(s, x)]) for k, s in stored]
            stored.append((c, x))
            det = x[c]
            basis.append(t)
    return basis, stored, det


def extreme_rays(rows) -> list[tuple[IntVector, int]]:
    """The extreme rays of the cone {h : r.h >= 0 for every row r}, whose
    rows must have full rank, each primitive and with the rows it is tight
    on as one bitmask (bit t for row t), by integer double description
    (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996).

    The start is the simplicial cone of the basis that `_gauss_jordan`
    finds: column k of its combinations, the pivot times the basis inverse,
    signed and made primitive, is the ray tight on every basis row but the
    k-th.  The other rows are added one at a time.  A new ray combines a
    ray on each side of the added row whose common tight rows lie in no
    third ray's (the combinatorial adjacency test); every step is integer
    and primitive."""
    m = len(rows[0])
    basis, stored, det = _gauss_jordan(rows)
    if len(basis) < m:
        raise LatticeError("extreme rays of rows without full rank")
    inverse = [x[m:] if det > 0 else [-v for v in x[m:]] for _, x in sorted(stored)]
    rays = []
    for k, s in enumerate(basis):
        g = gcd(*(x[k] for x in inverse))
        rays.append((tuple(x[k] // g for x in inverse), sum(1 << s for s in basis) ^ 1 << s))
    for t in (t for t in range(len(rows)) if t not in basis):
        vals = [_dot(rows[t], h) for h, _ in rays]
        new = [(h, tight | 1 << t if v == 0 else tight) for (h, tight), v in zip(rays, vals) if v >= 0]
        pos = [k for k, v in enumerate(vals) if v > 0]
        for p, q in product(pos, [k for k, v in enumerate(vals) if v < 0]):
            common = rays[p][1] & rays[q][1]
            if common.bit_count() >= m - 2 and not any(
                common & tight == common for k, (_, tight) in enumerate(rays) if k not in (p, q)
            ):
                h = [vals[p] * y - vals[q] * x for x, y in zip(rays[p][0], rays[q][0])]
                g = gcd(*h)
                new.append((tuple(x // g for x in h), common | 1 << t))
        rays = new
    return rays


def faces(aset: ASet) -> tuple[Face, ...]:
    """All non-empty faces of Q, vertices through Q itself, with certificates.

    Q's one equation is the height functional, the one relation among the
    coordinates of the points' differences, so Q projects one to one onto
    c, every coordinate but the last one the height is non-zero on.  Its
    facets come from one double description there: a facet a.x <= b is an
    extreme ray (b, a_c) of {h : h.(1, -p_c) >= 0 for every point p}, its
    tight-row mask the points on it.  Every other proper face is an
    intersection of facets, certified by the sum of the facets containing
    it (a point of the relative interior of its normal cone).  The face
    lattice is graded (Ziegler 1995, Thm 2.7): a face's dimension is one
    more than the largest among the faces it strictly contains, 0 for a
    vertex.  Ordered by (dim, lexicographic indices).  At d = 1, Q is a
    point.
    """
    d, pts = aset.dim, aset.points
    last = max(k for k, x in enumerate(aset.height) if x)
    coords = [k for k in range(d) if k != last]
    place = dict(zip(coords, range(1, d)))
    rays = extreme_rays([(1, *(-p[c] for c in coords)) for p in pts]) if d > 1 else []
    facets = sorted(
        (tuple(h[place[k]] if k in place else 0 for k in range(d)), h[0], on) for h, on in rays
    )
    hull = HRepresentation(((aset.height, 1),), tuple(f[:2] for f in facets), tuple(f[2] for f in facets))

    face_sets = set(hull.incidence)
    frontier = set(face_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in hull.incidence:
                h = f & g
                if h and h not in face_sets:
                    new.add(h)
        face_sets |= new
        frontier = new

    out = [Face(indices=tuple(range(aset.n)), support=(0,) * d, offset=0, dim=d - 1)]
    dims = {}  # a face strictly inside another has fewer points, so it comes first
    for fs in sorted(face_sets, key=int.bit_count):
        dims[fs] = 1 + max((dims[g] for g in dims if g & fs == g), default=-1)
        containing = [hull.facets[f] for f in hull.face(fs, aset.n)[1]]
        support = tuple(sum(u[i] for u, _ in containing) for i in range(d))
        offset = sum(c for _, c in containing)
        vals = [_dot(support, p) for p in pts]
        exact = tuple(i for i, v in enumerate(vals) if v == offset)
        if sum(1 << i for i in exact) != fs:
            raise RuntimeError("face certificate failed to isolate the face")
        out.append(Face(indices=exact, support=support, offset=offset, dim=dims[fs]))
    out.sort(key=lambda f: (f.dim, f.indices))
    return tuple(out)


# -- lower-hull machinery ---------------------------------------------------
#
# Every fold sign is read from the fold table: for each full simplex sigma,
# det sigma and the primitive integer affine relation on sigma plus each
# further point j, with j's entry positive (the circuit relation of the
# (d + 1)-subset sigma + j, which its d + 1 simplices share).  Each lower
# hull, cone, edge and face staircase of a configuration reads its one
# table.  An integer lift w puts j strictly above the plane through the
# lifted sigma exactly when the relation dotted with w is positive.

FoldTable = dict[tuple[int, ...], tuple[int, dict[int, IntVector]]]


def fold_table(points, dim) -> FoldTable:
    """sigma -> (det sigma, {j: relation on sigma + (j,)} for j outside
    sigma), over the full simplices sigma (sorted dim-subsets of the point
    indices with det != 0) in combinations order.  Every k-minor on the
    first k coordinates is the Laplace expansion along coordinate k of the
    (k - 1)-minors; each (dim + 1)-subset tau then has the one relation
    sum_t (-1)^t det(tau - tau_t) p_(tau_t) = 0, which gives the simplex
    tau - tau_t its row tau_t, primitive with that last entry positive."""
    n = len(points)
    minors = {(): 1}
    for k in range(dim):
        last, minors = minors, {}
        for tau in combinations(range(n), k + 1):
            det = 0
            for t, i in enumerate(tau):
                if m := last[tau[:t] + tau[t + 1 :]]:
                    det += -points[i][k] * m if (k ^ t) & 1 else points[i][k] * m
            minors[tau] = det
    table = {sigma: (det, {}) for sigma, det in minors.items() if det}
    for tau in combinations(range(n), dim + 1):
        sigmas = [tau[:t] + tau[t + 1 :] for t in range(dim + 1)]
        v = [-minors[s] if t & 1 else minors[s] for t, s in enumerate(sigmas)]
        if g := gcd(*v):
            rel = [x // g for x in v]
            for t, sigma in enumerate(sigmas):
                if rel[t]:
                    r = rel if rel[t] > 0 else [-x for x in rel]
                    table[sigma][1][tau[t]] = (*r[:t], *r[t + 1 :], r[t])
    return table


def lower_hull_cells(table: FoldTable, lifts) -> tuple[tuple[int, ...], ...]:
    """Marked cells (supports) of the subdivision that one integer lift per
    point induces on the table's points; the rows of some of its simplices
    give the cells that hold one of them."""
    cells = set()
    for sigma, (_, rels) in table.items():
        base = [lifts[i] for i in sigma]
        support = list(sigma)
        for j, rel in rels.items():
            fold = rel[-1] * lifts[j] + sum(map(mul, rel, base))
            if fold < 0:
                break
            if fold == 0:
                support.append(j)
        else:
            cells.add(tuple(sorted(support)))
    return tuple(sorted(cells))


def lower_hull_triangulation(table: FoldTable, lifts) -> tuple[tuple[int, ...], ...]:
    """Simplices of the triangulation induced by a generic lower lift: the
    cells that are full simplices."""
    return tuple(c for c in lower_hull_cells(table, lifts) if c in table)


def placing_lifts(table: FoldTable) -> list[int]:
    """The placing order as one integer lift: point i at B^i, for
    B = 2 + (d + 1) max |det sigma|.  A relation's d + 1 entries, each a
    d-minor, times powers below B^k add up to less than B^k, so a fold has
    the sign of its last point's entry (as under epsilon^(n - i)), also with
    every lift shifted by -B^n.  An empty table gives no lift."""
    if not table:
        return []
    sigma, (_, rels) = next(iter(table.items()))
    base = 2 + (len(sigma) + 1) * max(abs(det) for det, _ in table.values())
    return [base**i for i in range(len(sigma) + len(rels))]


def placing_volume(table: FoldTable) -> int:
    """Normalized volume of conv of the table's points (0 if flat)."""
    return sum(abs(table[s][0]) for s in lower_hull_triangulation(table, placing_lifts(table)))


def total_volume(aset: ASet) -> int:
    """Normalized volume of Q (via the placing triangulation)."""
    return placing_volume(fold_table(aset.points, aset.dim))
