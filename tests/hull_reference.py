"""Reference hull questions answered without the package's double
description, or without its incidence table: the skeleton of the secondary
polytope by one exact LP per pair of vertices, or from the rank of the
facet normals through each pair, and the facets of a polytope by trying
every hyperplane through affinely independent points.  The incidence-based
`hull_edges`, `h_representation` and the facets of `polytope.faces` are
checked against them.  `h_representation` describes a point set from its
points alone: its equations from a Smith normal form of their differences,
its facets from the package's double description.  It is the reference
for both hulls the package reads off its own data: the secondary
polytope's, off the secondary cones with A's rows as its equations, and
Q's, in `faces` with the height functional as its one equation.
`hull_vertex_indices` reads the vertices of a point set off
`h_representation`; the vertices of each edge cell, which
`EdgeData.subdivision` reads off the edge's circuit, are checked against
it.  `lower_hull_cells_symbolic` is the lower hull under symbolic lifts
(tuples of infinitesimal coefficients, ints or Fractions), scanned one
column at a time: the integer placing lifts and every integer lift of the
package are checked against it, and the references that lift a point set
by a fraction or across a wall read it.  `circuit_by_cell_search` and
`separating_sets_by_scan` read an edge's circuit off its cells and its
separating sets off its endpoints' simplices; the circuit and separating
sets that `edge_data` takes from the edge's flip are checked against them.
`affine_rank`, the rank of a point set's differences, is the dimension
every face of `faces` is checked against; `faces` reads it off its graded
lattice instead.
`extreme_rays_by_adjugate` is the double description started from the
independent rows and their adjugate, two eliminations of the same rows;
the one-pass start of `extreme_rays` is checked against it."""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm

from gkzrank import polytope
from gkzrank.lattice import kernel_basis
from gkzrank.polytope import HRepresentation, _gauss_jordan
from gkzrank.secondary import Circuit, NotAnEdge, normal_cone_sample

from fold_reference import adjugate


def h_representation(points) -> HRepresentation:
    """Equations and facets of conv(points).  The points are read on a set of
    coordinates onto which their affine hull projects one to one; a facet
    a.x <= b there is an extreme ray (b, a) of {h : h.(1, -x) >= 0 for all x},
    and the ray's tight-row mask, kept as it is, is the facet's incidence."""
    pts = [tuple(p) for p in points]
    n = len(pts[0])
    diffs = [[x - b for x, b in zip(p, pts[0])] for p in pts[1:]] or [[0] * n]
    equations = tuple((c, _dot(c, pts[0])) for c in kernel_basis(diffs))
    dim = n - len(equations)
    if dim == 0:
        return HRepresentation(equations=equations, facets=(), incidence=())
    coords = _gauss_jordan(list(zip(*diffs)))[0]
    rays = polytope.extreme_rays([(1,) + tuple(-p[c] for c in coords) for p in pts])
    place = dict(zip(coords, range(1, dim + 1)))
    facets = sorted(
        (tuple(h[place[k]] if k in place else 0 for k in range(n)), h[0], tight)
        for h, tight in rays
    )
    return HRepresentation(
        equations=equations,
        facets=tuple((a, b) for a, b, _ in facets),
        incidence=tuple(on for _, _, on in facets),
    )


def hull_edges_by_lp(sp) -> tuple[tuple[int, int], ...]:
    """Edges of conv{phi_T} computed directly by LP, for cross-checking."""
    out = []
    m = len(sp.phis)
    for i in range(m):
        for j in range(i + 1, m):
            try:
                normal_cone_sample(sp, i, j)
            except NotAnEdge:
                continue
            out.append((i, j))
    return tuple(sorted(out))


def hull_edges_by_rank(sp) -> tuple[tuple[int, int], ...]:
    """Edges of conv{phi_T} from the facet inequalities alone: phi_i and
    phi_j span an edge when the normals of the facets they both lie on, found
    by dot products, have rank dim - 1."""
    return tuple(
        (i, j)
        for i, j in combinations(range(len(sp.phis)), 2)
        if _face_dim(sp.hull, sp.phis[i], sp.phis[j]) == 1
    )


def _face_dim(hull, *xs) -> int:
    """The dimension of the smallest face of the hull containing the points."""
    normals = [a for a, b in hull.facets if all(_dot(a, x) == b for x in xs)]
    return len(xs[0]) - len(hull.equations) - len(_gauss_jordan(normals)[0])


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def affine_rank(points) -> int:
    """Rank of the difference lattice of the points (dim of their affine hull)."""
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    rows = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    return len(_gauss_jordan(rows)[0])


def facet_vertex_sets(points, dim) -> set[frozenset[int]]:
    """Indices of the points on each facet of conv(points), a polytope of
    dimension dim, by candidate-hyperplane search."""
    rows = [(1,) + tuple(p) for p in points]
    out = set()
    for subset in combinations(range(len(points)), dim):
        if affine_rank([points[k] for k in subset]) != dim - 1:
            continue
        # the hyperplanes through the subset, modulo the affine hull's
        # equations, are one line: any one off the hull's equations will do
        for h in kernel_basis([rows[k] for k in subset]):
            vals = [sum(a * b for a, b in zip(h, r)) for r in rows]
            if any(vals):
                break
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            out.add(frozenset(k for k, v in enumerate(vals) if v == 0))
    return out


def hull_vertex_indices(points, indices) -> tuple[int, ...]:
    """The subset of indices whose points are vertices of their convex hull:
    those whose smallest face of the hull is the point itself."""
    idx = sorted(indices)
    if not idx:
        return ()
    hull = h_representation([points[i] for i in idx])
    return tuple(i for k, i in enumerate(idx) if hull.is_vertex(k, len(idx)))


def lower_hull_cells_symbolic(table, lifts) -> tuple[tuple[int, ...], ...]:
    """Marked cells of the subdivision a lift of the table's points induces.
    Lift values may be tuples compared lexicographically (entries are
    coefficients of successive infinitesimals: exact symbolic perturbation)
    and ints or Fractions; each column is scaled to integers by the positive
    lcm of its denominators, which keeps every sign, and the first nonzero
    column gives a fold's sign."""
    rows = [v if isinstance(v, tuple) else (v,) for v in lifts]
    cols = []
    for k in range(max(map(len, rows), default=0)):
        col = [v[k] if k < len(v) else 0 for v in rows]
        scale = lcm(*(x.denominator for x in col))
        cols.append([x.numerator * (scale // x.denominator) for x in col])
    cells = set()
    for sigma, (_, rels) in table.items():
        support = set(sigma)
        for j, rel in rels.items():
            for col in cols:
                fold = rel[-1] * col[j] + sum(c * col[i] for c, i in zip(rel, sigma))
                if fold:
                    break
            if fold < 0:
                break
            if fold == 0:
                support.add(j)
        else:
            cells.add(tuple(sorted(support)))
    return tuple(sorted(cells))


def lower_hull_triangulation_symbolic(table, lifts) -> tuple[tuple[int, ...], ...]:
    """The cells of lower_hull_cells_symbolic that are full simplices."""
    return tuple(c for c in lower_hull_cells_symbolic(table, lifts) if c in table)


def placing_lifts_symbolic(n: int):
    """Symbolic lifts realizing the placing order: point i at epsilon^(n-i)."""
    return [tuple(int(k == n - i) for k in range(n + 1)) for i in range(n)]


def circuit_by_cell_search(table, cells, d) -> Circuit:
    """The circuit of an edge from its cells of more than d points: each has
    d + 1 points of rank d, so one relation, found on a full simplex of the
    cell and the remaining point; its support is the circuit, its first
    entry made positive, and every cell must give the same one."""
    circuits = set()
    for cell in cells:
        if len(cell) == d:
            continue
        assert len(cell) == d + 1, cell
        sigma = next(s for s in combinations(cell, d) if s in table)
        apex = next(k for k in cell if k not in sigma)
        coef = dict(zip((*sigma, apex), table[sigma][1][apex]))
        idx = tuple(k for k in cell if coef[k])
        sign = 1 if coef[idx[0]] > 0 else -1
        circuits.add(Circuit(indices=idx, relation=tuple(sign * coef[k] for k in idx)))
    (circuit,) = circuits
    return circuit


def separating_sets_by_scan(ta, tb, circuit) -> tuple[tuple[int, ...], ...]:
    """The separating sets of an edge: the rest of every simplex of either
    endpoint that holds all of the circuit but one point."""
    cset = set(circuit.indices)
    out = set()
    for tri in (ta, tb):
        for sigma in tri.simplices:
            if len(cset - set(sigma)) == 1:
                out.add(tuple(sorted(set(sigma) - cset)))
    return tuple(sorted(out))


def extreme_rays_by_adjugate(rows):
    """extreme_rays with its start from two eliminations: the rows
    independent of the rows before them, then the adjugate of those rows,
    whose column k, signed by the determinant, is the ray tight on every
    basis row but the k-th."""
    m = len(rows[0])
    basis = _gauss_jordan(rows)[0]
    det, adj = adjugate([rows[s] for s in basis])
    rays = []
    for k, s in enumerate(basis):
        h = [x[k] if det > 0 else -x[k] for x in adj]
        g = gcd(*h)
        rays.append((tuple(x // g for x in h), sum(1 << s for s in basis) ^ 1 << s))
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
