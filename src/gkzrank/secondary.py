"""Regular triangulations, flips and the secondary polytope.

Enumeration is a breadth-first walk on the flip graph, seeded by the placing
triangulation.  Each vertex of the secondary fan is a full-dimensional cone
of liftings, cut out by the walls of T: a lifting convex across each
interior ridge and under no unused point is convex (De Loera, Rambau and
Santos 2010, chapters 2 and 5).  Their extreme rays, by integer double
description, give an interior point and the facets: the walls tight on a
maximal set of rays.  The point certifies T with no appeal to that theorem:
each row of T positive on it makes each simplex a lower cell, and volumes
adding up to vol(Q), read off the seed, leave room for no other.  The
neighbor across a facet is the bistellar flip on the circuit of its wall,
whose link sets are the edge's separating sets.  Each edge's flip is found
from the endpoint reached first; the other endpoint's cone has the negated
wall as a facet, which it does not flip across again.  is_regular reads
the same cone and certificate for a triangulation given from outside;
check_triangulation reads ridge sides off the fold table.
Folds, volumes and ridge sides come from one fold table per configuration
(polytope.fold_table), which the secondary polytope keeps for its edges.

The secondary fan is the normal fan of the hull of the characteristic
functions (Gelfand, Kapranov and Zelevinsky 1994, chapter 7).  Every cone
is read on one set of coordinates, so that hull's facets are read off the
cones with no second double description: one inner normal per distinct
ray, on the phis of the cones holding it; its equations are A's rows, and
every phi checks both.  The hull skeleton that cross-checks the flip walk,
the Newton-polytope check and the normal direction of every edge are read
from that incidence: the smallest face through some phis is the
intersection of the facets containing them.  An edge's cells are its
normal's lower hull on the table rows of its endpoints' simplices alone,
since each cell of a coarsening holds a simplex of every refinement; they
cross-check the flip's circuit and separating sets.  The one LP left is
normal_cone_sample, the edge normal that `gkzrank edge` prints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .lattice import kernel_basis
from .linprog import solve_lp
from .polytope import (
    ASet,
    FoldTable,
    HRepresentation,
    MarkedPolytope,
    extreme_rays,
    fold_table,
    lower_hull_cells,
    lower_hull_triangulation,
    placing_lifts,
    placing_volume,
    _dot,
    _gauss_jordan,
    _is_int,
)


class TriangulationError(ValueError):
    pass


class NotAnEdge(ValueError):
    pass


class Triangulation(NamedTuple):
    """Maximal simplices (index sets) with a regularity certificate: an
    integer lifting whose lower hull is exactly these simplices."""

    simplices: tuple[tuple[int, ...], ...]
    lifting: tuple[int, ...] | None = None

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.simplices == other.simplices

    def __ne__(self, other):  # tuple's own __ne__ would compare the lifting too
        return not self == other

    def __hash__(self):
        return hash(self.simplices)


class Circuit(NamedTuple):
    """A minimal dependent subset with its primitive relation."""

    indices: tuple[int, ...]
    relation: tuple[int, ...]

    @property
    def plus(self) -> tuple[int, ...]:
        return tuple(i for i, l in zip(self.indices, self.relation) if l > 0)

    @property
    def minus(self) -> tuple[int, ...]:
        return tuple(i for i, l in zip(self.indices, self.relation) if l < 0)


class EdgeData(NamedTuple):
    """An edge of the secondary polytope with its circuit, separating sets
    and coarsest common subdivision."""

    endpoints: tuple[Triangulation, Triangulation]
    circuit: Circuit
    separating_sets: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]  # of the subdivision, sorted
    common_simplices: tuple[tuple[int, ...], ...]
    psi: tuple[int, ...]  # sum of the outward facet normals at the edge
    vertex_pair: tuple[int, int]

    @property
    def subdivision(self) -> tuple[MarkedPolytope, ...]:
        """The marked cells with the vertices of their hulls, read off the
        circuit Z.  A cell holding Z is conv(Z + J), J a separating set off
        the affine span of Z; its only non-vertex is a point of Z alone on
        its side of Z's relation, if there is one: the relation writes that
        point as a convex combination of the others, and a point in the
        hull of the others gives a relation with it alone on its side.
        Every other cell is a simplex (De Loera, Rambau and Santos 2010,
        section 2.4)."""
        z = self.circuit
        lone = {side[0] for side in (z.plus, z.minus) if len(side) == 1}
        return tuple(
            MarkedPolytope(tuple(k for k in c if k not in lone), c) if set(z.indices) <= set(c)
            else MarkedPolytope(c, c)
            for c in self.cells
        )


class SecondaryPolytope(NamedTuple):
    aset: ASet
    triangulations: tuple[Triangulation, ...]
    phis: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    dim: int
    hull: HRepresentation  # of conv(phis), read off the secondary cones
    table: FoldTable  # fold_table of aset
    flips: dict[tuple[int, int], tuple]  # edge -> its flip's Circuit and separating sets


def check_triangulation(aset: ASet, table: FoldTable, simplices) -> tuple[tuple[int, ...], ...]:
    """Validate a set of index simplices as a triangulation of (Q, A).

    Checks the indices, full-dimensionality, exact volume additivity (volumes
    and vol(Q) read from A's fold table) and the ridges (a simplex with one
    vertex left out): a ridge whose hyperplane has points of A strictly on
    both sides lies in exactly two simplices, with their opposite vertices on
    opposite sides, and every other ridge in exactly one.  Together these
    characterize triangulations (De Loera, Rambau and Santos 2010, section
    4.5).
    """
    sims = [tuple(s) for s in simplices]
    if not all(_is_int(i) and 0 <= i < aset.n for s in sims for i in s):
        raise TriangulationError("simplex indices must be integers in range(%d)" % aset.n)
    sims = tuple(sorted(tuple(sorted(s)) for s in sims))
    if len(set(sims)) != len(sims):
        raise TriangulationError("repeated simplex")
    d = aset.dim
    vol = 0
    for sigma in sims:
        if len(sigma) != d:
            raise TriangulationError("simplex with wrong vertex count: %r" % (sigma,))
        if sigma not in table:
            raise TriangulationError("flat simplex: %r" % (sigma,))
        vol += abs(table[sigma][0])
    if vol != placing_volume(table):
        raise TriangulationError("simplices do not tile Q (volume mismatch)")
    ridges = {}
    for sigma in sims:
        for k in range(d):
            ridges.setdefault(sigma[:k] + sigma[k + 1:], []).append((sigma, k))
    for ridge, owners in ridges.items():
        side = _ridge_sides(table, *owners[0], aset.n)
        apexes = [sigma[k] for sigma, k in owners]
        interior = min(side) < 0 < max(side)
        if len(apexes) != 1 + interior or (interior and side[apexes[0]] * side[apexes[1]] > 0):
            raise TriangulationError("ridge %r lies in simplices with apexes %r" % (ridge, apexes))
    return sims


def _ridge_sides(table: FoldTable, sigma, k: int, n: int) -> list[int]:
    """Each point's side of the ridge sigma minus sigma[k], up to one sign:
    det(ridge, p_j) = -(c_k / c_j) det(ridge, p_sigma[k]) for the relation c
    on sigma + (j,)."""
    side = [0] * n
    side[sigma[k]] = 1
    for j, rel in table[sigma][1].items():
        side[j] = -rel[k]
    return side


def _walls(aset: ASet, table: FoldTable, sims) -> list[tuple[int, ...]]:
    """The distinct walls c of T, sorted, with C(T) = {w : c.w >= 0}: the row
    of sigma at the apex of sigma' for each ridge they share, and for each
    point j that T leaves unused the row of a simplex holding it (no
    positive entry before j's own)."""
    ridges = {}
    for sigma in sims:
        for k, apex in enumerate(sigma):
            ridges.setdefault(sigma[:k] + sigma[k + 1:], []).append((sigma, apex))
    rows = [(sigma, apex) for (sigma, _), (_, apex) in (o for o in ridges.values() if len(o) == 2)]
    for j in set(range(aset.n)).difference(*sims):
        rows.append((next(s for s in sims if max(table[s][1][j][:-1]) <= 0), j))
    out = set()
    for sigma, j in rows:
        c = dict(zip((*sigma, j), table[sigma][1][j]))
        out.add(tuple(c.get(i, 0) for i in range(aset.n)))
    return sorted(out)


class RegularityResult(NamedTuple):
    regular: bool
    lifting: tuple[int, ...] | None = None
    # non-negative multipliers on the walls of T (in _walls order), summing
    # them to zero, when irregular
    refutation: tuple[int, ...] | None = None


def is_regular(aset: ASet, triangulation) -> RegularityResult:
    """Certify regularity of a triangulation from its secondary cone.

    T is regular exactly when no wall is zero on the cone's interior point,
    which then induces T by the walk's certificate, with the volume that
    check_triangulation has matched to vol(Q).  Otherwise the walls zero
    there are the cone's implicit equalities, and a non-negative dependence
    among them, the sum of the extreme rays of the cone of such
    dependences, refutes it (Farkas) over the walls, which cut out C(T).
    """
    simplices = triangulation.simplices if isinstance(triangulation, Triangulation) else triangulation
    table = fold_table(aset.points, aset.dim)
    sims = check_triangulation(aset, table, simplices)
    folds, lifting, _, _ = _secondary_cone(aset, table, sims)
    tight = [k for k, c in enumerate(folds) if _dot(c, lifting) == 0]
    if not tight:
        _certify_lifting(table, sims, lifting, sum(abs(table[s][0]) for s in sims))
        return RegularityResult(regular=True, lifting=lifting)
    basis = kernel_basis([[folds[k][i] for k in tight] for i in range(aset.n)])
    rows = list(zip(*basis))  # the dependences are y = K.lambda; y >= 0 is a cone in lambda
    total = [sum(x) for x in zip(*(h for h, _ in extreme_rays(rows)))]
    y = [0] * len(folds)
    for k, row in zip(tight, rows):
        y[k] = _dot(row, total)
    if min(y) < 0 or not any(y) or any(_dot(y, col) for col in zip(*folds)):
        raise RuntimeError("Farkas refutation of an irregular triangulation fails its check")
    return RegularityResult(regular=False, refutation=tuple(y))


def _off_frame(table: FoldTable, n: int) -> list[int]:
    """The coordinates off the frame, A's lexicographically last basis: the
    table's last simplex, as the greedy basis from the last point is
    componentwise the largest (Gale 1968).  Every cone is read on them, so a
    ray of the secondary fan is one vector in every cone holding it; the
    test reference h_representation reads the phis on them (matroid duality)."""
    frame = next(reversed(table))
    return [i for i in range(n) if i not in frame]


def _secondary_cone(aset: ASet, table: FoldTable, sims):
    """The walls c of T, a lifting inside its cone C(T) = {w : c.w >= 0},
    the indices of the walls that are facets, and the extreme rays of the
    cone on the coordinates off the frame, which determine the folds, so it
    is pointed there, and for a regular T full-dimensional.  The lifting is
    the sum of the rays; a wall is a facet when its tight rays are no other
    wall's proper subset (on a half-line, tight on none, all are)."""
    folds = _walls(aset, table, sims)
    off = _off_frame(table, aset.n)
    rays = extreme_rays([[c[i] for i in off] for c in folds]) if folds else []
    total = dict(zip(off, map(sum, zip(*(h for h, _ in rays)))))
    tight = [sum(1 << r for r, (_, on) in enumerate(rays) if on >> k & 1) for k in range(len(folds))]
    distinct = set(tight)
    facets = [k for k, m in enumerate(tight) if not any(m != o and m & o == m for o in distinct)]
    return folds, tuple(total.get(i, 0) for i in range(aset.n)), facets, rays


def _flip(sims, fold):
    """The bistellar flip of T on the circuit Z of a fold c that is a facet
    of C(T), with the edge's Circuit (c on its support, first entry
    positive) and its separating sets, the sorted link sets.  T holds the
    simplices Z - i + L for every i in Z+ (where c > 0) and every link set
    L, the rest of a simplex of T that holds all of Z but one point; the
    neighbor holds Z - i + L for i in Z- instead (De Loera, Rambau and
    Santos 2010, chapters 2 and 5).  A simplex of T cannot hold Z - i for i
    in Z-, which would overlap Z - j for the j in Z+ of the fold's own
    simplex."""
    plus = {i for i, x in enumerate(fold) if x > 0}
    minus = {i for i, x in enumerate(fold) if x < 0}
    circuit = plus | minus
    links = {frozenset(s) - circuit for s in sims if len(circuit.difference(s)) == 1}

    def join(side):
        return {tuple(sorted((circuit - {i}) | link)) for link in links for i in side}

    idx = tuple(sorted(circuit))
    relation = tuple(fold[i] if fold[idx[0]] > 0 else -fold[i] for i in idx)
    flipped = tuple(sorted(set(sims) - join(plus) | join(minus)))
    return flipped, Circuit(idx, relation), tuple(sorted(tuple(sorted(link)) for link in links))


def _certify_lifting(table: FoldTable, sims, lifting, volume: int) -> None:
    """Raise unless the lifting induces exactly sims: every row of sims
    positive on it makes each simplex a lower cell with no other point on
    it, and volumes adding up to vol(Q) leave room for no other cell."""
    cells = lower_hull_cells({s: table[s] for s in sims}, lifting)
    if cells != sims or sum(abs(table[s][0]) for s in sims) != volume:
        raise RuntimeError("the secondary cone's interior point fails to induce the triangulation")


def placing_triangulation(aset: ASet) -> Triangulation:
    """The placing triangulation (points in input order), certified by its cone."""
    table = fold_table(aset.points, aset.dim)
    sims = lower_hull_triangulation(table, placing_lifts(table))
    lifting = _secondary_cone(aset, table, sims)[1]
    _certify_lifting(table, sims, lifting, sum(abs(table[s][0]) for s in sims))
    return Triangulation(simplices=sims, lifting=lifting)


def secondary_polytope(aset: ASet) -> SecondaryPolytope:
    """The secondary polytope: vertices, flip edges and dimension.  Each
    triangulation is certified by its cone's lifting and vol(Q), and flipped
    across each facet of its cone but the walls it was reached across."""
    table = fold_table(aset.points, aset.dim)
    seed = lower_hull_triangulation(table, placing_lifts(table))
    volume = sum(abs(table[s][0]) for s in seed)  # vol(Q), as placing_volume reads it
    seen, queue, tris, found = {seed}, [seed], [], {}
    crossed = set()  # (T', -c) for each flip T -> T' across c, until T' is processed
    phi = {}  # the characteristic function of each triangulation
    cones = {}  # each ray of the secondary fan -> the triangulations whose cones hold it
    for key in queue:
        folds, lifting, facets, rays = _secondary_cone(aset, table, key)
        _certify_lifting(table, key, lifting, volume)
        tris.append(Triangulation(simplices=key, lifting=lifting))
        for h, _ in rays:
            cones.setdefault(h, []).append(key)
        phi[key] = v = [0] * aset.n
        for s in key:
            for i in s:
                v[i] += abs(table[s][0])
        for k in facets:
            if (key, folds[k]) in crossed:
                crossed.discard((key, folds[k]))
                continue
            sims, circuit, seps = _flip(key, folds[k])
            if sims not in seen:
                seen.add(sims)
                queue.append(sims)
            crossed.add((sims, tuple(-x for x in folds[k])))
            found[tuple(sorted((key, sims)))] = circuit, seps
    if crossed:
        raise RuntimeError("a flip's wall is not a facet of its neighbor's cone")

    tris.sort(key=lambda t: phi[t.simplices])
    index = {t.simplices: i for i, t in enumerate(tris)}
    flips = {tuple(sorted((index[a], index[b]))): rec for (a, b), rec in found.items()}
    edges = tuple(sorted(flips))
    phis = tuple(tuple(phi[t.simplices]) for t in tris)
    rays = [(h, sum(1 << index[key] for key in keys)) for h, keys in cones.items()]
    return SecondaryPolytope(
        aset=aset, triangulations=tuple(tris), phis=phis, edges=edges, dim=aset.n - aset.dim,
        hull=_secondary_hull(aset, table, phis, rays), table=table, flips=flips,
    )


def _secondary_hull(aset: ASet, table: FoldTable, phis, rays) -> HRepresentation:
    """Equations and facets of conv(phis), read off the secondary fan, its
    normal fan: A's rows, and for each distinct ray r of the cones (with
    the phis of the cones holding it as a bitmask) the facet a.x <= b with
    a = -r off the frame, tight on exactly those phis.  Certified: the
    phis' differences have rank n - d exactly off the frame, A's rows are
    constant on the phis, and b, the largest a.phi, is taken on that mask."""
    off = _off_frame(table, aset.n)
    diffs = [[x - y for x, y in zip(p, phis[0])] for p in phis[1:]]
    if _gauss_jordan(list(zip(*diffs)))[0] != off:
        raise RuntimeError("the phis do not span a polytope of dimension n - d = %d" % len(off))
    equations = tuple((row, _dot(row, phis[0])) for row in zip(*aset.points))
    if any(sum(map(mul, row, p)) != e for row, e in equations for p in phis):
        raise RuntimeError("A's rows are not constant on the phis")
    low = [[p[i] for i in off] for p in phis]
    facets = []
    for h, mask in rays:
        vals = [-sum(map(mul, h, p)) for p in low]
        b = max(vals)
        if sum(1 << k for k, v in enumerate(vals) if v == b) != mask:
            raise RuntimeError("a ray of the secondary fan is not a facet of the phis")
        r = dict(zip(off, h))
        facets.append((tuple(-r.get(i, 0) for i in range(aset.n)), b, mask))
    facets.sort()
    return HRepresentation(equations, tuple((a, b) for a, b, _ in facets), tuple(m for *_, m in facets))


def normal_cone_sample(sp: SecondaryPolytope, i: int, j: int) -> tuple[Fraction, ...]:
    """A functional exposing exactly the edge [phi_i, phi_j], by slack LP
    (the psi that `gkzrank edge` prints)."""
    n = sp.aset.n
    phis = sp.phis
    diff = [phis[i][k] - phis[j][k] for k in range(n)]
    a_eq = [diff + [0]]
    b_eq = [0]
    a_ub = []
    b_ub = []
    for t in range(len(phis)):
        if t in (i, j):
            continue
        row = [phis[t][k] - phis[i][k] for k in range(n)]
        row.append(1)  # slack
        a_ub.append(row)
        b_ub.append(0)
    a_ub.append([0] * n + [1])
    b_ub.append(1)
    objective = [0] * n + [1]
    res = solve_lp(n + 1, objective, a_ub, b_ub, a_eq, b_eq, maximize=True)
    if res.status != "optimal":
        raise NotAnEdge("not an edge")
    slack = res.x[n]
    if len(phis) > 2 and slack <= 0:
        raise NotAnEdge("not an edge")
    return tuple(res.x[:n])


def edge_data(sp: SecondaryPolytope, i: int, j: int) -> EdgeData:
    """Circuit, separating sets and subdivision of a secondary-polytope edge.

    The pair is an edge when the phis on every facet of sp.hull containing
    both are the two.  psi, the sum of the outward normals of those facets,
    exposes exactly the edge.  Every face discriminant's Newton
    polytope is a Minkowski summand of the secondary polytope, so psi also
    picks out the edge's face of each of them.  Each cell of the
    subdivision psi induces holds a simplex of each endpoint, so the rows
    of their simplices give them all; a wrong psi fails the checks below.
    The circuit and separating sets are the flip's (sp.flips), checked
    against the cells: each cell that is no simplex is the circuit plus one
    separating set, each set once.
    """
    aset = sp.aset
    if i == j or not (0 <= i < len(sp.phis)) or not (0 <= j < len(sp.phis)):
        raise NotAnEdge("not an edge")
    i, j = min(i, j), max(i, j)
    pair = 1 << i | 1 << j
    face, facets = sp.hull.face(pair, len(sp.phis))
    if face != pair:
        raise NotAnEdge("not an edge")
    if (i, j) not in sp.flips:
        raise RuntimeError("vertices %d and %d span a hull edge but no flip joins them" % (i, j))
    psi = tuple(sum(sp.hull.facets[f][0][k] for f in facets) for k in range(aset.n))
    ta, tb = sp.triangulations[i], sp.triangulations[j]
    cells = lower_hull_cells({s: sp.table[s] for s in ta.simplices + tb.simplices}, [-v for v in psi])

    d = aset.dim
    big = [cell for cell in cells if len(cell) != d]
    expected_common = tuple(sorted(set(ta.simplices) & set(tb.simplices)))
    if tuple(cell for cell in cells if len(cell) == d) != expected_common or not big:
        raise NotAnEdge("not an edge")

    circuit, seps = sp.flips[i, j]
    cell_seps = tuple(sorted(tuple(sorted(set(cell) - set(circuit.indices))) for cell in big))
    if cell_seps != seps:
        raise RuntimeError(
            "separating sets from the subdivision and from the flip disagree: "
            "%r vs %r" % (cell_seps, seps)
        )
    _check_separating_sides(ta, tb, circuit, seps)

    # symmetric canonical endpoint order by characteristic function
    pa, pb = sp.phis[i], sp.phis[j]
    endpoints = (ta, tb) if pa <= pb else (tb, ta)
    return EdgeData(
        endpoints=endpoints,
        circuit=circuit,
        separating_sets=seps,
        cells=tuple(sorted(cells)),
        common_simplices=expected_common,
        psi=psi,
        vertex_pair=(i, j),
    )


def _check_separating_sides(ta, tb, circuit: Circuit, seps):
    """Each endpoint hosts the simplices dropping exactly one sign class."""
    cset = set(circuit.indices)
    sims_a, sims_b = set(ta.simplices), set(tb.simplices)
    for jset in seps:
        hosts = {True: set(), False: set()}  # keyed by the dropped point's side
        for i, l in zip(circuit.indices, circuit.relation):
            sigma = tuple(sorted((cset - {i}) | set(jset)))
            if sigma not in sims_a and sigma not in sims_b:
                raise RuntimeError("separating set fails to span endpoint simplices")
            hosts[l > 0].add(sigma in sims_a)
        if hosts[True] & hosts[False]:
            raise RuntimeError("separating set mixes the two circuit sides")


def hull_edges(sp: SecondaryPolytope) -> tuple[tuple[int, int], ...]:
    """Edges of conv{phi_T} read from the incidence of its facets, for
    cross-checking the flip walk: phi_i and phi_j span an edge when the phis
    on every facet containing both are exactly the two.  An edge lies on at
    least dim - 1 facets, so a pair sharing fewer is passed over without a
    look at its face.  Only sp.phis and sp.hull are read."""
    hull, m = sp.hull, len(sp.phis)
    dim = len(sp.phis[0]) - len(hull.equations)
    masks = [sum(1 << f for f, on in enumerate(hull.incidence) if on >> k & 1) for k in range(m)]
    return tuple(
        (i, j)
        for i, j in combinations(range(m), 2)
        if (masks[i] & masks[j]).bit_count() >= dim - 1
        and hull.face(1 << i | 1 << j, m)[0] == 1 << i | 1 << j
    )
