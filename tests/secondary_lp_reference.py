"""The polyhedral questions of `secondary` and `polytope` by exact LP, with
no double description, as references for the package's answers:

- the flip walk: one LP per fold functional, over every fold of T rather
  than its walls, to drop the redundant ones, one LP per facet for a point
  inside it, and `is_regular_by_lp` over every fold on every triangulation
  reached (checked against `secondary_polytope` and the cones of
  `_secondary_cone`);
- `is_regular_by_lp`: the triangulation test by pairwise proper
  intersection LPs, then regularity by strict feasibility with slack one
  over the folds it is given, every fold or the walls alone (checked
  against `check_triangulation` and `is_regular`);
- `in_convex_hull`: hull membership (checked against `hull_vertex_indices`).

`feasible_point` is the feasibility question they share, and the LP tests'.

`flip_by_lift` is the other reference here, with no LP: the neighbor across
a facet of a secondary cone as the lower hull of a symbolic lift from a
point inside the facet, which `wall_points` reads off the cone's extreme
rays (checked against the bistellar flip `secondary._flip`).  Every lower
hull here is the symbolic reference of `hull_reference`.
"""

from __future__ import annotations

from itertools import combinations

from gkzrank.linprog import solve_lp
from gkzrank.polytope import extreme_rays, fold_table, total_volume
from gkzrank.secondary import TriangulationError, _secondary_cone

from fold_reference import det_int, reference_fold_functionals
from hull_reference import lower_hull_triangulation_symbolic, placing_lifts_symbolic


def feasible_point(nvars, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """A feasible point of the system, or None."""
    res = solve_lp(nvars, None, a_ub, b_ub, a_eq, b_eq)
    return res.x if res.status == "optimal" else None


def in_convex_hull(point, generators) -> bool:
    """Exact membership of point in the convex hull of the generators."""
    gens = list(generators)
    if not gens:
        return False
    k = len(gens)
    a_eq = [[g[i] for g in gens] for i in range(len(point))]
    b_eq = list(point)
    a_eq.append([1] * k)
    b_eq.append(1)
    a_ub = [[-1 if j == i else 0 for j in range(k)] for i in range(k)]
    b_ub = [0] * k
    return feasible_point(k, a_ub, b_ub, a_eq, b_eq) is not None


def proper_intersection_by_lp(aset, sa, sb) -> bool:
    """conv(sa) and conv(sb) intersect exactly in conv(sa & sb)."""
    shared = set(sa) & set(sb)
    if set(sa) == set(sb):
        return True
    ka, kb = len(sa), len(sb)
    nvars = ka + kb
    a_eq = []
    b_eq = []
    for r in range(aset.dim):
        row = [aset.points[i][r] for i in sa]
        row += [-aset.points[i][r] for i in sb]
        a_eq.append(row)
        b_eq.append(0)
    a_eq.append([1] * ka + [0] * kb)
    b_eq.append(1)
    a_eq.append([0] * ka + [1] * kb)
    b_eq.append(1)
    a_ub = [[-1 if j == i else 0 for j in range(nvars)] for i in range(nvars)]
    b_ub = [0] * nvars
    objective = [0 if i in shared else 1 for i in (*sa, *sb)]
    res = solve_lp(nvars, objective, a_ub, b_ub, a_eq, b_eq, maximize=True)
    if res.status != "optimal":
        return True  # disjoint simplices
    return res.objective == 0


def is_triangulation_by_lp(aset, sims) -> bool:
    """Full simplices of total volume vol(Q) meeting pairwise in common faces."""
    vols = [abs(det_int([aset.points[i] for i in s])) for s in sims]
    return (
        all(len(s) == aset.dim for s in sims)
        and all(vols)
        and sum(vols) == total_volume(aset)
        and all(proper_intersection_by_lp(aset, a, b) for a, b in combinations(sims, 2))
    )


def is_regular_by_lp(aset, sims, folds):
    """(lifting, None) when some lifting is positive on every given fold of
    the triangulation, (None, Farkas multipliers on the folds) when none
    is: every fold is at least one on some lifting exactly when the strict
    system is feasible."""
    sims = tuple(sorted(tuple(sorted(s)) for s in sims))
    if not is_triangulation_by_lp(aset, sims):
        raise TriangulationError("not a triangulation by the pairwise LP test")
    if not folds:
        return (0,) * aset.n, None
    res = solve_lp(aset.n, None, [[-x for x in c] for c in folds], [-1] * len(folds))
    if res.status == "optimal":
        return res.x, None
    return None, res.farkas[0]


def facets_of_secondary_cone(aset, folds):
    """Indices of irredundant (facet) fold functionals of C(T)."""
    facets = []
    for k, c in enumerate(folds):
        a_ub = [[-x for x in other] for i, other in enumerate(folds) if i != k]
        b_ub = [0] * (len(folds) - 1)
        a_ub.append(list(c))
        b_ub.append(-1)
        if feasible_point(aset.n, a_ub, b_ub) is not None:
            facets.append(k)
    return facets


def triangulation_flips(aset, table, simplices):
    """Neighbors of a regular triangulation across the facets of its cone,
    each with the fold functional of the facet crossed, from every fold."""
    folds = reference_fold_functionals(aset, simplices)
    if not folds:
        return []
    facet_idx = facets_of_secondary_cone(aset, folds)
    neighbors = []
    for k in facet_idx:
        c0 = folds[k]
        a_eq = [list(c0)]
        b_eq = [0]
        a_ub = []
        b_ub = []
        for i in facet_idx:
            if i == k:
                continue
            a_ub.append([-x for x in folds[i]])
            b_ub.append(-1)
        wall = feasible_point(aset.n, a_ub, b_ub, a_eq, b_eq)
        if wall is None:
            raise RuntimeError("facet of a secondary cone has empty relative interior")
        lifts = [(wall[i], -c0[i]) for i in range(aset.n)]
        sims = lower_hull_triangulation_symbolic(table, lifts)
        neighbors.append((sims, c0))
    return neighbors


def flip_walk_by_lp(aset):
    """The regular triangulations (simplex tuples) reached from the placing
    triangulation, and the flip edges as sorted pairs of them."""
    table = fold_table(aset.points, aset.dim)
    seed = lower_hull_triangulation_symbolic(table, placing_lifts_symbolic(aset.n))
    if is_regular_by_lp(aset, seed, reference_fold_functionals(aset, seed))[0] is None:
        raise RuntimeError("placing triangulation failed its regularity LP")
    seen = {seed}
    queue = [seed]
    edges = set()
    while queue:
        key = queue.pop(0)
        for sims, _wall in triangulation_flips(aset, table, key):
            if sims not in seen:
                if is_regular_by_lp(aset, sims, reference_fold_functionals(aset, sims))[0] is None:
                    raise RuntimeError("flip crossed into an irregular triangulation")
                seen.add(sims)
                queue.append(sims)
            edges.add(tuple(sorted((key, sims))))
    return seen, edges


def wall_points(aset, table, sims):
    """A point inside each facet of C(T), keyed by the index of its wall in
    `_walls`: the sum of the extreme rays of the cone tight on
    it, read on the coordinates outside T's first simplex (zero on it)."""
    folds, _, facets, _ = _secondary_cone(aset, table, sims)
    off = [i for i in range(aset.n) if i not in sims[0]]
    rays = extreme_rays([[c[i] for i in off] for c in folds]) if folds else []
    walls = {}
    for k in facets:
        total = dict(zip(off, map(sum, zip(*(h for h, on in rays if on >> k & 1)))))
        walls[k] = tuple(total.get(i, 0) for i in range(aset.n))
    return walls


def flip_by_lift(table, wall, fold):
    """The neighbor of T across the facet of C(T) with this fold and wall
    point w: the triangulation induced by the symbolic lift (w, -fold)."""
    return lower_hull_triangulation_symbolic(table, list(zip(wall, (-x for x in fold))))
