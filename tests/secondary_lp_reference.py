"""The flip walk by exact LP, with no double description: one LP per fold
functional to drop the redundant ones, one LP per facet for a point inside
it, and `is_regular` (strict-feasibility LP) on every triangulation reached.
The walk of `secondary_polytope` and the cones it reads from
`_secondary_cone` are checked against it."""

from __future__ import annotations

from gkzrank.linprog import feasible_point
from gkzrank.polytope import lower_hull_triangulation, placing_lifts
from gkzrank.secondary import _fold_functionals, is_regular


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


def triangulation_flips(aset, simplices):
    """Neighbors of a regular triangulation across the facets of its cone,
    each with the fold functional of the facet crossed."""
    folds = _fold_functionals(aset, simplices)
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
        sims = lower_hull_triangulation(aset.points, lifts, aset.dim)
        neighbors.append((sims, c0))
    return neighbors


def flip_walk_by_lp(aset):
    """The regular triangulations (simplex tuples) reached from the placing
    triangulation, and the flip edges as sorted pairs of them."""
    seed = lower_hull_triangulation(aset.points, placing_lifts(aset.n), aset.dim)
    if not is_regular(aset, seed).regular:
        raise RuntimeError("placing triangulation failed its regularity LP")
    seen = {seed}
    queue = [seed]
    edges = set()
    while queue:
        key = queue.pop(0)
        for sims, _wall in triangulation_flips(aset, key):
            if sims not in seen:
                if not is_regular(aset, sims).regular:
                    raise RuntimeError("flip crossed into an irregular triangulation")
                seen.add(sims)
                queue.append(sims)
            edges.add(tuple(sorted((key, sims))))
    return seen, edges
