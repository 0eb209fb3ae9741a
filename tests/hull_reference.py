"""Reference hull questions answered without the package's double
description: the skeleton of the secondary polytope by one exact LP per pair
of vertices, and the facets of a polytope by trying every hyperplane through
affinely independent points.  The facet-based `hull_edges`,
`h_representation` and the facets of `polytope.faces` are checked against
them."""

from __future__ import annotations

from itertools import combinations

from gkzrank.lattice import kernel_basis
from gkzrank.polytope import affine_rank
from gkzrank.secondary import NotAnEdge, normal_cone_sample


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
