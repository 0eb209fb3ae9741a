"""K-theory ranks of the toric stacks attached to faces and edges.

For a face F the rank is u * i, read off the configuration's one fold
table.  Let sigma_F be the points of F in the first full simplex holding
r = rank F of them.  In a basis adapted to the saturation of ZZ(F),
det(sigma_F + tau) = det_sat(sigma_F) times the q-minor (q = d - r) of the
images of tau in ZZ^d / sat ZZ(F), and those images generate it, so their
minors have gcd 1 (Newman 1972).  So i = [sat ZZ(F) : ZZ(F)] is the gcd of
the volumes of the full simplices holding r points of F, and the images'
fold table is a view on A's: the q-sets tau off F completing sigma_F, of
volume |det(sigma_F + tau)| / c, c the gcd of those, and the rows of A on
sigma_F + tau restricted to tau + (j,) and made primitive, since F's
points project to 0.  u is
the volume of the bounded staircase region of the images, checked against
a second triangulation of it.  The principal A-determinant raises each face
discriminant to its rank row and the verifier reads it from there.  For a
secondary-polytope edge the rank is the sum over separating sets J of the
index of ZZ(I + J), I the circuit: the gcd of its maximal minors, so of the
volumes of the simplices (I - i) + J, since the minors that skip a point of
J hold all of the dependent I and vanish.  The main verification routine
checks, on every edge, that the edge rank equals the multiplicity-weighted
sum of face ranks.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .elimination import Budget
from .polytope import (
    ASet,
    Face,
    FoldTable,
    lower_hull_cells,
    lower_hull_triangulation,
    placing_lifts,
)
from .secondary import EdgeData, SecondaryPolytope, edge_data, secondary_polytope


class RankInconsistency(RuntimeError):
    """The two independent rank computations disagreed."""


class FaceInvariants(NamedTuple):
    face: Face
    i: int
    u: int
    ray_indices: tuple[int, ...]
    k0_rank: int


class EdgeInvariants(NamedTuple):
    per_j_indices: tuple[tuple[tuple[int, ...], int], ...]
    zf_rank: int
    circuit_index: int | None  # [N : ZZ I] when the circuit spans, else None


def _face_simplex(face: Face, table: FoldTable) -> tuple[tuple[int, ...], int]:
    """(sigma_F, i): the face's points in the first full simplex of the table
    holding the most of them, r, and the gcd of the volumes of all those
    holding r."""
    on = set(face.indices)
    r = i = 0
    for sigma, (det, _) in table.items():
        held = [k for k in sigma if k in on]
        if len(held) > r:
            r, i, sigma_f = len(held), 0, tuple(held)
        if len(held) == r:
            i = gcd(i, det)
    return sigma_f, i


def _staircase(aset: ASet, face: Face, table: FoldTable, sigma_f):
    """(u, ray_indices, bounded_facets) of the face's staircase: the images
    of the points off it in the quotient of rank q = d - |sigma_f|, read off
    the view on A's table, as A-indices.  For q = 1 image j is
    det(sigma_f + (j,)) / c, signed by the permutation that sorts
    sigma_f + (j,), and the images must lie on one side of 0.  Above, the
    bounded facets are the lower-hull cells of the images under the
    constant lift -1, where the fold of tau + (j,) is minus the sum of its
    relation, positive exactly when image j lies beyond the hyperplane
    through tau.  u, the volume of their placing triangulation, must equal
    that of the reversed placing one: the placing lifts B^i shifted by -B^m,
    so that -1 leads, and the same list reversed.  A point off the face in
    no full sigma_f + tau lies in the face's span: the face is refused."""
    on = set(face.indices)
    off = [j for j in range(aset.n) if j not in on]
    q = aset.dim - len(sigma_f)
    vals, view = [], {}
    if q == 1:
        for j in off:
            det = table.get(tuple(sorted((*sigma_f, j))), (0,))[0]
            vals.append(-det if sum(k > j for k in sigma_f) & 1 else det)
    elif q:
        base, pos = set(sigma_f), {j: k for k, j in enumerate(off)}
        for sigma, (det, rels) in table.items():
            if base.issubset(sigma):
                keep = [t for t, k in enumerate(sigma) if k not in base]  # tau's places
                rows = {}
                for j, rel in rels.items():
                    if j not in on:
                        row = [rel[t] for t in keep] + [rel[-1]]
                        g = gcd(*row)
                        rows[pos[j]] = tuple(x // g for x in row)
                view[tuple(pos[sigma[t]] for t in keep)] = det, rows
    covered = {j for j, v in zip(off, vals) if v} | {off[k] for tau in view for k in tau}
    if missed := set(off) - covered:
        raise RuntimeError("point %d off the face lies in the face's span" % min(missed))
    if q == 0:
        return 1, (), ()
    if q == 1:
        if not (all(v > 0 for v in vals) or all(v < 0 for v in vals)):
            raise RankInconsistency("projected semigroup cone is not pointed")
        c = gcd(*vals)
        vals = [v // c for v in vals]
        m = min(map(abs, vals))
        rays = tuple(j for j, v in zip(off, vals) if abs(v) == m)
        return m, rays, (rays,)
    c = gcd(*(det for det, _ in view.values()))
    view = {tau: (det // c, rows) for tau, (det, rows) in view.items()}
    cells = lower_hull_cells(view, [-1] * len(off))
    powers = placing_lifts(view)
    placing = [x - powers[1] * powers[-1] for x in powers]  # the constant -1 leads, as -B^m
    u, fan = (
        sum(abs(view[s][0]) for s in lower_hull_triangulation(view, lifts))
        for lifts in (placing, placing[::-1])
    )
    if u != fan or u < 1:
        raise RankInconsistency(
            "face rank mismatch: staircase volumes %d (placing), %d (reversed)" % (u, fan)
        )
    facets = tuple(sorted(tuple(off[k] for k in cell) for cell in cells))
    return u, tuple(sorted({i for facet in facets for i in facet})), facets


def rank_k0_face(aset: ASet, face: Face, table: FoldTable) -> FaceInvariants:
    """u * i read off the configuration's fold table: i is the index of
    ZZ(face) in its saturation, u the staircase volume."""
    sigma_f, i = _face_simplex(face, table)
    u, rays, _ = _staircase(aset, face, table, sigma_f)
    return FaceInvariants(face=face, i=i, u=u, ray_indices=rays, k0_rank=u * i)


def rank_k0_edge(sp: SecondaryPolytope, edge: EdgeData) -> EdgeInvariants:
    """Sum over separating sets J of [ZZ^d : ZZ(I + J)], I the circuit, and
    I's own index when it spans (has d + 1 points): the gcd of the d x d
    minors (Newman 1972), of which those skipping a point of J hold all of
    the dependent I and vanish, so the gcd of the volumes in sp.table of
    the simplices (I - i) + J that the flip exchanges, found by edge_data."""
    idx = edge.circuit.indices

    def index(jset):
        try:
            return gcd(*(abs(sp.table[tuple(sorted({*idx, *jset} - {i}))][0]) for i in idx))
        except KeyError:
            raise RankInconsistency("circuit plus separating set fails to span the ambient space")

    per_j = tuple((jset, index(jset)) for jset in edge.separating_sets)
    return EdgeInvariants(
        per_j_indices=per_j, zf_rank=sum(x for _, x in per_j),
        circuit_index=index(()) if len(idx) == sp.aset.dim + 1 else None,
    )


class EdgeCheck(NamedTuple):
    vertex_pair: tuple[int, int]
    circuit_indices: tuple[int, ...]
    circuit_relation: tuple[int, ...]
    circuit_spans: bool
    circuit_index: int | None  # [N : ZZ I] when the circuit spans, else None
    separating_sets: tuple[tuple[int, ...], ...]
    per_j_indices: tuple[tuple[tuple[int, ...], int], ...]
    zf_rank: int
    multiplicities: tuple[tuple[tuple[int, ...], int], ...]  # (face indices, n)
    rhs: int | None
    status: str  # "ok" | "fail" | "skipped"
    detail: str = ""


class TheoremReport(NamedTuple):
    aset: ASet
    triangulation_count: int
    face_ranks: tuple[FaceInvariants, ...]
    edges: tuple[EdgeCheck, ...]
    edet: "object"
    status: str  # "pass" | "fail" | "budget"


def verify_theorem(
    aset: ASet,
    budget: Budget | None = None,
    sp: SecondaryPolytope | None = None,
) -> TheoremReport:
    """Check the rank identity on every edge of the secondary polytope.

    Edges whose face discriminants did not finish within budget are reported
    as skipped, never silently dropped.
    """
    from .discriminant import MultiplicityError, circuit_discriminant, form_multiplicity
    from .discriminant import principal_a_determinant

    if sp is None:
        sp = secondary_polytope(aset)
    elif sp.aset != aset:
        raise ValueError("the secondary polytope given is of another configuration")
    edet = principal_a_determinant(aset, budget)
    missing = [row.face.indices for row in edet.factors if row.discriminant is None]
    eds = [edge_data(sp, i, j) for i, j in sp.edges]
    psis = [ed.psi for ed in eds]  # each face discriminant decoded once for all of them
    forms = [] if missing else [row.discriminant.leading_forms(psis) for row in edet.factors]

    checks = []
    for e, ed in enumerate(eds):
        ranks = rank_k0_edge(sp, ed)
        mults, rhs = [], None
        if missing:
            status = "skipped"
            detail = "face discriminants over budget: %s" % ", ".join(map(str, missing))
        else:
            delta_i = circuit_discriminant(ed.circuit, aset.n)
            try:
                for row, face_forms in zip(edet.factors, forms):
                    mults.append((row.face.indices, form_multiplicity(face_forms[e], delta_i)))
                rhs = sum(n * row.exponent for (_, n), row in zip(mults, edet.factors))
                status, detail = "ok", ""
                if rhs != ranks.zf_rank:
                    status = "fail"
                    detail = "rank identity fails: lhs %d vs rhs %d" % (ranks.zf_rank, rhs)
            except MultiplicityError as exc:
                status, detail = "fail", str(exc)
        checks.append(EdgeCheck(
            vertex_pair=ed.vertex_pair, circuit_indices=ed.circuit.indices,
            circuit_relation=ed.circuit.relation, circuit_spans=ranks.circuit_index is not None,
            circuit_index=ranks.circuit_index, separating_sets=ed.separating_sets,
            per_j_indices=ranks.per_j_indices, zf_rank=ranks.zf_rank,
            multiplicities=tuple(mults), rhs=rhs, status=status, detail=detail,
        ))

    statuses = {c.status for c in checks}
    status = "fail" if "fail" in statuses else ("budget" if "skipped" in statuses else "pass")
    return TheoremReport(
        aset=aset, triangulation_count=len(sp.triangulations), edges=tuple(checks), edet=edet,
        face_ranks=tuple(row.invariants for row in edet.factors), status=status,
    )
