"""K-theory ranks of the toric stacks attached to faces and edges.

For a face the rank is u * i: the normalized volume of the bounded staircase
region of the projected point semigroup, times the index of the face
sublattice in its saturation, which is the order of the torsion of
ZZ^d / ZZ(face) that the face's one projection reports.  The staircase's
bounded facets are the lower-hull cells of the projected points under a
constant lift; u, the volume of their placing triangulation, is checked
against the reversed placing one, both read off one fold table.  Each
face's rank row is computed once, by rank_k0_face; the principal
A-determinant raises the face discriminant to it and the verifier reads it
from there.  For a secondary-polytope edge the rank is the sum over
separating sets J of the index of ZZ(I + J), I the circuit: the gcd of its
maximal minors, so of the volumes of the simplices (I - i) + J, since the
minors that skip a point of J hold all of the dependent I and vanish.  The
main verification routine checks, on every edge, that the edge rank equals
the multiplicity-weighted sum of face ranks.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .elimination import Budget
from .polytope import (
    ASet,
    Face,
    ProjectedFace,
    fold_table,
    lower_hull_cells,
    lower_hull_triangulation,
    placing_lifts,
    project_mod_face,
)
from .secondary import EdgeData, SecondaryPolytope, edge_data, secondary_polytope


class RankInconsistency(RuntimeError):
    """The two independent rank computations disagreed."""


class Staircase(NamedTuple):
    """Bounded staircase data of a projected face: volume and the indices
    whose projections lie on the bounded boundary."""

    u: int
    ray_indices: tuple[int, ...]
    bounded_facets: tuple[tuple[int, ...], ...]  # A-indices per bounded facet


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


def _staircase(proj: ProjectedFace) -> Staircase:
    """Normalized volume of the bounded staircase region in the quotient:
    the sum of apex-zero pyramid volumes over the bounded facets of
    conv(projected points) + cone(projected points).  The bounded facets
    are the lower-hull cells of the projected points under the constant
    lift -1: the fold of sigma + (j,) is then minus the sum of the
    relation, positive exactly when image j lies beyond the hyperplane
    through sigma and zero when it lies on it.  The volumes of two
    triangulations of those facets, the placing one and the one placing the
    points in reversed order, are read off the one fold table and must agree:
    the placing lifts B^i shifted by -B^n, so that -1 leads, and the same
    list reversed."""
    q = proj.quotient_rank
    if q == 0:
        return Staircase(u=1, ray_indices=(), bounded_facets=())
    ids = [i for i, _ in proj.images]
    ws = [w for _, w in proj.images]
    if q == 1:
        vals = [w[0] for w in ws]
        if not (all(v > 0 for v in vals) or all(v < 0 for v in vals)):
            raise RankInconsistency("projected semigroup cone is not pointed")
        m = min(abs(v) for v in vals)
        rays = tuple(i for i, v in zip(ids, vals) if abs(v) == m)
        return Staircase(u=m, ray_indices=rays, bounded_facets=(rays,))
    table = fold_table(ws, q)
    cells = lower_hull_cells(table, [-1] * len(ws))
    powers = placing_lifts(table)
    placing = [x - powers[1] * powers[-1] for x in powers]  # the constant -1 leads, as -B^n
    u, fan = (
        sum(abs(table[s][0]) for s in lower_hull_triangulation(table, lifts))
        for lifts in (placing, placing[::-1])
    )
    if u != fan or u < 1:
        raise RankInconsistency(
            "face rank mismatch: staircase volumes %d (placing), %d (reversed)" % (u, fan)
        )
    facets = tuple(sorted(tuple(ids[k] for k in cell) for cell in cells))
    return Staircase(
        u=u,
        ray_indices=tuple(sorted({i for facet in facets for i in facet})),
        bounded_facets=facets,
    )


def rank_k0_face(aset: ASet, face: Face) -> FaceInvariants:
    """u * i from the one projection of the face: i is the index of
    ZZ(face) in its saturation, and u is the staircase volume, checked
    against a second triangulation of its bounded facets."""
    proj = project_mod_face(aset, face)
    stair = _staircase(proj)
    return FaceInvariants(
        face=face, i=proj.index, u=stair.u, ray_indices=stair.ray_indices,
        k0_rank=stair.u * proj.index,
    )


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

    @property
    def verified(self) -> bool:
        return self.status == "pass"


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
