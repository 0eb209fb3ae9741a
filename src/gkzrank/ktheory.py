"""K-theory ranks of the toric stacks attached to faces and edges.

For a face the rank is u * i: the normalized volume of the bounded staircase
region of the projected point semigroup, times the index of the face
sublattice in its saturation.  For a secondary-polytope edge it is the sum
over separating sets J of the index of the circuit-plus-J sublattice.  The
main verification routine checks, on every edge, that the edge rank equals
the multiplicity-weighted sum of face ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .elimination import Budget
from .lattice import (
    kernel_basis,
    quotient_group,
    smith_normal_form,
    sublattice_index,
)
from .polytope import (
    ASet,
    Face,
    faces,
    project_mod_face,
    subset_volume,
)
from .secondary import EdgeData, SecondaryPolytope, edge_data, secondary_polytope


class RankInconsistency(RuntimeError):
    """The two independent rank computations disagreed."""


@dataclass(frozen=True)
class Staircase:
    """Bounded staircase data of a projected face: volume and the indices
    whose projections lie on the bounded boundary."""

    u: int
    ray_indices: tuple[int, ...]
    bounded_facets: tuple[tuple[int, ...], ...]  # A-indices per bounded facet


@dataclass(frozen=True)
class FaceInvariants:
    face: Face
    i: int
    u: int
    ray_indices: tuple[int, ...]
    k0_rank: int


@dataclass(frozen=True)
class EdgeInvariants:
    edge: EdgeData
    per_j_indices: tuple[tuple[tuple[int, ...], int], ...]
    zf_rank: int


def face_index_i(aset: ASet, face: Face) -> int:
    """Index of the face sublattice inside its saturation."""
    return sublattice_index([aset.points[i] for i in face.indices], aset.dim).index


def face_volume_u(aset: ASet, face: Face) -> Staircase:
    """Normalized volume of the bounded staircase region in the quotient.

    Computed as the sum of apex-zero pyramid volumes over the bounded facets
    of conv(projected points) + cone(projected points).
    """
    proj = project_mod_face(aset, face)
    q = proj.quotient_rank
    if q == 0:
        return Staircase(u=1, ray_indices=(), bounded_facets=())
    images = proj.images
    if q == 1:
        vals = [w[0] for _, w in images]
        if not (all(v > 0 for v in vals) or all(v < 0 for v in vals)):
            raise RankInconsistency("projected semigroup cone is not pointed")
        m = min(abs(v) for v in vals)
        rays = tuple(i for i, w in images if abs(w[0]) == m)
        return Staircase(u=m, ray_indices=rays, bounded_facets=(rays,))
    bounded = _bounded_facets(images, q)
    u = 0
    on_boundary: set[int] = set()
    facet_indices = []
    for pts_idx in bounded:
        ws = [w for _, w in images]
        local = [k for k, (i, _) in enumerate(images) if i in pts_idx]
        u += subset_volume(ws, local, q)
        on_boundary.update(pts_idx)
        facet_indices.append(tuple(sorted(pts_idx)))
    if u < 1:
        raise RankInconsistency("staircase volume vanished")
    return Staircase(
        u=u,
        ray_indices=tuple(sorted(on_boundary)),
        bounded_facets=tuple(sorted(facet_indices)),
    )


def _bounded_facets(images, q: int):
    """Bounded facets of conv(ws)+cone(ws), as sets of A-point indices.

    Facets are found on the homogenization cone in dimension q+1; a facet is
    bounded exactly when no ray generator lies on it.
    """
    gens = []  # (vector, a_index or None for ray generators)
    for i, w in images:
        gens.append((w + (1,), i))
    for w in sorted(set(w for _, w in images)):
        gens.append((w + (0,), None))

    seen: dict[frozenset, tuple] = {}
    for subset in combinations(range(len(gens)), q):
        rows = [list(gens[k][0]) for k in subset]
        if smith_normal_form(rows).rank != q:
            continue
        kern = kernel_basis(rows)
        if len(kern) != 1:
            continue
        normal = kern[0]
        vals = [sum(a * b for a, b in zip(normal, g[0])) for g in gens]
        pos = any(v > 0 for v in vals)
        neg = any(v < 0 for v in vals)
        if pos and neg:
            continue
        if neg:
            vals = [-v for v in vals]
        support = frozenset(k for k, v in enumerate(vals) if v == 0)
        seen.setdefault(support, vals)

    bounded = []
    for support in seen:
        idxs = set()
        unbounded = False
        for k in support:
            if gens[k][1] is None:
                unbounded = True
                break
            idxs.add(gens[k][1])
        if not unbounded and idxs:
            bounded.append(frozenset(idxs))
    # drop non-maximal supports (sub-faces picked up by degenerate subsets)
    out = [s for s in bounded if not any(s < t for t in bounded)]
    return sorted(tuple(sorted(s)) for s in out)


def _fan_volume(aset: ASet, face: Face, staircase: Staircase) -> int:
    """Total cone volume of a simplicial fan on the staircase rays.

    The fan is the placing triangulation of each bounded facet taken in
    reversed point order, so its simplices generally differ from the ones
    behind face_volume_u; the totals must still agree.
    """
    proj = project_mod_face(aset, face)
    q = proj.quotient_rank
    if q == 0:
        return 1
    image_of = dict(proj.images)
    return sum(
        subset_volume([image_of[i] for i in reversed(facet)], range(len(facet)), q)
        for facet in staircase.bounded_facets
    )


def rank_k0_face(aset: ASet, face: Face) -> FaceInvariants:
    """u * i, cross-checked against fan volume times full-quotient torsion."""
    idx = face_index_i(aset, face)
    stair = face_volume_u(aset, face)
    k0 = stair.u * idx
    fan_vol = _fan_volume(aset, face, stair)
    torsion = quotient_group(
        [aset.points[i] for i in face.indices], aset.dim
    ).torsion_order
    if fan_vol * torsion != k0:
        raise RankInconsistency(
            "face rank mismatch: u*i = %d but fan volume * torsion = %d"
            % (k0, fan_vol * torsion)
        )
    return FaceInvariants(
        face=face, i=idx, u=stair.u, ray_indices=stair.ray_indices, k0_rank=k0
    )


def rank_k0_edge(aset: ASet, edge: EdgeData) -> EdgeInvariants:
    """Sum over separating sets of the index of ZZ(circuit + J) in ZZ^d."""
    per_j = []
    total = 0
    for jset in edge.separating_sets:
        pts = [aset.points[i] for i in edge.circuit.indices] + [
            aset.points[i] for i in jset
        ]
        group = quotient_group(pts, aset.dim)
        if group.free_rank != 0:
            raise RankInconsistency(
                "circuit plus separating set fails to span the ambient space"
            )
        per_j.append((jset, group.torsion_order))
        total += group.torsion_order
    return EdgeInvariants(edge=edge, per_j_indices=tuple(per_j), zf_rank=total)


@dataclass(frozen=True)
class EdgeCheck:
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


@dataclass(frozen=True)
class TheoremReport:
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
    from .discriminant import (
        MultiplicityError,
        circuit_discriminant,
        multiplicity,
        principal_a_determinant,
    )

    if sp is None:
        sp = secondary_polytope(aset)
    face_list = faces(aset)
    face_ranks = tuple(rank_k0_face(aset, f) for f in face_list)
    edet = principal_a_determinant(aset, budget)
    disc_of = {row.face.indices: row.discriminant for row in edet.factors}
    missing = [f.indices for f in face_list if disc_of[f.indices] is None]

    checks = []
    for (i, j) in sp.edges:
        ed = edge_data(sp, i, j)
        ranks = rank_k0_edge(aset, ed)
        cgroup = quotient_group(
            [aset.points[k] for k in ed.circuit.indices], aset.dim
        )
        spans = cgroup.free_rank == 0
        mults = []
        rhs = None
        if missing:
            status = "skipped"
            detail = "face discriminants over budget: %s" % ", ".join(map(str, missing))
        else:
            delta_i = circuit_discriminant(ed.circuit, aset.n)
            try:
                for f in face_list:
                    mults.append(
                        (f.indices, multiplicity(aset, f, ed, disc_of[f.indices], delta_i))
                    )
                rhs = sum(n * fr.k0_rank for (_, n), fr in zip(mults, face_ranks))
                status, detail = "ok", ""
                if rhs != ranks.zf_rank:
                    status = "fail"
                    detail = "rank identity fails: lhs %d vs rhs %d" % (ranks.zf_rank, rhs)
            except MultiplicityError as exc:
                status, detail = "fail", str(exc)
        checks.append(
            EdgeCheck(
                vertex_pair=(i, j),
                circuit_indices=ed.circuit.indices,
                circuit_relation=ed.circuit.relation,
                circuit_spans=spans,
                circuit_index=cgroup.torsion_order if spans else None,
                separating_sets=ed.separating_sets,
                per_j_indices=ranks.per_j_indices,
                zf_rank=ranks.zf_rank,
                multiplicities=tuple(mults),
                rhs=rhs,
                status=status,
                detail=detail,
            )
        )

    statuses = {c.status for c in checks}
    status = "fail" if "fail" in statuses else ("budget" if "skipped" in statuses else "pass")
    return TheoremReport(
        aset=aset,
        triangulation_count=len(sp.triangulations),
        face_ranks=face_ranks,
        edges=tuple(checks),
        edet=edet,
        status=status,
    )
