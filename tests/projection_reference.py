"""Test-only reference for a face's rank row by projection: one Smith
normal form projects A to the saturated quotient lattice of the face's
span, and the images' own fold table gives the staircase, where the package
reads both off the configuration's one fold table."""

from math import prod
from typing import NamedTuple

from gkzrank.ktheory import FaceInvariants, RankInconsistency
from gkzrank.lattice import span
from gkzrank.polytope import (
    ASet,
    Face,
    IntVector,
    fold_table,
    lower_hull_cells,
    lower_hull_triangulation,
    placing_lifts,
)


class ProjectedFace(NamedTuple):
    """The saturated quotient of ZZ^d by the span of a face."""

    quotient_rank: int
    images: tuple[tuple[int, IntVector], ...]  # (point index, projected point)
    index: int  # [sat ZZ(face) : ZZ(face)], the torsion order of ZZ^d / ZZ(face)


def project_mod_face(aset: ASet, face: Face) -> ProjectedFace:
    """Project A to the saturated quotient lattice by the span of the face.

    Images are listed for the points outside the real span of the face; the
    index of ZZ(A on the face) in its saturation is reported separately.
    """
    lat = span([aset.points[i] for i in face.indices], aset.dim)
    pi = lat.left[lat.rank :]
    images = []
    face_set = set(face.indices)
    for i, p in enumerate(aset.points):
        img = tuple(sum(r * x for r, x in zip(row, p)) for row in pi)
        if i in face_set:
            if any(img):
                raise RuntimeError("face point fails to project to zero")
            continue
        if not any(img):
            raise RuntimeError("non-face point unexpectedly in the face span")
        images.append((i, img))
    return ProjectedFace(
        quotient_rank=aset.dim - lat.rank,
        images=tuple(images),
        index=prod(lat.diag),
    )


def staircase_by_projection(proj: ProjectedFace):
    """(u, ray_indices, bounded_facets) of the projected images from their
    own fold table: the lower-hull cells under the constant lift -1 are the
    bounded facets, and the placing and reversed placing triangulations of
    them must have one volume."""
    q = proj.quotient_rank
    if q == 0:
        return 1, (), ()
    ids = [i for i, _ in proj.images]
    ws = [w for _, w in proj.images]
    if q == 1:
        vals = [w[0] for w in ws]
        if not (all(v > 0 for v in vals) or all(v < 0 for v in vals)):
            raise RankInconsistency("projected semigroup cone is not pointed")
        m = min(abs(v) for v in vals)
        rays = tuple(i for i, v in zip(ids, vals) if abs(v) == m)
        return m, rays, (rays,)
    table = fold_table(ws, q)
    cells = lower_hull_cells(table, [-1] * len(ws))
    powers = placing_lifts(table)
    placing = [x - powers[1] * powers[-1] for x in powers]
    u, fan = (
        sum(abs(table[s][0]) for s in lower_hull_triangulation(table, lifts))
        for lifts in (placing, placing[::-1])
    )
    if u != fan or u < 1:
        raise RankInconsistency(
            "face rank mismatch: staircase volumes %d (placing), %d (reversed)" % (u, fan)
        )
    facets = tuple(sorted(tuple(ids[k] for k in cell) for cell in cells))
    return u, tuple(sorted({i for facet in facets for i in facet})), facets


def rank_row_by_projection(aset: ASet, face: Face) -> FaceInvariants:
    """rank_k0_face's row from the face's own projection."""
    proj = project_mod_face(aset, face)
    u, rays, _ = staircase_by_projection(proj)
    return FaceInvariants(face=face, i=proj.index, u=u, ray_indices=rays, k0_rank=u * proj.index)
