import pytest

from gkzrank.polytope import (
    InvalidConfiguration,
    affine_rank,
    faces,
    hull_vertex_indices,
    lower_hull_cells,
    lower_hull_triangulation,
    normalized_volume,
    placing_lifts,
    project_mod_face,
    subset_volume,
    total_volume,
    validate_aset,
)


def face_by_indices(aset, indices):
    for f in faces(aset):
        if f.indices == tuple(indices):
            return f
    raise AssertionError("no face %r" % (indices,))


def test_validate_examples(a3, kp2, f2):
    assert a3.height == (1, 0)
    assert kp2.height == (0, 0, 1)
    assert f2.n == 5 and f2.dim == 3


@pytest.mark.parametrize(
    "dim,pts,code",
    [
        (2, [(1, 0), (2, 0)], "no height functional"),
        (2, [(1, 0), (1, 0)], "duplicate point"),
        (2, [(1, 0), (1, 2)], "does not generate lattice"),
        (3, [(0, 0, 1), (1, 0, 1)], "degenerate configuration"),
        (2, [(1, 0), (1, 1.5)], "non-integer coordinate"),
        (2, [(1, 0), (1, True)], "non-integer coordinate"),
        (2, [(1, 0), (1, "1")], "non-integer coordinate"),
        (2.7, [(1, 0), (1, 1)], "non-integer dim"),
    ],
)
def test_validate_errors(dim, pts, code):
    with pytest.raises(InvalidConfiguration) as err:
        validate_aset(dim, pts)
    assert err.value.code == code


def test_faces_a3(a3):
    fs = faces(a3)
    assert [(f.dim, f.indices) for f in fs] == [
        (0, (0,)),
        (0, (4,)),
        (1, (0, 1, 2, 3, 4)),
    ]


def test_faces_kp2(kp2):
    fs = faces(kp2)
    assert len(fs) == 7
    assert sum(1 for f in fs if f.dim == 0) == 3
    assert sum(1 for f in fs if f.dim == 1) == 3


def test_faces_f2_contains_gamma(f2):
    fs = faces(f2)
    assert any(f.indices == (1, 2, 3) for f in fs)
    # v2 is not a vertex: it sits in the middle of that edge
    assert not any(f.indices == (2,) for f in fs)


def test_face_certificates(a3, kp2, f2):
    for aset in (a3, kp2, f2):
        for f in faces(aset):
            vals = [
                sum(u * x for u, x in zip(f.support, p)) for p in aset.points
            ]
            assert max(vals) == f.offset
            assert tuple(i for i, v in enumerate(vals) if v == f.offset) == f.indices


def test_faces_ordering(f2):
    fs = faces(f2)
    keys = [(f.dim, f.indices) for f in fs]
    assert keys == sorted(keys)


def test_normalized_volume(a3):
    assert normalized_volume((0, 1), a3) == 1
    assert normalized_volume((0, 4), a3) == 4
    assert normalized_volume((0, 2), a3) == 2
    with pytest.raises(InvalidConfiguration):
        normalized_volume((0, 1, 2), a3)


def test_volume_additivity(a3, kp2, f2):
    from gkzrank.secondary import secondary_polytope

    for aset in (a3, kp2, f2):
        vol = total_volume(aset)
        for tri in secondary_polytope(aset).triangulations:
            assert sum(normalized_volume(s, aset) for s in tri.simplices) == vol


def test_project_mod_face_top(a3):
    top = face_by_indices(a3, (0, 1, 2, 3, 4))
    proj = project_mod_face(a3, top)
    assert proj.quotient_rank == 0
    assert proj.images == ()


def test_project_mod_face_vertex(a3):
    v0 = face_by_indices(a3, (0,))
    proj = project_mod_face(a3, v0)
    assert proj.quotient_rank == 1
    vals = [w[0] for _, w in proj.images]
    assert vals == [1, 2, 3, 4] or vals == [-1, -2, -3, -4]


def test_project_mod_face_kp2_vertex(kp2):
    v1 = face_by_indices(kp2, (1,))
    proj = project_mod_face(kp2, v1)
    assert proj.quotient_rank == 2
    assert proj.torsion == ()


def test_placing_lower_hull(a3):
    tri = lower_hull_triangulation(a3.points, placing_lifts(a3.n), 2)
    assert tri == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_lower_hull_cells_weak():
    pts = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
    # lift with the middle point exactly on the segment between its
    # neighbours: one coarse cell {0,2,4} plus nothing else
    cells = lower_hull_cells(pts, [0, 1, 0, 1, 0], 2)
    assert cells == ((0, 2, 4),)


def test_subset_volume_and_hull_vertices(f2):
    assert subset_volume(f2.points, (0, 1, 2, 3), 3) == 2
    assert hull_vertex_indices(f2.points, (0, 1, 2, 3)) == (0, 1, 3)
    assert affine_rank([f2.points[i] for i in (1, 2, 3)]) == 1
