import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkzrank import polytope, secondary
from gkzrank.lattice import LatticeError, smith_normal_form
from gkzrank.polytope import (
    InvalidConfiguration,
    affine_rank,
    extreme_rays,
    faces,
    fold_table,
    lower_hull_cells,
    lower_hull_triangulation,
    placing_lifts,
    placing_volume,
    total_volume,
    validate_aset,
    _independent_rows,
)

from conftest import make_random_aset
from fold_reference import (
    barycentric,
    characteristic_function,
    det_int,
    fold_relation,
    fold_table_by_adjugates,
    listed,
    reference_fold_functionals,
    subset_volume,
    validate_by_two_snfs,
)
from hull_reference import (
    extreme_rays_by_adjugate,
    facet_vertex_sets,
    hull_vertex_indices,
    lower_hull_cells_symbolic,
    lower_hull_triangulation_symbolic,
    placing_lifts_symbolic,
)
from projection_reference import project_mod_face
from secondary_lp_reference import in_convex_hull


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
        (0, [(1,)], "non-positive dim"),
        (-1, [(1,)], "non-positive dim"),
        (2, 5, "malformed points"),
        (2, [5, 6], "malformed points"),
        (2, "ab", "malformed points"),
        (2, [(1, 0), "ab"], "malformed points"),
    ],
)
def test_validate_errors(dim, pts, code):
    with pytest.raises(InvalidConfiguration) as err:
        validate_aset(dim, pts)
    assert err.value.code == code


@st.composite
def point_sets(draw):
    """Distinct integer points of length 1 to 4: some at height one in the
    first coordinate, valid or not, and some with no height functional."""
    dim = draw(st.integers(1, 4))
    first = st.just(1) if draw(st.booleans()) else st.integers(-3, 3)
    point = st.tuples(first, *[st.integers(-3, 3)] * (dim - 1))
    return dim, draw(st.lists(point, min_size=1, max_size=7, unique=True))


@settings(max_examples=500, deadline=None)
@given(point_sets())
def test_validate_matches_the_two_snf_route(case):
    dim, pts = case
    try:
        expected = validate_by_two_snfs(dim, pts)
    except InvalidConfiguration as err:
        with pytest.raises(InvalidConfiguration) as got:
            validate_aset(dim, pts)
        assert got.value.code == err.code
    else:
        assert validate_aset(dim, pts) == expected


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


def assert_certified(aset, face):
    vals = [sum(u * x for u, x in zip(face.support, p)) for p in aset.points]
    assert max(vals) == face.offset
    assert tuple(i for i, v in enumerate(vals) if v == face.offset) == face.indices


def test_face_certificates(a3, kp2, f2):
    for aset in (a3, kp2, f2):
        for f in faces(aset):
            assert_certified(aset, f)


def _unimodular_image(aset):
    """The configuration under a fixed unimodular map of ZZ^dim whose height
    functional is no longer a coordinate vector."""
    d = aset.dim  # u = (upper ones) (lower ones)
    u = [[d - max(i, j) for j in range(d)] for i in range(d)]
    assert det_int(u) == 1
    return validate_aset(d, [tuple(sum(a * x for a, x in zip(row, p)) for row in u) for p in aset.points])


def test_faces_match_the_reference_facets(a3, kp2, f2):
    # the facets read from the double description are the point sets the
    # candidate-hyperplane search finds, and every face is certified
    rng = random.Random(271828)  # the acceptance corpus
    corpus = [make_random_aset(rng) for _ in range(100)]
    collinear = validate_aset(2, [(1, k) for k in range(9)])
    grid = validate_aset(3, [(x, y, 1) for x in range(4) for y in range(2)])
    cube = validate_aset(4, [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    images = [_unimodular_image(aset) for aset in (a3, kp2, f2, cube, *corpus[:10])]
    point = validate_aset(1, [(1,)])
    for aset in (a3, kp2, f2, *corpus, point, collinear, grid, cube, *images):
        fs = faces(aset)
        facets = {frozenset(f.indices) for f in fs if f.dim == aset.dim - 2}
        assert facets == facet_vertex_sets(aset.points, aset.dim - 1)
        for f in fs:
            assert_certified(aset, f)


def test_faces_ordering(f2):
    fs = faces(f2)
    keys = [(f.dim, f.indices) for f in fs]
    assert keys == sorted(keys)


def test_volume_additivity(a3, kp2, f2):
    from gkzrank.secondary import secondary_polytope

    for aset in (a3, kp2, f2):
        vol = total_volume(aset)
        sp = secondary_polytope(aset)
        assert sp.phis == tuple(characteristic_function(aset, tri) for tri in sp.triangulations)
        for tri in sp.triangulations:
            assert sum(abs(sp.table[s][0]) for s in tri.simplices) == vol


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
    assert proj.index == 1


def test_placing_lower_hull(a3):
    table = fold_table(a3.points, 2)
    tri = lower_hull_triangulation(table, placing_lifts(table))
    assert tri == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_lower_hull_cells_weak():
    pts = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
    # lift with the middle point exactly on the segment between its
    # neighbours: one coarse cell {0,2,4} plus nothing else
    cells = lower_hull_cells(fold_table(pts, 2), [0, 1, 0, 1, 0])
    assert cells == ((0, 2, 4),)


def test_subset_volume_and_hull_vertices(f2):
    assert subset_volume(f2.points, (0, 1, 2, 3), 3) == 2
    assert hull_vertex_indices(f2.points, (0, 1, 2, 3)) == (0, 1, 3)
    assert affine_rank([f2.points[i] for i in (1, 2, 3)]) == 1


def test_no_points_have_no_cells_and_no_volume():
    # an empty lift list gives no cell, and an empty subset is flat like
    # every other subset that spans no full cell
    for dim in (1, 2, 3):
        assert lower_hull_cells(fold_table([], dim), []) == ()
        assert placing_volume(fold_table([], dim)) == 0
    with pytest.raises(InvalidConfiguration):
        subset_volume([(1, 0), (1, 1)], (), 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=8))
))
def test_fold_table_matches_the_adjugate_reference(case):
    # any integer points, flat simplices, repeated points and n <= dim
    # included: the same keys, rows, volumes and relations, in the same order
    dim, points = case
    assert listed(fold_table(points, dim)) == listed(fold_table_by_adjugates(points, dim))


def test_in_convex_hull():
    tri = [(1, 0), (0, 1), (-1, -1)]
    assert in_convex_hull((0, 0), tri)
    assert in_convex_hull((1, 0), tri)
    assert not in_convex_hull((1, 1), tri)
    assert in_convex_hull(
        (Fraction(1, 2), Fraction(1, 2)), [(1, 0), (0, 1)]
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=7, unique=True))
def test_hull_vertices_match_the_lp_membership_test(xy):
    # height-one points in the plane: empty, one point, collinear or not
    points = [p + (1,) for p in xy]
    expected = tuple(
        i for i, p in enumerate(points) if not in_convex_hull(p, points[:i] + points[i + 1:])
    )
    assert hull_vertex_indices(points, reversed(range(len(points)))) == expected


# -- integer fold relations against the Fraction barycentric reference ------


def _reference_fold(points, lifts, sigma, j):
    """Lift of j minus the affine extension of the sigma lift at point j."""
    vals = [tuple(map(Fraction, v)) if isinstance(v, tuple) else (Fraction(v),) for v in lifts]
    width = max(map(len, vals))
    vals = [v + (Fraction(0),) * (width - len(v)) for v in vals]
    out = list(vals[j])
    for coef, i in zip(barycentric(points, sigma, j), sigma):
        for k in range(width):
            out[k] -= coef * vals[i][k]
    return tuple(out)


def _reference_cells(points, lifts, dim):
    """(cells, strict simplices) of the lower hull, by the reference fold."""
    cells, simplices = set(), set()
    for sigma in combinations(range(len(points)), dim):
        if det_int([points[i] for i in sigma]) == 0:
            continue
        folds = {
            j: _reference_fold(points, lifts, sigma, j)
            for j in range(len(points))
            if j not in sigma
        }
        if any(f < (0,) * len(f) for f in folds.values()):
            continue
        flat = {j for j, f in folds.items() if not any(f)}
        cells.add(tuple(sorted(set(sigma) | flat)))
        if not flat:
            simplices.add(sigma)
    return tuple(sorted(cells)), tuple(sorted(simplices))


_lift_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=6),
    st.lists(
        st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4)),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


@st.composite
def lifted_asets(draw):
    """Height-one points of dim 2 or 3, full affine rank, with mixed lifts."""
    dim = draw(st.sampled_from([2, 3]))
    if dim == 2:
        ks = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5, unique=True))
        points = [(1, k) for k in ks]
    else:
        box = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
        xys = draw(st.lists(st.sampled_from(box), min_size=3, max_size=6, unique=True))
        points = [(x, y, 1) for x, y in xys]
    assume(affine_rank(points) == dim - 1)
    lifts = draw(st.lists(_lift_values, min_size=len(points), max_size=len(points)))
    return points, lifts, dim


@settings(max_examples=150, deadline=None)
@given(lifted_asets(), st.integers(0, 2), st.fractions(Fraction(1, 5), 5))
def test_lower_hull_matches_fraction_reference(case, column, factor):
    # the symbolic reference on mixed lifts, and the package's integer
    # lower hull whenever every lift is an integer
    points, lifts, dim = case
    cells, simplices = _reference_cells(points, lifts, dim)
    table = fold_table(points, dim)
    assert lower_hull_cells_symbolic(table, lifts) == cells
    assert lower_hull_triangulation_symbolic(table, lifts) == simplices
    if all(type(v) is int for v in lifts):
        assert lower_hull_cells(table, lifts) == cells
        assert lower_hull_triangulation(table, lifts) == simplices

    def scale(v):
        v = v if isinstance(v, tuple) else (v,)
        return tuple(x * factor if k == column else x for k, x in enumerate(v))

    assert lower_hull_cells_symbolic(table, [scale(v) for v in lifts]) == cells

    full = [s for s in combinations(range(len(points)), dim) if det_int([points[i] for i in s])]
    assert list(table) == full
    for sigma in full:
        for j in set(range(len(points))) - set(sigma):
            rel = fold_relation(points, sigma, j)
            assert table[sigma][1][j] == rel
            idx = sigma + (j,)
            for k in range(dim):
                assert sum(c * points[i][k] for c, i in zip(rel, idx)) == 0
            assert gcd(*rel) == 1 and rel[-1] > 0


@pytest.mark.parametrize("name", ["a3", "kp2", "f2"])
def test_fold_functionals_match_reference(name, request):
    # the rows of T's simplices in the table, as functionals on all points,
    # are the fold functionals of the Fraction barycentric reference
    aset = request.getfixturevalue(name)
    sp = request.getfixturevalue(name + "_secondary")
    for tri in sp.triangulations:
        rows = set()
        for sigma in tri.simplices:
            for j, rel in sp.table[sigma][1].items():
                c = [0] * aset.n
                for i, x in zip((*sigma, j), rel):
                    c[i] = x
                rows.add(tuple(c))
        assert sorted(rows) == reference_fold_functionals(aset, tri.simplices)


@st.composite
def placed_points(draw):
    """Integer points of dim 1 to 4, coordinates up to 50 in absolute value:
    flat subsets, repeated points and sets that span nothing included."""
    dim = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(-50, 50)] * dim)
    return dim, draw(st.lists(coords, max_size=7 if dim < 4 else 6))


@settings(max_examples=150, deadline=None)
@given(placed_points())
def test_integer_placing_lifts_match_the_symbolic_ones(case):
    # the powers of one base order the points as the infinitesimals do:
    # placing, reversed placing, and both shifted by the staircase's
    # constant lift -1, which leads as -B^n
    dim, points = case
    table = fold_table(points, dim)
    lifts = placing_lifts(table)
    assert len(lifts) == (len(points) if table else 0)
    symbolic = placing_lifts_symbolic(len(points))
    shifted = [x - lifts[1] * lifts[-1] for x in lifts] if len(lifts) > 1 else lifts
    shifted_symbolic = [(-1, *e) for e in symbolic] if len(lifts) > 1 else symbolic
    for ints, reference in ((lifts, symbolic), (shifted, shifted_symbolic)):
        for order in (1, -1):
            expected = lower_hull_cells_symbolic(table, reference[::order])
            assert lower_hull_cells(table, ints[::order]) == expected


def test_placing_base_must_exceed_max_det():
    # one hand-built row, simplex (0, 1) at point 2 with the relation
    # (-1, -M, 1), M = max |det|: under the placing order its sign is that
    # of its last entry, +1, but the powers of a base of M alone give
    # -1 - M * M + M^2 < 0.  The base 2 + (d + 1) M keeps the sign.
    m = 6
    table = {(0, 1): (m, {2: (-1, -m, 1)})}
    assert lower_hull_cells_symbolic(table, placing_lifts_symbolic(3)) == ((0, 1),)
    assert lower_hull_cells(table, [m**i for i in range(3)]) == ()
    assert placing_lifts(table) == [1, 20, 400]
    assert lower_hull_cells(table, placing_lifts(table)) == ((0, 1),)


_small_ints = st.integers(-4, 4)


@st.composite
def integer_matrices(draw):
    """Integer matrices of 1 to 5 rows and 1 to 5 columns, some with zero
    rows and some with rows that combine earlier ones (rank deficient)."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_small_ints, min_size=cols, max_size=cols), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_rank_by_elimination_matches_smith_normal_form(rows):
    # a row is kept exactly when it raises the rank of the rows before it
    ranks = [0] + [smith_normal_form(rows[: t + 1]).rank for t in range(len(rows))]
    kept = [t for t in range(len(rows)) if ranks[t + 1] > ranks[t]]
    assert _independent_rows(rows) == kept
    assert _independent_rows([]) == []


@st.composite
def full_rank_matrices(draw):
    """Integer matrices of rank equal to their 1 to 4 columns, with up to
    four rows more than that, each row signed to be non-negative on a drawn
    point so that the cone they cut out is not just the origin."""
    cols = draw(st.integers(1, 4))
    row = st.lists(_small_ints, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=cols, max_size=cols + 4))
    assume(smith_normal_form(rows).rank == cols)
    point = draw(row)
    return [r if sum(a * b for a, b in zip(r, point)) >= 0 else [-x for x in r] for r in rows]


@settings(max_examples=300, deadline=None)
@given(full_rank_matrices())
def test_extreme_ray_masks_hold_exactly_the_tight_rows(rows):
    # bit t of a ray's mask is set exactly when the ray is tight on row t
    for h, on in extreme_rays(rows):
        assert all(sum(a * b for a, b in zip(r, h)) >= 0 for r in rows) and gcd(*h) == 1
        assert on == sum(1 << t for t, r in enumerate(rows) if sum(a * b for a, b in zip(r, h)) == 0)


def test_rank_by_elimination_examples():
    assert _independent_rows([[0, 0], [0, 0]]) == []
    assert _independent_rows([[2], [4], [0]]) == [0]
    assert _independent_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == [0, 2]
    assert _independent_rows([[6, 4], [9, 6]]) == [0]
    assert _independent_rows([[0, 0], [0, 3], [1, 1], [2, 5]]) == [1, 2]


def test_extreme_rays_match_the_adjugate_route(monkeypatch, a3, kp2, f2, grid):
    # every row set of the secondary cones, the hulls of the phis and the
    # hulls inside faces, on the built-ins, the acceptance corpus and the
    # 3 x 3 grid: the same rays in the same order with the same masks
    rng = random.Random(271828)
    asets = [a3, kp2, f2, *(make_random_aset(rng) for _ in range(100)), grid]
    seen = []

    def recorded(rows):
        seen.append([list(r) for r in rows])
        return extreme_rays(rows)

    monkeypatch.setattr(polytope, "extreme_rays", recorded)
    monkeypatch.setattr(secondary, "extreme_rays", recorded)
    for aset in asets:
        secondary.secondary_polytope(aset)
        faces(aset)
    monkeypatch.undo()
    assert len(seen) == 1313
    for rows in seen:
        assert extreme_rays(rows) == extreme_rays_by_adjugate(rows)


@st.composite
def full_rank_rows_with_dependent_ones(draw):
    """Integer rows of full column rank, 1 to 6 columns: the basis rows in
    order, with rows dependent on the rows before them (zero rows and
    integer combinations) mixed in before, between and after them."""
    cols = draw(st.integers(1, 6))
    row = st.lists(_small_ints, min_size=cols, max_size=cols)
    basis = draw(st.lists(row, min_size=cols, max_size=cols))
    assume(smith_normal_form(basis).rank == cols)
    rows = []
    for b in basis + [None]:
        for _ in range(draw(st.integers(0, 2))):
            coefs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[k] for c, r in zip(coefs, rows)) for k in range(cols)])
        if b is not None:
            rows.append(b)
    return rows


@settings(max_examples=300, deadline=None)
@given(full_rank_rows_with_dependent_ones())
def test_extreme_rays_match_the_adjugate_route_with_dependent_rows(rows):
    assert extreme_rays(rows) == extreme_rays_by_adjugate(rows)


@pytest.mark.parametrize("rows", [
    [[0, 0]], [[0], [0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 0]],
])
def test_extreme_rays_of_rows_without_full_rank_raise(rows):
    with pytest.raises(LatticeError, match="without full rank"):
        extreme_rays(rows)

