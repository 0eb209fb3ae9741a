from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzrank.lattice import LatticeError, kernel_basis, smith_normal_form, span

from fold_reference import adjugate, det_int, integer_solve, mat_mul, primitive_relation, reconstruct


def diag_matrix(diag, m, n):
    return [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]).diag == (1, 1)


def test_snf_known_values():
    assert smith_normal_form([[1, 2], [3, 4]]).diag == (1, 2)
    assert smith_normal_form([[2, 4], [6, 8]]).diag == (2, 4)


def test_snf_reconstruction():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    dec = smith_normal_form(mat, left=True, right=True)
    assert reconstruct(dec, mat) == diag_matrix(dec.diag, 3, 3)


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_properties(mat):
    dec = smith_normal_form(mat, left=True, right=True)
    m, n = len(mat), len(mat[0])
    assert reconstruct(dec, mat) == diag_matrix(dec.diag, m, n)
    assert abs(det_int(dec.left)) == 1
    assert abs(det_int(dec.right)) == 1
    nonzero = [d for d in dec.diag if d != 0]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros come last
    tail = list(dec.diag[len(nonzero):])
    assert tail == [0] * len(tail)


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_snf_builds_only_the_transforms_asked_for(mat):
    both = smith_normal_form(mat, left=True, right=True)
    only_left = smith_normal_form(mat, left=True)
    only_right = smith_normal_form(mat, right=True)
    neither = smith_normal_form(mat)
    assert only_left.diag == only_right.diag == neither.diag == both.diag
    assert (only_left.left, only_left.right) == (both.left, None)
    assert (only_right.left, only_right.right) == (None, both.right)
    assert (neither.left, neither.right) == (None, None)


@pytest.mark.parametrize(
    "mat,diag,left,right",
    [
        (
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            (2, 2, 156),
            ((1, 0, 0), (32, -1, -7), (1221, -38, -267)),
            ((1, 44, -90), (0, 1, -2), (0, -23, 47)),
        ),
        (
            [[1, 1, 1, 1], [0, 1, 0, 2], [0, 0, 1, 1]],
            (1, 1, 1),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, -1, -1, 2), (0, 1, 0, -2), (0, 0, 1, -1), (0, 0, 0, 1)),
        ),
        ([[0, 3], [2, 5], [4, 1]], (1, 6), ((0, 0, 1), (1, -1, 2), (3, -2, 1)), ((0, 1), (1, -4))),
        ([[6, 10, 15]], (1,), ((1,),), ((-14, -5, 30), (7, 3, -15), (1, 0, -2))),
        ([[2, 0], [0, 3]], (1, 6), ((1, 1), (3, 2)), ((-1, 3), (1, -2))),  # the divisibility fix-up
        ([[0, -4], [-6, 0]], (2, 12), ((-1, -1), (-3, -2)), ((1, -2), (-1, 3))),  # sign flips
    ],
)
def test_snf_pinned_transforms(mat, diag, left, right):
    # the exact transforms, not only their properties: span's left transform
    # sets every saturated coordinate, so a change of pivot order shows here
    dec = smith_normal_form(mat, left=True, right=True)
    assert (dec.diag, dec.left, dec.right) == (diag, left, right)


def test_quotient_group_examples():
    # ZZ^d / L has free rank d - rank and torsion order index
    lat = span([(1, 0), (1, 2)], 2)
    assert (lat.rank, lat.diag, prod(lat.diag)) == (2, (1, 2), 2)
    lat = span([(1, 0), (1, 1), (1, 4)], 2)
    assert (lat.rank, prod(lat.diag)) == (2, 1)
    with pytest.raises(LatticeError):
        span([], 3)


def test_quotient_torsion_is_the_saturation_index():
    # a full-rank square system: the index in the saturation is |det|
    gens = [(2, 1), (0, 3)]
    assert prod(span(gens, 2).diag) == abs(det_int(gens)) == 6
    # a saturated plane in ZZ^3: index one
    lat = span([(1, 0, 1), (0, 1, 1), (-1, 2, 1)], 3)
    assert (lat.rank, prod(lat.diag)) == (2, 1)


def test_quotient_torsion_matches_invariant_factors():
    lat = span([(2, 0, 0), (0, 6, 0)], 3)
    assert (lat.rank, lat.diag, prod(lat.diag)) == (2, (2, 6), 12)


def test_primitive_relation_known_circuits():
    assert primitive_relation([(1, 0), (1, 1), (1, 4)]) == (3, -4, 1)
    assert primitive_relation([(1, 0), (1, 2), (1, 4)]) == (1, -2, 1)
    rel = primitive_relation([(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    assert rel in ((3, -1, -1, -1), (-3, 1, 1, 1))
    assert rel[0] > 0  # sign normalization


def test_primitive_relation_properties():
    vecs = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)]
    rel = primitive_relation(vecs)
    for i in range(3):
        assert sum(l * v[i] for l, v in zip(rel, vecs)) == 0
    g = 0
    for l in rel:
        g = gcd(g, l)
    assert g == 1


def test_primitive_relation_rejects_non_circuits():
    with pytest.raises(LatticeError, match="not a circuit"):
        primitive_relation([(1, 0), (0, 1)])  # independent
    with pytest.raises(LatticeError, match="not a circuit"):
        # dependent but not minimal: kernel is two-dimensional
        primitive_relation([(1, 0), (2, 0), (3, 0), (0, 1)])
    with pytest.raises(LatticeError, match="not a circuit"):
        # proper dependent subset: relation has a zero coefficient
        primitive_relation([(1, 0), (2, 0), (0, 1), (0, 2)])


def test_kernel_basis_annihilates():
    mat = [[1, 2, 3], [2, 4, 6]]
    kern = kernel_basis(mat)
    assert len(kern) == 2
    for vec in kern:
        for row in mat:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_integer_solve():
    assert integer_solve([[1, 0], [1, 1], [1, 2]], [1, 1, 1]) == (1, 0)
    assert integer_solve([[2]], [1]) is None
    assert integer_solve([[1, 0], [2, 0]], [1, 1]) is None


def test_span_coordinates():
    lat = span([(2, 0, 0), (0, 3, 0)], 3)
    assert lat.rank == 2
    assert all(len(lat.coordinates(v)) == 2 for v in [(2, 0, 0), (0, 3, 0), (1, 1, 0)])
    with pytest.raises(LatticeError):
        lat.coordinates((0, 0, 1))
    with pytest.raises(LatticeError):
        span([(1, 0)], 3)


def _vector_sets():
    return st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=5),
        )
    )


@settings(max_examples=200, deadline=None)
@given(_vector_sets())
def test_span_against_the_rows(case):
    d, vecs = case
    lat = span(vecs, d)
    rows = smith_normal_form(vecs).diag  # the transpose: same invariant factors
    assert lat.rank == sum(1 for x in rows if x)
    assert prod(lat.diag) == prod(x for x in rows if x)
    for v in vecs:
        assert not any(sum(a * b for a, b in zip(r, v)) for r in lat.left[lat.rank :])
        assert all(c % s == 0 for c, s in zip(lat.coordinates(v), lat.diag))
    # a unit vector lies in the real span exactly when it leaves the rank as
    # it is, and in L exactly when some integer combination of vecs gives it
    cols = [[v[i] for v in vecs] for i in range(d)]
    for k in range(d):
        e = [int(i == k) for i in range(d)]
        if smith_normal_form(vecs + [e]).rank > lat.rank:
            with pytest.raises(LatticeError):
                lat.coordinates(e)
        else:
            in_lattice = all(c % s == 0 for c, s in zip(lat.coordinates(e), lat.diag))
            assert in_lattice == (integer_solve(cols, e) is not None)


def test_mat_mul_shapes():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]


@st.composite
def square_matrices(draw):
    """Integer n x n matrices, n = 1..5, with many zero entries; some made
    singular by a row that combines the others, some with a zero first pivot
    that forces a row swap."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-5, 5))
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["any", "singular", "swap"]))
    if kind == "singular":
        coefs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        mat[-1] = [sum(c * row[k] for c, row in zip(coefs, mat)) for k in range(n)]
    elif kind == "swap" and n > 1:
        mat[0][0] = 0
        mat[-1][0] = draw(st.integers(1, 5))
    return mat


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_adjugate_is_det_times_inverse(mat):
    det, adj = adjugate(mat)
    assert det == det_int(mat)
    if det == 0:
        assert adj is None
    else:
        scalar = [[det if i == k else 0 for k in range(len(mat))] for i in range(len(mat))]
        assert mat_mul(mat, adj) == mat_mul(adj, mat) == scalar


def test_adjugate_examples():
    assert adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))  # one row swap
    assert adjugate([[2, 3], [4, 6]]) == (0, None)
    assert adjugate([[0, 0, 1], [0, 1, 0], [1, 0, 0]])[0] == -1
    with pytest.raises(LatticeError):
        adjugate([[1, 2]])
