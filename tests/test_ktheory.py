import random
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings

from gkzrank import ktheory
from gkzrank.ktheory import (
    RankInconsistency,
    _face_simplex,
    _staircase,
    rank_k0_edge,
    rank_k0_face,
    verify_theorem,
)
from gkzrank.discriminant import newton_polytope_check
from gkzrank.lattice import kernel_basis, smith_normal_form, span
from gkzrank.polytope import (
    Face,
    faces,
    fold_table,
    lower_hull_triangulation,
    placing_lifts,
    validate_aset,
)
from gkzrank.secondary import edge_data, secondary_polytope

from conftest import four_dimensional_draws, height_one_asets, make_random_aset
from degree_formula import predicted_multidegree
from fold_reference import edge_indices_by_snf, subset_volume
from projection_reference import project_mod_face, rank_row_by_projection, staircase_by_projection


def face_by_indices(aset, indices):
    for f in faces(aset):
        if f.indices == tuple(indices):
            return f
    raise AssertionError


def rank_row(aset, face):
    """rank_k0_face on the configuration's fold table."""
    return rank_k0_face(aset, face, fold_table(aset.points, aset.dim))


def find_edge(sp, simplices_a, simplices_b):
    key_a = tuple(sorted(tuple(sorted(s)) for s in simplices_a))
    key_b = tuple(sorted(tuple(sorted(s)) for s in simplices_b))
    ia = next(k for k, t in enumerate(sp.triangulations) if t.simplices == key_a)
    ib = next(k for k, t in enumerate(sp.triangulations) if t.simplices == key_b)
    return edge_data(sp, ia, ib)


def test_face_index_examples(a3, kp2, f2):
    for aset in (a3, kp2, f2):
        top = faces(aset)[-1]
        assert top.dim == aset.dim - 1
        assert rank_row(aset, top).i == 1
    assert rank_row(a3, face_by_indices(a3, (0,))).i == 1


def test_face_index_matches_projection_torsion(a3, kp2, f2):
    # rank_k0_face reads i as a gcd of the fold table's volumes; here it is
    # read from a Smith normal form of the face's rows
    rng = random.Random(271828)  # the acceptance corpus
    corpus = [make_random_aset(rng) for _ in range(100)]
    nontrivial = 0
    for aset in [a3, kp2, f2] + corpus:
        for f in faces(aset):
            diag = smith_normal_form([aset.points[k] for k in f.indices]).diag
            i = prod(d for d in diag if d)
            assert rank_row(aset, f).i == i, (aset.points, f.indices)
            nontrivial += i > 1
    assert nontrivial > 0


def test_face_volume_u_top(a3):
    top = face_by_indices(a3, (0, 1, 2, 3, 4))
    row = rank_row(a3, top)
    assert row.u == 1 and row.ray_indices == ()


def test_face_volume_u_a3_vertex(a3):
    v0 = face_by_indices(a3, (0,))
    row = rank_row(a3, v0)
    assert row.u == 1
    assert row.ray_indices == (1,)


def test_face_volume_u_kp2_vertices(kp2):
    for v in ((1,), (2,), (3,)):
        f = face_by_indices(kp2, v)
        row = rank_row(kp2, f)
        assert (row.u, row.i) == (2, 1)


def test_rank_k0_face_examples(a3, kp2, f2):
    for aset in (a3, kp2, f2):
        top = faces(aset)[-1]
        assert rank_row(aset, top).k0_rank == 1
    for v in ((1,), (2,), (3,)):
        assert rank_row(kp2, face_by_indices(kp2, v)).k0_rank == 2
    # vertices of the quadrilateral example all carry rank two
    for v in ((1,), (3,), (4,)):
        assert rank_row(f2, face_by_indices(f2, v)).k0_rank == 2
    assert rank_row(f2, face_by_indices(f2, (1, 2, 3))).k0_rank == 1


def test_rank_k0_edge_a3(a3, a3_secondary):
    e1 = find_edge(a3_secondary, [(0, 4)], [(0, 1), (1, 4)])
    e2 = find_edge(a3_secondary, [(0, 4)], [(0, 2), (2, 4)])
    r1 = rank_k0_edge(a3_secondary, e1)
    r2 = rank_k0_edge(a3_secondary, e2)
    assert r1.zf_rank == 1
    assert r2.zf_rank == 2
    assert r1.per_j_indices == (((), 1),)
    assert r2.per_j_indices == (((), 2),)


def test_rank_k0_edge_refuses_a_separating_set_that_does_not_span(a3_secondary):
    # a3's first edge has the circuit (2, 3, 4); with point 0 as its
    # separating set, no simplex of the fold table is (I - i) + J
    ed = edge_data(a3_secondary, *a3_secondary.edges[0])
    with pytest.raises(RankInconsistency, match="fails to span"):
        rank_k0_edge(a3_secondary, ed._replace(separating_sets=((0,),)))


def test_verify_theorem_a3(a3, a3_secondary):
    rep = verify_theorem(a3, sp=a3_secondary)
    assert rep.status == "pass"
    assert rep.triangulation_count == 8
    assert len(rep.edges) == 12
    assert all(e.status == "ok" for e in rep.edges)
    assert all(e.zf_rank == e.rhs for e in rep.edges)
    by_circuit = {}
    for e in rep.edges:
        by_circuit.setdefault(e.circuit_indices, []).append(e.zf_rank)
    assert by_circuit[(0, 2, 4)] == [2]
    assert by_circuit[(0, 1, 4)] == [1]


def test_verify_theorem_kp2(kp2, kp2_secondary):
    rep = verify_theorem(kp2, sp=kp2_secondary)
    assert rep.status == "pass"
    (edge,) = rep.edges
    assert edge.zf_rank == 1 and edge.rhs == 1
    mults = dict(edge.multiplicities)
    assert mults[(0, 1, 2, 3)] == 1  # n for the full face
    assert all(n == 0 for f, n in edge.multiplicities if f != (0, 1, 2, 3))


def test_verify_theorem_f2(f2, f2_secondary):
    rep = verify_theorem(f2, sp=f2_secondary)
    assert rep.status == "pass"
    assert len(rep.edges) == 4
    for e in rep.edges:
        assert e.status == "ok" and e.zf_rank == e.rhs
    flop_edges = [e for e in rep.edges if e.circuit_indices == (1, 2, 3)]
    assert sorted(e.zf_rank for e in flop_edges) == [1, 2]
    for e in flop_edges:
        mults = dict(e.multiplicities)
        if e.zf_rank == 1:
            assert mults[(0, 1, 2, 3, 4)] == 0 and mults[(1, 2, 3)] == 1
        else:
            assert mults[(0, 1, 2, 3, 4)] == 1 and mults[(1, 2, 3)] == 1


# the fan polytopes of P^3, P^1 x P^2 and P^1 x P^1 x P^1 (d = 4): the
# origin and the primitive generators of each fan's rays
FANS_D4 = {
    "P3": [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, -1, -1, -1)],
    "P1xP2": [(1, 0, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 0, -1, -1)],
    "P1xP1xP1": [
        (1, 0, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (1, 0, 0, 1), (1, 0, 0, -1),
    ],
}


HEXAGON = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
IDENTITY_CONFIGURATIONS = {
    "3x3 grid": (3, [(1, x, y) for x in range(3) for y in range(3)]),
    # the 10-point reflexive triangle conv{(-1, -1), (2, -1), (-1, 2)}
    "triangle": (3, [(1, x, y) for x in range(-1, 3) for y in range(-1, 3) if x + y <= 1]),
    # P1 x dP6: the bipyramid over the hexagon
    "P1xdP6": (4, [(1, x, y, 0) for x, y in HEXAGON] + [(1, 0, 0, 1), (1, 0, 0, -1)]),
}


@pytest.mark.parametrize("name", IDENTITY_CONFIGURATIONS)
def test_the_placing_phi_is_the_weighted_sum_of_predicted_multidegrees(name):
    # E_A = prod_F Delta_F^((u * i)_F) has phi_T as the exponent that T's
    # lift picks out, so A phi_T = sum_F (u * i)_F B beta_F with T the
    # placing triangulation: the rank rows checked where no discriminant is
    # computed (the triangle's top face and P1 x dP6's are over the default
    # budget).  Every (u * i)_F of the grid and the triangle is 1; P1 x dP6
    # has weights 2 and 6 at vertices and 2 on six edges.
    dim, points = IDENTITY_CONFIGURATIONS[name]
    aset = validate_aset(dim, points)
    table = fold_table(aset.points, aset.dim)
    lhs = [0] * aset.dim
    for sigma in lower_hull_triangulation(table, placing_lifts(table)):
        for i in sigma:
            lhs = [t + abs(table[sigma][0]) * x for t, x in zip(lhs, aset.points[i])]
    rhs = [0] * aset.dim
    for f in faces(aset):  # the rank row off the table, B beta off the face lattice
        weight = rank_k0_face(aset, f, table).k0_rank
        rhs = [t + weight * x for t, x in zip(rhs, predicted_multidegree(aset, f))]
    assert lhs == rhs


@pytest.mark.parametrize("name, triangulations, edges", [("P3", 2, 1), ("P1xP2", 3, 3), ("P1xP1xP1", 4, 6)])
def test_verify_theorem_at_d4_fan_polytopes(name, triangulations, edges):
    # the whole pipeline at d = 4: the walk, E_A, every edge's identity and
    # the Newton polytope of E_A against the secondary polytope
    aset = validate_aset(4, FANS_D4[name])
    sp = secondary_polytope(aset)
    rep = verify_theorem(aset, sp=sp)
    assert rep.status == "pass"
    assert (rep.triangulation_count, len(rep.edges)) == (triangulations, edges)
    assert all(e.status == "ok" and e.zf_rank == e.rhs for e in rep.edges)
    assert newton_polytope_check(rep.edet.e_a, sp).ok


def test_full_dimensional_circuit_rank(a3, a3_secondary):
    # when the edge circuit spans the ambient lattice the edge rank equals
    # the index of the circuit sublattice
    e2 = find_edge(a3_secondary, [(0, 4)], [(0, 2), (2, 4)])
    lat = span([a3.points[i] for i in e2.circuit.indices], 2)
    assert lat.rank == 2
    assert rank_k0_edge(a3_secondary, e2).zf_rank == prod(lat.diag) == 2


def test_full_dimensional_circuit_rank_index_three():
    aset = validate_aset(2, [(1, 0), (1, 1), (1, 3), (1, 6)])
    sp = secondary_polytope(aset)
    rep = verify_theorem(aset, sp=sp)
    assert rep.status == "pass"
    hits = 0
    for e in rep.edges:
        if e.circuit_indices == (0, 2, 3):
            assert e.circuit_spans and e.circuit_index == 3
            assert e.zf_rank == 3
            hits += 1
    assert hits == 1


def test_edge_indices_match_the_smith_normal_form_reference(
    a3, kp2, f2, a3_secondary, kp2_secondary, f2_secondary, grid_secondary
):
    # the volumes of the flip's simplices give every index one SNF gives;
    # the circuit's own index is compared too, not only the edge rank
    for aset, sp in ((a3, a3_secondary), (kp2, kp2_secondary), (f2, f2_secondary)):
        rep = verify_theorem(aset, sp=sp)
        for e in rep.edges:
            ed = edge_data(sp, *e.vertex_pair)
            expected = edge_indices_by_snf(aset, ed)
            assert (e.per_j_indices, e.zf_rank, e.circuit_index) == expected
            assert e.circuit_spans == (expected[2] is not None)
    grid = grid_secondary.aset
    for i, j in grid_secondary.edges:
        ed = edge_data(grid_secondary, i, j)
        assert tuple(rank_k0_edge(grid_secondary, ed)) == edge_indices_by_snf(grid, ed)


def test_edge_ranks_match_the_gkz_vector_difference(
    a3, kp2, f2, a3_secondary, kp2_secondary, f2_secondary, grid_secondary
):
    # along an edge the GKZ vectors differ by the edge rank times the
    # circuit relation written over all points (GKZ 1994, ch. 7): a check
    # of rank_k0_edge that reads neither its separating sets nor the
    # volumes it takes the gcd of
    rng = random.Random(271828)  # the acceptance corpus
    sps = [a3_secondary, kp2_secondary, f2_secondary, grid_secondary]
    sps += [secondary_polytope(make_random_aset(rng)) for _ in range(100)]
    edges = 0
    for sp in sps:
        for i, j in sp.edges:
            ed = edge_data(sp, i, j)
            rel = [0] * sp.aset.n
            for k, c in zip(ed.circuit.indices, ed.circuit.relation):
                rel[k] = c
            z = rank_k0_edge(sp, ed).zf_rank
            diff = [x - y for x, y in zip(sp.phis[i], sp.phis[j])]
            assert diff in ([z * c for c in rel], [-z * c for c in rel]), (sp.aset.points, i, j)
            edges += 1
    assert edges == 2275


def test_staircase_cross_check_is_live(kp2, monkeypatch):
    # the placing and reversed placing triangulations share one view on the
    # configuration's fold table; losing a simplex from either one must be
    # caught
    vertex = face_by_indices(kp2, (1,))
    table = fold_table(kp2.points, kp2.dim)
    assert rank_k0_face(kp2, vertex, table).u == 2
    for dropped in (0, 1):
        calls = []

        def lossy(table, lifts):
            simplices = lower_hull_triangulation(table, lifts)
            calls.append(lifts)
            return simplices[1:] if len(calls) == dropped + 1 else simplices

        monkeypatch.setattr(ktheory, "lower_hull_triangulation", lossy)
        with pytest.raises(RankInconsistency, match="face rank mismatch"):
            rank_k0_face(kp2, vertex, table)
        assert len(calls) == 2


def test_verify_theorem_refuses_another_configurations_secondary_polytope(a3, kp2, f2, f2_secondary):
    # kp2 and f2 share d = 3; a3 has the same n as f2
    for aset in (a3, kp2):
        with pytest.raises(ValueError, match="another configuration"):
            verify_theorem(aset, sp=f2_secondary)
    # an equal configuration validated afresh is accepted
    again = validate_aset(f2.dim, f2.points)
    assert verify_theorem(again, sp=f2_secondary).status == "pass"


def test_edet_exponents_match_face_ranks(a3, kp2, f2):
    from gkzrank.discriminant import principal_a_determinant

    for aset in (a3, kp2, f2):
        rows = principal_a_determinant(aset).factors
        for row in rows:
            assert row.exponent == rank_row(aset, row.face).k0_rank


def test_verify_theorem_budget_skip(a3):
    from gkzrank.elimination import Budget

    rep = verify_theorem(a3, budget=Budget(seconds=0.0))
    assert rep.status == "budget"
    assert all(e.status == "skipped" for e in rep.edges)
    assert all("budget" in e.detail for e in rep.edges)


def _reference_bounded_facets(images, q):
    """Bounded facets of conv(ws) + cone(ws) by exhaustive search: every
    q-subset of the points (w, 1) and rays (w, 0) that spans a hyperplane
    supporting the homogenization cone gives a facet, bounded exactly when
    no ray lies on it."""
    gens = [(w + (1,), i) for i, w in images]
    gens += [(w + (0,), None) for w in sorted({w for _, w in images})]
    supports = set()
    for subset in combinations(range(len(gens)), q):
        rows = [list(gens[k][0]) for k in subset]
        if smith_normal_form(rows).rank != q:
            continue
        (normal,) = kernel_basis(rows)
        vals = [sum(a * b for a, b in zip(normal, g)) for g, _ in gens]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            continue
        support = [gens[k][1] for k, v in enumerate(vals) if v == 0]
        if None not in support:
            supports.add(frozenset(support))
    maximal = [s for s in supports if not any(s < t for t in supports)]
    return sorted(tuple(sorted(s)) for s in maximal)


def _reference_staircase(aset, face):
    """(u, ray_indices, bounded_facets) from the exhaustive facet search."""
    proj = project_mod_face(aset, face)
    q = proj.quotient_rank
    if q == 0:
        return 1, (), ()
    if q == 1:
        m = min(abs(w[0]) for _, w in proj.images)
        rays = tuple(i for i, w in proj.images if abs(w[0]) == m)
        return m, rays, (rays,)
    ids = [i for i, _ in proj.images]
    ws = [w for _, w in proj.images]
    facets = _reference_bounded_facets(proj.images, q)
    u = sum(subset_volume(ws, [ids.index(i) for i in f], q) for f in facets)
    return u, tuple(sorted({i for f in facets for i in f})), tuple(facets)


@settings(max_examples=40, deadline=None)
@given(height_one_asets())
def test_staircase_matches_facet_search(aset):
    # both staircases, the view on the configuration's fold table and the
    # projection's own table, against the exhaustive facet search
    table = fold_table(aset.points, aset.dim)
    for f in faces(aset):
        ref = _reference_staircase(aset, f)
        assert _staircase(aset, f, table, _face_simplex(f, table)[0]) == ref
        assert staircase_by_projection(project_mod_face(aset, f)) == ref


def test_rank_rows_match_the_projection_reference(a3, kp2, f2, grid):
    # whole rank rows read off the configuration's one fold table against
    # the route that projects each face by a Smith normal form and builds
    # its images' own fold table, on every face, quotient ranks 0 to 3
    rng = random.Random(271828)  # the acceptance corpus
    asets = [a3, kp2, f2, grid] + [make_random_aset(rng) for _ in range(100)]
    asets += [validate_aset(4, points) for points in FANS_D4.values()]
    asets += four_dimensional_draws()
    rows = 0
    ranks = set()
    for aset in asets:
        table = fold_table(aset.points, aset.dim)
        for f in faces(aset):
            assert rank_k0_face(aset, f, table) == rank_row_by_projection(aset, f), (aset.points, f.indices)
            ranks.add(aset.dim - 1 - f.dim)
            rows += 1
    assert rows == 1667
    assert ranks == {0, 1, 2, 3}


@settings(max_examples=40, deadline=None)
@given(height_one_asets())
def test_rank_rows_match_the_projection_reference_on_random_sets(aset):
    table = fold_table(aset.points, aset.dim)
    for f in faces(aset):
        assert rank_k0_face(aset, f, table) == rank_row_by_projection(aset, f)


@pytest.mark.parametrize("dim, points, indices, q, point", [
    # a3's points 0 and 2 span the plane, which holds every other point
    (2, [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], (0, 2), 0, 1),
    # f2's points 2 and 4 span a plane through point 0
    (3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 2, 1), (0, -1, 1)], (2, 4), 1, 0),
    # two opposite rays of the fan of P1 x P1 x P1 span a plane through point 0
    (4, FANS_D4["P1xP1xP1"], (1, 2), 2, 0),
])
def test_a_point_off_a_face_in_its_span_is_refused(dim, points, indices, q, point):
    # a Face record of a subset that is not a face: a point off it lies in
    # no full simplex that completes the subset's points
    aset = validate_aset(dim, points)
    face = Face(indices=indices, support=(0,) * dim, offset=0, dim=len(indices) - 1)
    table = fold_table(aset.points, aset.dim)
    assert aset.dim - len(_face_simplex(face, table)[0]) == q
    with pytest.raises(RuntimeError, match="point %d off the face lies in the face's span" % point):
        rank_k0_face(aset, face, table)
    with pytest.raises(RuntimeError, match="in the face span"):
        project_mod_face(aset, face)


def test_a_facet_whose_points_lie_on_both_sides_is_not_pointed(a3):
    # a3's middle point is no face: the points off it lie on both sides of
    # its line, which the q = 1 images show as values of both signs
    face = Face(indices=(2,), support=(0, 0), offset=0, dim=0)
    with pytest.raises(RankInconsistency, match="not pointed"):
        rank_k0_face(a3, face, fold_table(a3.points, a3.dim))
    with pytest.raises(RankInconsistency, match="not pointed"):
        rank_row_by_projection(a3, face)
