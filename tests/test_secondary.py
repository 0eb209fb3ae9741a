import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkzrank import linprog, secondary
from gkzrank.polytope import (
    InvalidConfiguration,
    MarkedPolytope,
    extreme_rays,
    faces,
    fold_table,
    lower_hull_cells,
    total_volume,
    validate_aset,
)
from gkzrank.secondary import (
    NotAnEdge,
    TriangulationError,
    _certify_lifting,
    _flip,
    _ridge_sides,
    _secondary_cone,
    _walls,
    check_triangulation,
    edge_data,
    hull_edges,
    is_regular,
    normal_cone_sample,
    placing_triangulation,
    secondary_polytope,
)

from conftest import make_random_aset
from fold_reference import (
    circuit_from_points,
    det_int,
    facets_by_rank,
    fold_table_by_adjugates,
    listed,
    reference_fold_functionals,
    ridge_sides_by_det,
)
from hull_reference import (
    circuit_by_cell_search,
    facet_vertex_sets,
    hull_edges_by_lp,
    hull_edges_by_rank,
    hull_vertex_indices,
    lower_hull_cells_symbolic,
    separating_sets_by_scan,
)
from projection_reference import project_mod_face
from secondary_lp_reference import (
    facets_of_secondary_cone,
    flip_by_lift,
    flip_walk_by_lp,
    is_regular_by_lp,
    proper_intersection_by_lp,
    wall_points,
)


def tri_index(sp, simplices):
    target = tuple(sorted(tuple(sorted(s)) for s in simplices))
    for k, t in enumerate(sp.triangulations):
        if t.simplices == target:
            return k
    raise AssertionError("triangulation %r not found" % (target,))


def test_placing_a3(a3):
    tri = placing_triangulation(a3)
    assert tri.simplices == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert tri.lifting is not None


def test_placing_segment():
    seg = validate_aset(2, [(1, 0), (1, 1)])
    tri = placing_triangulation(seg)
    assert tri.simplices == ((0, 1),)


def test_placing_kp2_uses_interior_point(kp2):
    tri = placing_triangulation(kp2)
    assert any(0 in s for s in tri.simplices)


def test_counts(a3_secondary, kp2_secondary, f2_secondary):
    assert len(a3_secondary.triangulations) == 8
    assert len(kp2_secondary.triangulations) == 2
    assert len(f2_secondary.triangulations) == 4


def test_secondary_polytope_shapes(a3_secondary, kp2_secondary):
    assert a3_secondary.dim == 3
    assert len(a3_secondary.edges) == 12
    assert kp2_secondary.dim == 1
    assert kp2_secondary.phis == ((0, 3, 3, 3), (3, 2, 2, 2))


def test_single_vertex_case():
    seg = validate_aset(2, [(1, 0), (1, 1)])
    sp = secondary_polytope(seg)
    assert sp.dim == 0
    assert len(sp.triangulations) == 1
    assert sp.edges == ()


def test_characteristic_function_sums(a3_secondary, kp2_secondary, f2_secondary):
    for sp in (a3_secondary, kp2_secondary, f2_secondary):
        aset = sp.aset
        expected = aset.dim * total_volume(aset)
        for phi in sp.phis:
            assert sum(phi) == expected


def test_all_a3_triangulations_regular(a3, a3_secondary):
    for tri in a3_secondary.triangulations:
        res = is_regular(a3, tri)
        assert res.regular
        assert res.lifting is not None


def test_is_regular_rejects_non_triangulations(a3):
    with pytest.raises(TriangulationError):
        is_regular(a3, [(0, 2), (1, 4)])  # overlapping, not face-to-face
    with pytest.raises(TriangulationError):
        is_regular(a3, [(0, 1), (1, 2)])  # volume deficient
    with pytest.raises(TriangulationError):
        is_regular(a3, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])  # overcomplete
    with pytest.raises(TriangulationError):
        is_regular(a3, [(1, 2), (1, 3), (2, 3)])  # right volume and ridge counts, folded


def test_bad_simplex_indices_are_rejected(a3):
    # negative indices wrapped, floats were truncated, booleans and strings
    # were read as ints, and indices past the end raised IndexError
    table = fold_table(a3.points, a3.dim)
    for bad in ([(0, -1)], [(0.9, 4.2)], [(0, 7)], [(False, 4)], [(0, "4")]):
        with pytest.raises(TriangulationError):
            check_triangulation(a3, table, bad)
        with pytest.raises(TriangulationError):
            is_regular(a3, bad)
    assert check_triangulation(a3, table, [(4, 0)]) == ((0, 4),)


def test_flip_skeleton_equals_hull_skeleton(a3_secondary, kp2_secondary, f2_secondary):
    for sp in (a3_secondary, kp2_secondary, f2_secondary):
        assert hull_edges(sp) == sp.edges
        assert hull_edges_by_lp(sp) == sp.edges
        assert hull_edges_by_rank(sp) == sp.edges


def test_hull_skeleton_matches_rank_reference_on_corpus_prefix():
    # corpus instances 0-19 of the acceptance corpus (seed 271828)
    rng = random.Random(271828)
    for _ in range(20):
        sp = secondary_polytope(make_random_aset(rng))
        assert hull_edges(sp) == hull_edges_by_rank(sp) == sp.edges


def test_grid_hull_skeleton_and_sampled_edge_normals(grid_secondary):
    # the 3x3 grid: 387 regular triangulations, 1,190 flips
    sp = grid_secondary
    assert (len(sp.phis), len(sp.edges)) == (387, 1190)
    assert hull_edges(sp) == sp.edges
    for i, j in random.Random(5).sample(sp.edges, 50):
        psi = edge_data(sp, i, j).psi
        vals = [_dot(psi, phi) for phi in sp.phis]
        assert [k for k, v in enumerate(vals) if v == max(vals)] == [i, j]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@st.composite
def small_asets(draw):
    """Height-one configurations with d = 2 or 3 and at most d + 3 points."""
    d = draw(st.sampled_from([2, 3]))
    box = [(x,) for x in range(-2, 4)] if d == 2 else list(product(range(-1, 3), repeat=2))
    pts = draw(st.lists(st.sampled_from(box), min_size=d + 1, max_size=d + 3, unique=True))
    try:
        return validate_aset(d, [p + (1,) for p in pts])
    except InvalidConfiguration:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(small_asets())
def test_hull_description_matches_lp_and_brute_force(aset):
    sp = secondary_polytope(aset)
    # the skeleton from the facets equals the LP skeleton and the flip graph,
    # and reads nothing the flip walk produced
    assert hull_edges(sp) == hull_edges_by_lp(sp) == hull_edges_by_rank(sp) == sp.edges
    assert hull_edges(sp._replace(edges=(), triangulations=(), dim=None)) == sp.edges
    # double description finds exactly the facets a brute-force search finds
    assert all(sp.hull.contains(phi) for phi in sp.phis)
    tight = [
        frozenset(k for k, phi in enumerate(sp.phis) if _dot(a, phi) == b)
        for a, b in sp.hull.facets
    ]
    # and its incidence table records exactly the phis on each facet
    assert [frozenset(k for k in range(len(sp.phis)) if on >> k & 1) for on in sp.hull.incidence] == tight
    assert len(set(tight)) == len(tight)
    assert set(tight) == facet_vertex_sets(sp.phis, sp.dim)
    # each edge's psi exposes exactly the edge, with the LP psi's subdivision
    for i, j in sp.edges:
        ed = edge_data(sp, i, j)
        vals = [_dot(ed.psi, phi) for phi in sp.phis]
        assert vals[i] == vals[j]
        assert all(v < vals[i] for k, v in enumerate(vals) if k not in (i, j))
        lp_psi = normal_cone_sample(sp, i, j)
        assert ed.cells == lower_hull_cells_symbolic(sp.table, [-v for v in lp_psi])
        # the circuit read from the fold table is the kernel's primitive relation
        assert ed.circuit == circuit_from_points(aset, ed.circuit.indices)


def test_edge_data_a3_f1(a3_secondary):
    i = tri_index(a3_secondary, [(0, 4)])
    j = tri_index(a3_secondary, [(0, 1), (1, 4)])
    ed = edge_data(a3_secondary, i, j)
    assert ed.circuit.indices == (0, 1, 4)
    assert ed.circuit.relation == (3, -4, 1)
    assert ed.separating_sets == ((),)
    assert ed.common_simplices == ()
    assert [m.marks for m in ed.subdivision] == [(0, 1, 4)]
    assert [m.vertices_hull for m in ed.subdivision] == [(0, 4)]


def test_edge_data_a3_f2(a3_secondary):
    i = tri_index(a3_secondary, [(0, 4)])
    j = tri_index(a3_secondary, [(0, 2), (2, 4)])
    ed = edge_data(a3_secondary, i, j)
    assert ed.circuit.indices == (0, 2, 4)
    assert ed.circuit.relation == (1, -2, 1)
    assert ed.separating_sets == ((),)


def test_edge_data_symmetry(a3_secondary):
    i = tri_index(a3_secondary, [(0, 4)])
    j = tri_index(a3_secondary, [(0, 1), (1, 4)])
    assert edge_data(a3_secondary, i, j) == edge_data(a3_secondary, j, i)


def test_edge_data_f2_flop(f2_secondary):
    # the transition between the full fan and the weighted projective model
    i = tri_index(f2_secondary, [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)])
    j = tri_index(f2_secondary, [(0, 1, 3), (0, 1, 4), (0, 3, 4)])
    ed = edge_data(f2_secondary, i, j)
    assert ed.circuit.indices == (1, 2, 3)
    assert ed.circuit.relation == (1, -2, 1)
    assert ed.separating_sets == ((0,),)
    assert ed.common_simplices == ((0, 1, 4), (0, 3, 4))


def test_edge_subdivision_refined_by_endpoints(f2_secondary):
    # every endpoint simplex sits inside one subdivision cell
    for (i, j) in f2_secondary.edges:
        ed = edge_data(f2_secondary, i, j)
        cells = [set(m.marks) for m in ed.subdivision]
        for tri in ed.endpoints:
            for sigma in tri.simplices:
                assert any(set(sigma) <= cell for cell in cells)


def _edge_walks(a3, kp2, f2, grid_secondary):
    """The secondary polytopes of the built-ins, corpus instances 0-19
    (seed 271828) and the 3x3 grid."""
    rng = random.Random(271828)
    corpus = [make_random_aset(rng) for _ in range(20)]
    return [secondary_polytope(aset) for aset in (a3, kp2, f2, *corpus)] + [grid_secondary]


def test_subdivision_vertices_match_the_hull_reference(a3, kp2, f2, grid_secondary):
    # every cell of every edge of the built-ins, corpus instances 0-19
    # (seed 271828) and the 3x3 grid: the vertices read off the circuit are
    # those of the cell's own double description
    cells = dropped = 0
    for sp in _edge_walks(a3, kp2, f2, grid_secondary):
        for i, j in sp.edges:
            ed = edge_data(sp, i, j)
            assert ed.subdivision == tuple(
                MarkedPolytope(vertices_hull=hull_vertex_indices(sp.aset.points, c), marks=c)
                for c in ed.cells
            )
            cells += len(ed.cells)
            dropped += sum(m.vertices_hull != m.marks for m in ed.subdivision)
    assert (cells, dropped) == (6911, 861)


def test_edge_cells_from_the_endpoints_rows_match_the_full_scan(a3, kp2, f2, grid_secondary):
    # every edge of the same walks: the cells read on the rows of the
    # endpoints' simplices are the lower hull of -psi on the whole table
    edges = 0
    for sp in _edge_walks(a3, kp2, f2, grid_secondary):
        for i, j in sp.edges:
            ed = edge_data(sp, i, j)
            assert ed.cells == lower_hull_cells(sp.table, [-v for v in ed.psi])
            edges += 1
    assert edges == 1417


def test_flip_circuits_and_separating_sets_match_the_cells_and_the_scan(a3, kp2, f2, grid_secondary):
    # every edge of the built-ins, corpus instances 0-99 (seed 271828) and
    # the 3x3 grid, each pair in both orders: the circuit (relation and its
    # sign included, as Circuit equality compares both fields) and the
    # separating sets taken from the edge's flip are those read off its
    # cells and off its endpoints' simplices
    rng = random.Random(271828)
    corpus = [make_random_aset(rng) for _ in range(100)]
    walks = [secondary_polytope(aset) for aset in (a3, kp2, f2, *corpus)] + [grid_secondary]
    edges = 0
    for sp in walks:
        for i, j in sp.edges:
            for pair in ((i, j), (j, i)):
                ed = edge_data(sp, *pair)
                circuit = circuit_by_cell_search(sp.table, ed.cells, sp.aset.dim)
                assert ed.circuit == circuit
                assert ed.separating_sets == separating_sets_by_scan(*ed.endpoints, circuit)
            edges += 1
    assert edges == 2275


def test_a_flip_record_that_disagrees_with_the_cells_is_an_error(f2_secondary):
    # edge (0, 2) of f2 has the circuit (0, 2, 4) and the separating sets
    # (1,) and (3,): a record missing one of those, or no record at all,
    # raises; a negated relation passes edge_data's own checks, and only the
    # cell search above sees it
    sp = f2_secondary
    circuit, seps = sp.flips[0, 2]
    assert (circuit, seps) == (((0, 2, 4), (2, -1, -1)), ((1,), (3,)))
    for record, message in (
        ((circuit, seps[:1]), "from the subdivision and from the flip disagree"),
        ((circuit._replace(indices=(0, 2), relation=(2, -1)), seps), "disagree"),
    ):
        with pytest.raises(RuntimeError, match=message):
            edge_data(sp._replace(flips={**sp.flips, (0, 2): record}), 0, 2)
    negated = circuit._replace(relation=tuple(-x for x in circuit.relation))
    ed = edge_data(sp._replace(flips={**sp.flips, (0, 2): (negated, seps)}), 2, 0)
    assert ed.circuit != circuit_by_cell_search(sp.table, ed.cells, sp.aset.dim) == circuit
    for i, j in sp.edges:
        with pytest.raises(RuntimeError, match="no flip joins them"):
            edge_data(sp._replace(flips={}), j, i)


# sha256 of the canonical JSON of the grid's secondary polytope and of the
# data of each of its edges
GRID_DIGEST = "c375c4a2b3a4b2b6b84fbc97ed03be77fa9c94deccdf14751c0f0441b92c5b82"


def test_grid_records_are_pinned_by_a_digest(grid_secondary):
    sp = grid_secondary
    records = [
        [sp.triangulations, sp.phis, sp.edges, sp.hull],
        [edge_data(sp, i, j) for i, j in sp.edges],
    ]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == GRID_DIGEST


def test_separating_set_simplex_property(f2_secondary):
    for (i, j) in f2_secondary.edges:
        ed = edge_data(f2_secondary, i, j)
        cset = set(ed.circuit.indices)
        sims = set(ed.endpoints[0].simplices) | set(ed.endpoints[1].simplices)
        for jset in ed.separating_sets:
            hit = False
            for k in ed.circuit.indices:
                sigma = tuple(sorted((cset - {k}) | set(jset)))
                if sigma in sims:
                    hit = True
            assert hit


def test_not_an_edge(a3_secondary):
    i = tri_index(a3_secondary, [(0, 4)])
    j = tri_index(a3_secondary, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotAnEdge):
        edge_data(a3_secondary, i, j)


def test_normal_cone_sample_conditions(f2_secondary):
    phis = f2_secondary.phis
    for (i, j) in f2_secondary.edges:
        psi = normal_cone_sample(f2_secondary, i, j)
        vi = sum(p * x for p, x in zip(psi, phis[i]))
        vj = sum(p * x for p, x in zip(psi, phis[j]))
        assert vi == vj
        for k in range(len(phis)):
            if k in (i, j):
                continue
            assert sum(p * x for p, x in zip(psi, phis[k])) < vi


def test_stated_weight_family_for_f2(f2_secondary):
    # the family (u, 1, 1, 1, 0) exposes one flop edge for u above one half
    # and the other for u below one half
    phis = f2_secondary.phis

    def exposed(u):
        vals = [sum(p * x for p, x in zip((u, 1, 1, 1, 0), phi)) for phi in phis]
        top = max(vals)
        return tuple(k for k, v in enumerate(vals) if v == top)

    hi = exposed(Fraction(3, 4))
    lo = exposed(Fraction(1, 4))
    assert hi != lo
    assert hi in f2_secondary.edges and lo in f2_secondary.edges
    full = tri_index(f2_secondary, [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)])
    assert full in hi


def test_circuit_type(f2):
    c = circuit_from_points(f2, (1, 2, 3))
    assert c.plus == (1, 3)
    assert c.minus == (2,)


NESTED_TRIANGLES = [(0, 0, 1), (4, 0, 1), (0, 4, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)]
SPIRAL = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5), (3, 4, 5)]


def test_spiral_triangulation_is_refuted():
    # the classic nested-triangles configuration has two non-regular
    # (spiral) triangulations; the strict LP must refute them with a
    # certificate of infeasibility
    aset = validate_aset(3, NESTED_TRIANGLES)
    res = is_regular(aset, SPIRAL)
    assert not res.regular
    assert res.lifting is None
    assert res.refutation is not None
    assert all(v >= 0 for v in res.refutation)
    mirror = [tuple(sorted({0: 0, 1: 2, 2: 1, 3: 3, 4: 5, 5: 4}[i] for i in s)) for s in SPIRAL]
    assert not is_regular(aset, mirror).regular


def _check_refutation(aset, sims, refutation):
    """y >= 0, y != 0 and sum_k y_k c_k = 0 over the walls c_k of T."""
    folds = _walls(aset, fold_table(aset.points, aset.dim), sims)
    assert len(refutation) == len(folds)
    assert all(isinstance(y, int) and y >= 0 for y in refutation) and any(refutation)
    assert all(sum(y * c[i] for y, c in zip(refutation, folds)) == 0 for i in range(aset.n))


def _full_simplex_sets(aset):
    """Every set of full simplices whose normalized volumes sum to vol(Q)."""
    full = [(s, abs(det_int([aset.points[i] for i in s]))) for s in combinations(range(aset.n), aset.dim)]
    full = [(s, v) for s, v in full if v]
    out = []

    def extend(start, chosen, left):
        if left == 0:
            out.append(tuple(chosen))
        for t in range(start, len(full)):
            if full[t][1] <= left:
                extend(t + 1, chosen + [full[t][0]], left - full[t][1])

    extend(0, [], total_volume(aset))
    return out


def test_triangulation_and_regularity_checks_match_the_lp_references():
    aset = validate_aset(3, NESTED_TRIANGLES)
    table = fold_table(aset.points, aset.dim)
    sets = _full_simplex_sets(aset)
    assert len(sets) == 4797
    spirals = [
        tuple(sorted(tuple(sorted(perm[i] for i in s)) for s in SPIRAL))
        for perm in ({i: i for i in range(6)}, {0: 0, 1: 2, 2: 1, 3: 3, 4: 5, 5: 4})
    ]
    tris = [t.simplices for t in secondary_polytope(aset).triangulations] + spirals
    assert set(tris) <= set(sets) and len(set(tris)) == 18
    # the ridge test accepts exactly what the pairwise LP accepts
    for sims in tris + sets[::10]:
        try:
            accepted = check_triangulation(aset, table, sims) == sims
        except TriangulationError:
            accepted = False
        assert accepted == all(proper_intersection_by_lp(aset, a, b) for a, b in combinations(sims, 2))
        assert accepted == (sims in tris)
    # the same verdicts as the strict-feasibility LP over every fold and
    # over the walls alone, and on both spirals a refutation over the walls
    # that is exact and a positive multiple of the LP's over the same walls
    for sims in tris:
        res = is_regular(aset, sims)
        lp_lifting, lp_refutation = is_regular_by_lp(aset, sims, _walls(aset, table, sims))
        all_folds = is_regular_by_lp(aset, sims, reference_fold_functionals(aset, sims))[0]
        assert res.regular == (lp_lifting is not None) == (all_folds is not None) == (sims not in spirals)
        if res.regular:
            assert all(isinstance(x, int) for x in res.lifting)
            assert lower_hull_cells(table, res.lifting) == sims
        else:
            assert res.lifting is None
            _check_refutation(aset, sims, res.refutation)
            scale = max(res.refutation) / max(lp_refutation)
            assert res.refutation == tuple(scale * y for y in lp_refutation)


def test_enumeration_skips_non_regular():
    # 18 triangulations exist, exactly the two spirals are non-regular
    aset = validate_aset(3, NESTED_TRIANGLES)
    sp = secondary_polytope(aset)
    assert len(sp.triangulations) == 16
    keys = [t.simplices for t in sp.triangulations]
    assert tuple(sorted(SPIRAL)) not in keys
    assert hull_edges(sp) == sp.edges


def _check_cones_against_lp(aset):
    """Every secondary cone of the walk, and the walk itself, against LP."""
    sp = secondary_polytope(aset)
    for tri in sp.triangulations:
        walls, lifting, facets = _secondary_cone(aset, sp.table, tri.simplices)
        # the double description keeps exactly the walls the LP finds irredundant
        assert facets == facets_of_secondary_cone(aset, walls)
        points = wall_points(aset, sp.table, tri.simplices)
        for k, w in points.items():
            assert _dot(walls[k], w) == 0
            assert all(_dot(walls[i], w) > 0 for i in points if i != k)
        assert all(_dot(c, lifting) > 0 for c in reference_fold_functionals(aset, tri.simplices))
        assert tri.lifting == lifting
        assert lower_hull_cells(sp.table, lifting) == tri.simplices
    tris, edges = flip_walk_by_lp(aset)
    keys = [t.simplices for t in sp.triangulations]
    assert set(keys) == tris
    assert {tuple(sorted((keys[i], keys[j]))) for i, j in sp.edges} == edges
    return sp


@settings(max_examples=30, deadline=None)
@given(small_asets())
def test_secondary_cones_match_the_lp_walk(aset):
    _check_cones_against_lp(aset)


def test_secondary_cones_edge_cases(kp2):
    # the segment has no fold: the cone is everything, lifted by zero
    seg = validate_aset(2, [(1, 0), (1, 1)])
    sp = _check_cones_against_lp(seg)
    assert _secondary_cone(seg, sp.table, sp.triangulations[0].simplices) == ([], (0, 0), [])
    # kp2: modulo affine functions each cone is a half-line, one fold, one wall
    sp = _check_cones_against_lp(kp2)
    for tri in sp.triangulations:
        folds, _, facets = _secondary_cone(kp2, sp.table, tri.simplices)
        assert len(folds) == 1 and facets == [0]
        assert wall_points(kp2, sp.table, tri.simplices) == {0: (0,) * kp2.n}
    # nested triangles: the walk never reaches the two spirals
    sp = _check_cones_against_lp(validate_aset(3, NESTED_TRIANGLES))
    assert len(sp.triangulations) == 16
    assert tuple(sorted(SPIRAL)) not in [t.simplices for t in sp.triangulations]


def _check_walls_against_every_fold(sp) -> int:
    """Each cone of the walk from T's walls and from every fold of T, the
    reference (extreme_rays over reference_fold_functionals): the same
    extreme rays, the same lifting, their sum, and the same facet
    functionals.  Returns the number of cones."""
    aset = sp.aset
    for tri in sp.triangulations:
        sims = tri.simplices
        walls, lifting, facets = _secondary_cone(aset, sp.table, sims)
        folds = reference_fold_functionals(aset, sims)
        assert set(walls) <= set(folds)
        off = [i for i in range(aset.n) if i not in sims[0]]
        rays = [sorted(h for h, _ in extreme_rays([[c[i] for i in off] for c in rows])) if rows else []
                for rows in (walls, folds)]
        assert rays[0] == rays[1]
        total = dict(zip(off, map(sum, zip(*rays[1]))))
        assert lifting == tuple(total.get(i, 0) for i in range(aset.n))
        assert {walls[k] for k in facets} == {folds[k] for k in facets_by_rank(aset, folds, sims)}
    return len(sp.triangulations)


def test_walls_cut_out_the_cone_of_every_fold(a3, kp2, f2, grid_secondary):
    # the walk configurations and the 3 x 3 grid
    walks = [secondary_polytope(aset) for aset in _walk_configurations(a3, kp2, f2)]
    assert sum(_check_walls_against_every_fold(sp) for sp in walks + [grid_secondary]) == 1355


@settings(max_examples=30, deadline=None)
@given(small_asets())
def test_walls_cut_out_the_cone_of_every_fold_on_small_configurations(aset):
    _check_walls_against_every_fold(secondary_polytope(aset))


def test_lifting_certificate_refuses_a_zero_fold_and_a_missing_simplex(a3, kp2, f2):
    # each walk lifting passes; a point on a wall of its cone (one fold
    # zero) fails, and so does T with one simplex left out, whose folds are
    # still positive on the lifting but whose volume falls short of vol(Q)
    refused = 0
    for aset in (a3, kp2, f2, validate_aset(3, NESTED_TRIANGLES)):
        sp = secondary_polytope(aset)
        volume = total_volume(aset)
        for tri in sp.triangulations:
            folds = reference_fold_functionals(aset, tri.simplices)
            _certify_lifting(sp.table, tri.simplices, tri.lifting, volume)
            for w in wall_points(aset, sp.table, tri.simplices).values():
                assert min(_dot(c, w) for c in folds) == 0
                with pytest.raises(RuntimeError, match="fails to induce"):
                    _certify_lifting(sp.table, tri.simplices, w, volume)
                refused += 1
            for k in range(len(tri.simplices)):
                short = tri.simplices[:k] + tri.simplices[k + 1:]
                short_folds = reference_fold_functionals(aset, short)
                assert all(_dot(c, tri.lifting) > 0 for c in short_folds)
                with pytest.raises(RuntimeError, match="fails to induce"):
                    _certify_lifting(sp.table, short, tri.lifting, volume)
                refused += 1
    assert refused == 198


def test_flip_walk_and_edge_data_solve_no_lp(monkeypatch, a3, kp2, f2):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(secondary, "solve_lp", no_lp)
    monkeypatch.setattr(linprog, "solve_lp", no_lp)
    nested = validate_aset(3, NESTED_TRIANGLES)
    for aset in (a3, kp2, f2, nested):
        sp = secondary_polytope(aset)
        assert sp.edges
        for i, j in sp.edges:
            assert edge_data(sp, i, j).subdivision
        for tri in sp.triangulations:
            assert check_triangulation(aset, sp.table, tri.simplices) == tri.simplices
            assert is_regular(aset, tri).regular
    refuted = is_regular(nested, SPIRAL)
    assert not refuted.regular
    sims = check_triangulation(nested, fold_table(nested.points, nested.dim), SPIRAL)
    _check_refutation(nested, sims, refuted.refutation)


def test_fold_tight_on_enough_rays_need_not_be_a_facet():
    # modulo affine functions this cone has dimension 5; the wall below (of
    # the ridge (1, 2), between the simplices (1, 2, 3) and (1, 2, 7)) is
    # tight on four of its seven extreme rays, as many as a facet holds, but
    # they span only a three-dimensional face: another wall is tight on all
    # four and more, so the wall is not a facet
    points = [(-1, -1, 1), (-1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, -1, 1), (2, 1, 1), (2, 2, 1)]
    aset = validate_aset(3, points)
    sims = ((0, 1, 3), (0, 3, 5), (1, 2, 3), (1, 2, 7), (2, 3, 4), (2, 4, 7), (3, 4, 7), (3, 5, 6), (3, 6, 7))
    table = fold_table(aset.points, aset.dim)
    walls, _, facets = _secondary_cone(aset, table, sims)
    assert walls == _walls(aset, table, sims)
    k = walls.index((0, 3, -5, 1, 0, 0, 0, 1))
    off = [i for i in range(aset.n) if i not in sims[0]]
    rays = extreme_rays([[c[i] for i in off] for c in walls])
    assert (len(rays), sum(on >> k & 1 for _, on in rays)) == (7, 4)
    assert k not in facets
    assert facets == facets_of_secondary_cone(aset, walls)


def _walk_configurations(a3, kp2, f2):
    """The built-ins, the 100-instance acceptance corpus, 9 collinear points,
    the 2 x 4 grid and the nested triangles."""
    rng = random.Random(271828)  # the acceptance corpus
    corpus = [make_random_aset(rng) for _ in range(100)]
    collinear = validate_aset(2, [(1, k) for k in range(9)])
    grid = validate_aset(3, [(x, y, 1) for x in range(4) for y in range(2)])
    return [a3, kp2, f2, *corpus, collinear, grid, validate_aset(3, NESTED_TRIANGLES)]


def test_bistellar_flip_matches_the_lifted_lower_hull(a3, kp2, f2):
    # every wall of every walk: the flip on the wall's circuit is the
    # triangulation of the symbolic lift across the wall
    walls = 0
    for aset in _walk_configurations(a3, kp2, f2):
        sp = secondary_polytope(aset)
        for tri in sp.triangulations:
            folds = _secondary_cone(aset, sp.table, tri.simplices)[0]
            for k, w in wall_points(aset, sp.table, tri.simplices).items():
                assert _flip(tri.simplices, folds[k])[0] == flip_by_lift(sp.table, w, folds[k])
                walls += 1
    assert walls == 3644


def test_each_edge_is_flipped_once_from_its_first_endpoint(monkeypatch, a3, kp2, f2, grid):
    # the walk flips once per edge; from the other endpoint, the negated
    # wall is a facet of its cone and flips back to the first endpoint with
    # the same Circuit and separating sets, the edge's record
    flip = secondary._flip
    edges = 0
    for aset in _walk_configurations(a3, kp2, f2) + [grid]:
        calls = []

        def counted(sims, fold):
            calls.append((sims, fold, flip(sims, fold)))
            return calls[-1][2]

        monkeypatch.setattr(secondary, "_flip", counted)
        sp = secondary_polytope(aset)
        monkeypatch.setattr(secondary, "_flip", flip)
        assert len(calls) == len(sp.edges)
        index = {t.simplices: k for k, t in enumerate(sp.triangulations)}
        pairs = set()
        for first, fold, (later, circuit, seps) in calls:
            pair = tuple(sorted((index[first], index[later])))
            assert sp.flips[pair] == (circuit, seps)
            back = tuple(-x for x in fold)
            folds, _, facets = _secondary_cone(aset, sp.table, later)
            assert back in [folds[k] for k in facets]
            assert _flip(later, back) == (first, circuit, seps)
            pairs.add(pair)
        assert sorted(pairs) == list(sp.edges)
        edges += len(pairs)
    assert edges == 3012


def _walk_cones(a3, kp2, f2, grid_secondary):
    """(aset, simplices, walls, facets) for every secondary cone of the walk
    configurations and of the 3 x 3 grid."""
    walks = [secondary_polytope(aset) for aset in _walk_configurations(a3, kp2, f2)]
    for sp in walks + [grid_secondary]:
        for tri in sp.triangulations:
            folds, _, facets = _secondary_cone(sp.aset, sp.table, tri.simplices)
            yield sp.aset, tri.simplices, folds, facets


def test_extreme_ray_masks_on_the_secondary_cones(a3, kp2, f2, grid_secondary):
    # bit t of a ray's mask is set exactly when the ray is tight on wall t
    rays = 0
    for aset, sims, folds, _ in _walk_cones(a3, kp2, f2, grid_secondary):
        rows = [[c[i] for i in range(aset.n) if i not in sims[0]] for c in folds]
        for h, on in extreme_rays(rows) if rows else []:
            assert on == sum(1 << t for t, r in enumerate(rows) if _dot(r, h) == 0)
            rays += 1
    assert rays == 6032


def test_facets_by_maximal_masks_match_the_rank_rule(a3, kp2, f2, grid_secondary):
    # the walls whose tight rays are no other wall's proper subset are the
    # walls whose tight rays have rank one less than the cone's dimension
    cones = 0
    for aset, sims, folds, facets in _walk_cones(a3, kp2, f2, grid_secondary):
        assert facets == facets_by_rank(aset, folds, sims)
        cones += 1
    assert cones == 1355


def test_fold_table_matches_fold_relation(a3, kp2, f2, grid):
    # the table holds exactly the full simplices, in order, each with its
    # volume and the relation fold_relation gives for every point outside
    # it, in order: on the walk configurations, the 3 x 3 grid and every
    # image set of theirs that a staircase reads a table of (rank q >= 2)
    sets = 0
    for aset in _walk_configurations(a3, kp2, f2) + [grid]:
        projs = [project_mod_face(aset, face) for face in faces(aset)]
        images = [([w for _, w in p.images], p.quotient_rank) for p in projs if p.quotient_rank >= 2]
        for points, dim in [(aset.points, aset.dim)] + images:
            assert listed(fold_table(points, dim)) == listed(fold_table_by_adjugates(points, dim))
            sets += 1
    assert sets == 320


def test_ridge_sides_from_the_table_match_determinants(a3_secondary, kp2_secondary, f2_secondary):
    # for every ridge of every triangulation, the sides read off the table
    # row of a simplex containing it are the det_int sides times one sign
    def sign(x):
        return (x > 0) - (x < 0)

    ridges = 0
    for sp in (a3_secondary, kp2_secondary, f2_secondary):
        aset = sp.aset
        for tri in sp.triangulations:
            for sigma in tri.simplices:
                for k in range(aset.dim):
                    by_det = [sign(x) for x in ridge_sides_by_det(aset, sigma[:k] + sigma[k + 1:])]
                    common = by_det[sigma[k]]
                    assert common in (1, -1)
                    assert [sign(x) for x in _ridge_sides(sp.table, sigma, k, aset.n)] == [
                        common * x for x in by_det
                    ]
                    ridges += 1
    assert ridges == 82
