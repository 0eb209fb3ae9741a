import hashlib
import random
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings

from gkzrank import discriminant, elimination
from gkzrank.discriminant import (
    _PRIME_BOUND,
    MultiplicityError,
    _Echelon,
    _exact_row,
    _factors,
    _interpolation_eliminant,
    _pack,
    _primes,
    _resultant_eliminant,
    _unpack,
    circuit_discriminant,
    face_discriminant,
    face_local_exponents,
    multiplicity,
    newton_polytope_check,
    principal_a_determinant,
)
from gkzrank.elimination import Budget, BudgetExceeded, ExponentOverflow, InvalidBudget, _Clock
from gkzrank.lattice import kernel_basis, span
from gkzrank.polynomial import IntPolynomial
from gkzrank.polytope import InvalidConfiguration, faces, fold_table, h_representation, validate_aset
from gkzrank.secondary import NotAnEdge, edge_data, hull_edges, secondary_polytope

from buchberger import _groebner_eliminant
from conftest import four_dimensional_draws, height_one_asets, make_random_aset, singular_point_vector
from degree_formula import multidegree, predicted_degree, predicted_multidegree
from echelon_reference import ListEchelon
from fold_reference import circuit_from_points
from resultant_reference import resultant_by_sylvester, resultant_f_fprime
from test_elimination import QUARTIC_DISCRIMINANT


def face_by_indices(aset, indices):
    for f in faces(aset):
        if f.indices == tuple(indices):
            return f
    raise AssertionError


def find_edge(sp, simplices_a, simplices_b):
    key_a = tuple(sorted(tuple(sorted(s)) for s in simplices_a))
    key_b = tuple(sorted(tuple(sorted(s)) for s in simplices_b))
    ia = next(k for k, t in enumerate(sp.triangulations) if t.simplices == key_a)
    ib = next(k for k, t in enumerate(sp.triangulations) if t.simplices == key_b)
    return edge_data(sp, ia, ib)


def test_circuit_discriminant_a3(a3):
    d1 = circuit_discriminant(circuit_from_points(a3, (0, 1, 4)), 5)
    assert d1 == IntPolynomial(5, {(3, 0, 0, 0, 1): 256, (0, 4, 0, 0, 0): -27})
    d2 = circuit_discriminant(circuit_from_points(a3, (0, 2, 4)), 5)
    assert d2 == IntPolynomial(5, {(1, 0, 0, 0, 1): 4, (0, 0, 2, 0, 0): -1})


def test_circuit_discriminant_kp2(kp2):
    d = circuit_discriminant(circuit_from_points(kp2, (0, 1, 2, 3)), 4)
    # the signed relation coefficients force +27 here
    assert d == IntPolynomial(4, {(3, 0, 0, 0): 1, (0, 1, 1, 1): 27})


def test_circuit_discriminant_quasi_homogeneity(a3, kp2, f2, a3_secondary, kp2_secondary, f2_secondary):
    # both monomials carry equal weight for every row of the point matrix
    for aset, sp in ((a3, a3_secondary), (kp2, kp2_secondary), (f2, f2_secondary)):
        for (i, j) in sp.edges:
            ed = edge_data(sp, i, j)
            delta = circuit_discriminant(ed.circuit, aset.n)
            exps = list(delta.terms)
            assert len(exps) == 2
            for row in range(aset.dim):
                w = [p[row] for p in aset.points]
                val0 = sum(a * b for a, b in zip(w, exps[0]))
                val1 = sum(a * b for a, b in zip(w, exps[1]))
                assert val0 == val1


def test_face_discriminant_vertex(a3):
    v = face_by_indices(a3, (0,))
    assert face_discriminant(a3, v) == IntPolynomial.variable(5, 0)


def test_face_discriminant_simplex_edge(f2):
    e = face_by_indices(f2, (1, 4))
    assert face_discriminant(f2, e) == IntPolynomial.constant(f2.n, 1)


def test_face_discriminant_a3_quartic(a3):
    q = face_by_indices(a3, (0, 1, 2, 3, 4))
    assert face_discriminant(a3, q) == QUARTIC_DISCRIMINANT


def test_face_discriminant_f2(f2):
    gamma = face_by_indices(f2, (1, 2, 3))
    fg = face_discriminant(f2, gamma)
    expected = IntPolynomial(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -1})
    assert fg == expected  # +-(a2^2 - 4 a1 a3)
    q = face_by_indices(f2, (0, 1, 2, 3, 4))
    fq = face_discriminant(f2, q)
    expected_q = IntPolynomial(
        5,
        {
            (4, 0, 0, 0, 0): 1,
            (2, 0, 1, 0, 1): -8,
            (0, 0, 2, 0, 2): 16,
            (0, 1, 0, 1, 2): -64,
        },
    )
    assert fq == expected_q


def test_face_discriminant_budget(a3):
    q = face_by_indices(a3, (0, 1, 2, 3, 4))
    with pytest.raises(BudgetExceeded):
        face_discriminant(a3, q, Budget(seconds=0.0))


@pytest.mark.parametrize("seconds", [float("nan"), -1, "5", None, True])
def test_budget_refuses_seconds_that_are_not_a_number_at_least_zero(a3, seconds):
    # a NaN deadline is never reached, so such a budget would bound nothing;
    # a bool is an int to Python, but True is not a number of seconds
    with pytest.raises(InvalidBudget, match="expected seconds >= 0"):
        principal_a_determinant(a3, Budget(seconds=seconds))


def line(exponents):
    """The A-set of the given points on a line, and its top face."""
    aset = validate_aset(2, [(1, e) for e in exponents])
    return aset, face_by_indices(aset, range(len(exponents)))


def saturated_patterns(top):
    """Exponent sets {0 < ... < top} with at least three points and gcd 1."""
    for r in range(1, top):
        for inner in combinations(range(1, top), r):
            pattern = (0,) + inner + (top,)
            g = 0
            for e in pattern:
                g = gcd(g, e)
            if g == 1:
                yield pattern


# the 24 saturated patterns with N <= 5 but the dense quintic, which alone
# takes seconds under Buchberger (tests/golden/line6_edet.json holds its
# Buchberger answer)
RESULTANT_VS_BUCHBERGER = [
    p for top in range(2, 6) for p in saturated_patterns(top) if p != (0, 1, 2, 3, 4, 5)
]


@pytest.mark.parametrize("pattern", RESULTANT_VS_BUCHBERGER)
def test_resultant_matches_buchberger(pattern):
    exps = [(e,) for e in pattern]
    by_resultant = _resultant_eliminant(exps, _Clock(Budget())).primitive_part()
    by_buchberger = _groebner_eliminant(exps, None).primitive_part()
    assert by_resultant == by_buchberger
    aset, top = line(pattern)
    assert face_discriminant(aset, top) == by_resultant


@pytest.mark.parametrize("top", range(2, 13))
def test_resultant_three_point_circuits(top):
    for p in range(1, top):
        if gcd(p, top) != 1:
            continue
        aset, face = line((0, p, top))
        expected = circuit_discriminant(circuit_from_points(aset, (0, 1, 2)), 3)
        by_resultant = _resultant_eliminant([(0,), (p,), (top,)], _Clock(Budget()))
        assert by_resultant.primitive_part() == expected, (p, top)
        assert face_discriminant(aset, face) == expected, (p, top)


@pytest.mark.parametrize("pattern", [(0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 7)])
def test_resultant_vanishes_on_dual_variety(pattern):
    aset, top = line(pattern)
    disc = face_discriminant(aset, top)
    exps = face_local_exponents(aset, top)
    for y0 in (2, Fraction(-1, 3), Fraction(5, 2)):
        assert disc.evaluate(singular_point_vector(exps, (y0,))) == 0
    assert disc.evaluate([3, -1, 4, 1, -5, 9, 2]) != 0


@pytest.mark.parametrize("budget", [Budget(seconds=0.0)])
def test_resultant_budget_four_points(budget):
    # the cubic, the smallest line that is not a circuit: the clock is read
    # at its first cell update
    aset, top = line((0, 1, 2, 3))
    with pytest.raises(BudgetExceeded) as err:
        face_discriminant(aset, top, budget)
    assert str(err.value) == (
        "elimination budget exceeded (%s) during resultant" % budget.describe()
    )


def assert_stopped_by_half_a_second_budget(aset, face):
    """face_discriminant on a 0.5 s budget raises BudgetExceeded within 5 s
    of wall time and a traced peak below 64 MB."""
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(BudgetExceeded):
            face_discriminant(aset, face, Budget(seconds=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 5.0
    assert peak < 64 * 2**20


def test_resultant_budget_wide_face():
    # a dense Bezout matrix of order N-1 = 2999 would hold 9 million
    # entries; the sparse rows stay small and the clock stops the work
    assert_stopped_by_half_a_second_budget(*line((0, 1, 2, 3000)))


def test_resultant_budget_widest_face():
    # the widest line the exponent limit lets through, a Bezout matrix of
    # order 65534: the clock is read at every entry built, so neither the
    # build nor the elimination runs much past the budget
    assert_stopped_by_half_a_second_budget(*line((0, 1, 2, 65535)))


def test_resultant_is_taken_on_the_partials_of_the_binary_form():
    # Res(F_x, F_y) is +-N^(N-2) times the discriminant of the binary form:
    # a content of 4^2 on the dense quartic, where Res(f, f'), from the
    # Sylvester matrix of order 2N-1, is +-a_4 times it, content 1 once a_4
    # is stripped
    exps = [(e,) for e in range(5)]
    assert _resultant_eliminant(exps, _Clock(Budget())) in (
        QUARTIC_DISCRIMINANT * 16,
        QUARTIC_DISCRIMINANT * -16,
    )
    assert resultant_f_fprime(exps, _Clock(Budget())) == QUARTIC_DISCRIMINANT


def random_lines(rng, count):
    """count exponent patterns 0 < ... < N <= 12 of three to five points,
    two in five of them multiplied by 2 or 3 (exponent gcd above 1)."""
    for _ in range(count):
        g = rng.choice([1, 1, 1, 2, 3])
        top = rng.randint(2, 12 // g)
        inner = rng.sample(range(1, top), rng.randint(1, min(top - 1, 3)))
        yield tuple(g * e for e in sorted([0, top, *inner]))


# every line the benchmark's windows can hold (six consecutive points at
# d = 2, a 4 x 4 box at d = 3): three or more exponents out of 0..5
WINDOW_LINES = [(0,) + rest for r in range(2, 6) for rest in combinations(range(1, 6), r)]


def test_line_resultant_matches_the_f_fprime_reference():
    patterns = list(random_lines(random.Random(150), 150)) + WINDOW_LINES
    assert any(gcd(*p) > 1 for p in patterns) and max(map(max, patterns)) == 12
    for pattern in patterns:
        exps = [(e,) for e in pattern]
        by_partials = _resultant_eliminant(exps, _Clock(Budget()))
        by_reference = resultant_f_fprime(exps, _Clock(Budget()))
        assert by_partials.primitive_part() == by_reference.primitive_part(), pattern


def test_line_resultant_matches_the_sylvester_reference():
    # the Bezout matrix of order N-1 and the Sylvester matrix of order 2N-2
    # of the same two partials: one determinant up to sign, content
    # included; dense N = 8 is left out, since the two routes take about 15
    # and 27 s on it on a 2-core machine
    patterns = list(random_lines(random.Random(150), 150)) + WINDOW_LINES
    patterns += [tuple(range(top + 1)) for top in range(2, 8)]
    for pattern in patterns:
        exps = [(e,) for e in pattern]
        by_bezout = _resultant_eliminant(exps, _Clock(Budget()))
        by_sylvester = resultant_by_sylvester(exps, _Clock(Budget()))
        assert by_bezout in (by_sylvester, -by_sylvester), pattern


@pytest.mark.parametrize("pattern", [(0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5)])
@pytest.mark.parametrize("g", [2, 3])
def test_gapped_edge_is_read_in_the_lattice_it_generates(g, pattern, monkeypatch):
    # on the edge with exponents g * pattern, f(x) = h(x^g) and Res(f, f')
    # is a g-th power: the resultant must run on the exponents divided by g,
    # with the answer and the work of the gcd-1 pattern
    checks = []
    check = elimination._Clock.check

    def counted(self, *args):
        checks.append(args)
        return check(self, *args)

    monkeypatch.setattr(elimination._Clock, "check", counted)
    aset = validate_aset(3, [(1, g * e, 0) for e in pattern] + [(1, 0, 1), (1, 1, 1)])
    edge = face_by_indices(aset, range(len(pattern)))
    disc = face_discriminant(aset, edge)
    edge_checks = len(checks)
    checks.clear()
    reduced, top = line(pattern)
    assert disc == face_discriminant(reduced, top).embed(aset.n, edge.indices)
    assert edge_checks == len(checks)


def buchberger_face_discriminant(aset, face):
    exps = face_local_exponents(aset, face)
    return _groebner_eliminant(exps, None).primitive_part().embed(aset.n, face.indices)


def assert_interpolation_matches_buchberger(aset):
    higher = [f for f in faces(aset) if f.dim >= 2]
    assert higher
    for face in higher:
        assert face_discriminant(aset, face) == buchberger_face_discriminant(aset, face)


def test_interpolation_matches_buchberger_builtins(kp2, f2):
    for aset in (kp2, f2):
        assert_interpolation_matches_buchberger(aset)


FOUR_DIMENSIONAL = {
    # every kernel vector vanishes at the apex: the top face is defective
    "square pyramid": [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0), (1, 0, 0, 1)],
    "prism": [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 1)],
    # the square face generates an index-2 sublattice of its saturation, so
    # its multidegree must be read in a basis of that sublattice
    "index-2 square": [
        (1, 0, 0, 0), (1, 2, 0, 0), (1, 0, 1, 0), (1, 2, 1, 0), (1, 0, 0, 1), (1, 1, 0, 1)
    ],
}


@pytest.mark.parametrize("name", sorted(FOUR_DIMENSIONAL))
def test_interpolation_matches_buchberger_four_dimensional(name):
    assert_interpolation_matches_buchberger(validate_aset(4, FOUR_DIMENSIONAL[name]))


def test_interpolation_index_two_square():
    aset = validate_aset(4, FOUR_DIMENSIONAL["index-2 square"])
    square = face_by_indices(aset, (0, 1, 2, 3))
    assert face_discriminant(aset, square) == IntPolynomial(
        6, {(1, 0, 0, 1, 0, 0): 1, (0, 1, 1, 0, 0, 0): -1}
    )


def interpolated_top_face(conf):
    """The top face of conf by the interpolation oracle itself, from the
    rows the face loop holds for its proper faces."""
    clock = _Clock(Budget())
    rows = _factors(conf, clock)[:-1]
    table = fold_table(conf.points, conf.dim)
    return _interpolation_eliminant(conf, table, rows, clock).primitive_part()


def corpus_instances(numbers):
    rng = random.Random(271828)  # the acceptance corpus
    corpus = [make_random_aset(rng) for _ in range(max(numbers) + 1)]
    return [corpus[k] for k in numbers]


# acceptance-corpus instances whose top face is two-dimensional, not a
# simplex, and takes Buchberger under 0.5 s
CORPUS_BUCHBERGER_FAST = [
    2, 11, 12, 14, 15, 16, 18, 20, 23, 26, 29, 30, 32, 33, 35, 36, 37, 40, 42,
    48, 55, 57, 60, 63, 64, 67, 68, 70, 73, 74, 76, 77, 84, 85, 87, 89, 91, 98,
]


def test_interpolation_matches_buchberger_corpus():
    for aset in corpus_instances(CORPUS_BUCHBERGER_FAST):
        top = faces(aset)[-1]
        assert top.dim == 2
        assert face_discriminant(aset, top) == buchberger_face_discriminant(aset, top)


# top faces that Buchberger does not finish in seconds
CORPUS_BUCHBERGER_HOPELESS = [10, 17, 44, 61, 66, 83]


@pytest.mark.parametrize("number", CORPUS_BUCHBERGER_HOPELESS)
def test_interpolation_vanishes_on_dual_variety(number):
    (aset,) = corpus_instances([number])
    top = faces(aset)[-1]
    disc = face_discriminant(aset, top)
    assert disc.total_degree() > 1
    exps = face_local_exponents(aset, top)
    for y0 in ((2, 3), (Fraction(-1, 3), 5), (Fraction(5, 2), Fraction(-2, 7))):
        assert disc.evaluate(singular_point_vector(exps, y0)) == 0
    assert disc.evaluate([3, -1, 4, 1, -5, 9]) != 0


# pyramids: every vector in the kernel vanishes at the apex
CORPUS_PYRAMIDS = [18, 42, 55, 70, 73, 74]


def test_interpolation_pyramids_are_defective():
    for aset in corpus_instances(CORPUS_PYRAMIDS):
        top = faces(aset)[-1]
        assert len(top.indices) > top.dim + 1
        assert interpolated_top_face(aset) == IntPolynomial.constant(aset.n, 1)
        assert face_discriminant(aset, top) == IntPolynomial.constant(aset.n, 1)


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (5, 0), (0, 7), (1, 1)],
        [(0, 0), (11, 0), (0, 13), (3, 5)],
        [(0, 0), (1, 0), (0, 1), (9, 11)],
        [(0, 0), (1, 0), (0, 1), (20, 21)],
    ],
)
def test_interpolation_circuits_with_large_coefficients(points):
    # coefficients of 81 to 690 bits: the kernel is lifted over several
    # primes before it reconstructs
    aset = validate_aset(3, [(x, y, 1) for x, y in points])
    expected = circuit_discriminant(circuit_from_points(aset, range(4)), 4)
    assert interpolated_top_face(aset) == expected.primitive_part()
    assert face_discriminant(aset, faces(aset)[-1]) == expected.primitive_part()


def test_interpolation_reconstruction_attempts_are_spaced(monkeypatch):
    # 3,069-bit coefficients take a lift over about 290 primes below 2^21;
    # reconstruction is tried after each of the first eight and then each
    # time their number grows by an eighth, about 35 attempts in all
    aset = validate_aset(3, [(x, y, 1) for x, y in [(0, 0), (1, 0), (0, 1), (300, 301)]])
    attempts = []
    reconstruct = discriminant._reconstruct

    def counted(*args):
        attempts.append(1)
        return reconstruct(*args)

    monkeypatch.setattr(discriminant, "_reconstruct", counted)
    expected = circuit_discriminant(circuit_from_points(aset, range(4)), 4)
    assert interpolated_top_face(aset) == expected.primitive_part()
    assert 1 <= len(attempts) <= 40


@pytest.mark.parametrize("budget", [Budget(seconds=0.0)])
def test_interpolation_budget(f2, budget):
    with pytest.raises(BudgetExceeded) as err:
        face_discriminant(f2, faces(f2)[-1], budget)
    assert str(err.value) == (
        "elimination budget exceeded (%s) during interpolation" % budget.describe()
    )


def test_interpolation_clock_read_at_every_row(monkeypatch):
    # the 3x3 grid's top face: 1,166 candidate monomials, each evaluation
    # row a long step; once the clock passes the deadline, at most the row
    # that was already under way is added
    aset = validate_aset(3, [(1, i, j) for i in range(3) for j in range(3)])
    passed = []
    rows = []
    fiber, exact_row = discriminant._fiber, discriminant._exact_row

    def fiber_then_deadline(*args):
        out = fiber(*args)
        passed.append(len(out))
        return out

    def counted_row(*args):
        rows.append(1)
        return exact_row(*args)

    monkeypatch.setattr(discriminant, "_fiber", fiber_then_deadline)
    monkeypatch.setattr(discriminant, "_exact_row", counted_row)
    fake_time = types.SimpleNamespace(monotonic=lambda: 1e9 if passed else 0.0)
    monkeypatch.setattr(elimination, "time", fake_time)
    with pytest.raises(BudgetExceeded, match="during interpolation"):
        face_discriminant(aset, faces(aset)[-1], Budget(seconds=60))
    assert passed == [1166]
    assert len(rows) <= 1


def corpus10_top_face():
    (aset,) = corpus_instances([10])
    assert aset.points == ((-1, 1, 1), (0, -1, 1), (1, 0, 1), (1, 1, 1), (2, -1, 1), (2, 0, 1))
    return aset, faces(aset)[-1]


def test_interpolation_evaluates_each_sample_once(monkeypatch):
    # corpus instance 10's top face: 60 candidates, so 59 pivots and two
    # spare samples, and a lift over two primes; each sample's row is
    # evaluated once, for both primes and the exact check
    aset, top = corpus10_top_face()
    calls = {"_exact_row": 0, "_reconstruct": 0}
    for name in calls:
        step = getattr(discriminant, name)

        def counted(*args, name=name, step=step):
            calls[name] += 1
            return step(*args)

        monkeypatch.setattr(discriminant, name, counted)
    delta = face_discriminant(aset, top)
    assert calls == {"_exact_row": 61, "_reconstruct": 2}
    assert len(delta.terms) == 51
    digest = hashlib.sha256(repr(sorted(delta.terms.items())).encode()).hexdigest()
    assert digest == "3ca2ce9ad1a56766adc14e9e7b690bdca56161d661ddacc84095673d0d303c00"


def test_interpolation_checks_the_reconstruction_exactly(monkeypatch):
    # a reconstruction off by one in one entry vanishes at no sample, so no
    # lift is accepted and the budget stops the oracle
    aset, top = corpus10_top_face()
    reconstruct = discriminant._reconstruct

    def off_by_one(*args):
        v = reconstruct(*args)
        return None if v is None else [v[0] + 1, *v[1:]]

    monkeypatch.setattr(discriminant, "_reconstruct", off_by_one)
    with pytest.raises(BudgetExceeded, match="during interpolation"):
        face_discriminant(aset, top, Budget(seconds=1))


def test_interpolation_checks_the_spare_samples_exactly(monkeypatch):
    # after the 59 pivots of corpus instance 10's top face, every sample row
    # is replaced by the first pivot's row plus p in every entry: the same
    # row mod p, so a spare, on which the discriminant (its coefficients
    # sum to Delta(1, ..., 1) != 0) does not vanish exactly; a check of
    # the pivots alone would accept it
    aset, top = corpus10_top_face()
    assert face_discriminant(aset, top).evaluate([1] * aset.n) != 0
    p = next(_primes())
    rows = []

    def spare_off_the_variety(u, cands):
        rows.append(_exact_row(u, cands))
        return rows[-1] if len(rows) < len(cands) else [x + p for x in rows[0]]

    monkeypatch.setattr(discriminant, "_exact_row", spare_off_the_variety)
    with pytest.raises(BudgetExceeded, match="during interpolation"):
        face_discriminant(aset, top, Budget(seconds=1))
    assert len(rows) == 61


# f2 with a fourth point on its edge (1, 2, 3), which is then a cubic:
# its oracle faces are that edge, by the resultant, and the top face
F2_CUBIC_EDGE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 2, 1), (0, -1, 1), (-2, 3, 1)]


def test_one_clock_bounds_every_face(monkeypatch):
    # the deadline passes as the first oracle face, the edge (1, 2, 3, 5),
    # starts: that face and every later one, the top face included, are
    # over budget at their first check, and the top face's fiber is never
    # walked
    passed = []
    fibers = []
    resultant, fiber = discriminant._resultant_eliminant, discriminant._fiber

    def resultant_then_deadline(*args):
        passed.append(1)
        return resultant(*args)

    def counted_fiber(*args):
        fibers.append(1)
        return fiber(*args)

    monkeypatch.setattr(discriminant, "_resultant_eliminant", resultant_then_deadline)
    monkeypatch.setattr(discriminant, "_fiber", counted_fiber)
    fake_time = types.SimpleNamespace(monotonic=lambda: 1e9 if passed else 0.0)
    monkeypatch.setattr(elimination, "time", fake_time)
    result = principal_a_determinant(validate_aset(3, F2_CUBIC_EDGE), Budget(seconds=60))
    assert result.e_a is None
    over = {f.face.indices: f.error for f in result.factors if f.discriminant is None}
    assert over == {
        (1, 2, 3, 5): "elimination budget exceeded (60s) during resultant",
        (0, 1, 2, 3, 4, 5): "elimination budget exceeded (60s) during interpolation",
    }
    assert passed == [1]
    assert fibers == []


def test_e_a_not_multiplied_when_a_face_is_over_budget(monkeypatch):
    # the clock runs out once the top face's fiber has been enumerated; the
    # finished faces keep their rows, and no factor is raised to its
    # exponent (50 for the edge)
    h = 50
    aset = validate_aset(3, [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, h), (1, 1, h + 1)])
    powers = []
    power = IntPolynomial.__pow__
    passed = []
    fiber = discriminant._fiber

    def counted_power(self, k):
        powers.append(k)
        return power(self, k)

    def fiber_then_deadline(*args):
        out = fiber(*args)
        passed.append(len(out))
        return out

    monkeypatch.setattr(IntPolynomial, "__pow__", counted_power)
    monkeypatch.setattr(discriminant, "_fiber", fiber_then_deadline)
    fake_time = types.SimpleNamespace(monotonic=lambda: 1e9 if passed else 0.0)
    monkeypatch.setattr(elimination, "time", fake_time)
    result = principal_a_determinant(aset, Budget(seconds=60))
    assert powers == []
    assert result.e_a is None
    assert [f.face.indices for f in result.factors if f.discriminant is None] == [(0, 1, 2, 3, 4)]
    edge = next(f for f in result.factors if f.face.indices == (0, 1, 2))
    assert edge.exponent == h
    assert edge.discriminant == IntPolynomial(5, {(1, 0, 1, 0, 0): 4, (0, 2, 0, 0, 0): -1})


@pytest.mark.parametrize("case", ["f2", "corpus 2"])
def test_face_loop_ranks_each_face_once(case, f2, monkeypatch):
    # the top face is interpolated from the rows the face loop already
    # holds: one face lattice and one rank row per face, nothing rebuilt
    aset = f2 if case == "f2" else corpus_instances([2])[0]
    assert faces(aset)[-1].dim == 2 and len(faces(aset)[-1].indices) > 3
    lattices = []
    ranked = []
    face_lattice, rank_k0_face = discriminant.faces, discriminant.rank_k0_face

    def counted_faces(conf):
        lattices.append(conf.points)
        return face_lattice(conf)

    def counted_rank(conf, face, table):
        ranked.append(face.indices)
        return rank_k0_face(conf, face, table)

    monkeypatch.setattr(discriminant, "faces", counted_faces)
    monkeypatch.setattr(discriminant, "rank_k0_face", counted_rank)
    result = principal_a_determinant(aset)
    assert result.e_a is not None
    assert lattices == [aset.points]
    assert ranked == [f.indices for f in faces(aset)]


def test_face_loop_builds_one_fold_table_per_configuration(kp2, f2, monkeypatch):
    # every face's rank row and the top face's multidegree are read off one
    # fold table per configuration the face loop runs on: A's, and that of a
    # 2-face of 5 or more points at d = 4, which runs its own face loop
    tables = []
    lattices = []
    table_of, face_lattice = discriminant.fold_table, discriminant.faces

    def counted_table(points, dim):
        tables.append(tuple(points))
        return table_of(points, dim)

    def counted_faces(conf):
        lattices.append(conf.points)
        return face_lattice(conf)

    for name, module in list(sys.modules.items()):  # a call from any module counts
        if name.startswith("gkzrank.") and hasattr(module, "fold_table"):
            monkeypatch.setattr(module, "fold_table", counted_table)
    monkeypatch.setattr(discriminant, "faces", counted_faces)
    four = random_four_dimensional(random.Random(271828))
    assert [f.indices for f in faces(four) if f.dim == 2 and len(f.indices) >= 5] == [(0, 1, 2, 4, 5, 6)]
    corpus = corpus_instances([10])[0]
    assert (corpus.dim, corpus.n) == (3, 6)  # an interpolated top face
    for aset, configurations in ((kp2, 1), (f2, 1), (corpus, 1), (four, 2)):
        tables.clear()
        lattices.clear()
        assert principal_a_determinant(aset).e_a is not None
        assert tables == lattices
        assert tables[0] == aset.points and len(tables) == configurations


def random_four_dimensional(rng):
    """A valid A-set of dimension 4 with 5 to 7 points (1, x, y, z), x and
    y in {0, 1}, z in {0, 1, 2}."""
    box = [(x, y, z) for x in range(2) for y in range(2) for z in range(3)]
    while True:
        pts = sorted(rng.sample(box, rng.randint(5, 7)))
        try:
            return validate_aset(4, [(1,) + p for p in pts])
        except InvalidConfiguration:
            continue


def test_face_discriminant_routes_agree(a3, kp2, f2):
    # a face asked for on its own runs the face loop of its own
    # configuration; inside E_A's loop, only the top face reads the rows
    # held, and the 2-faces of d = 4 take the standalone route
    rng = random.Random(271828)
    four = [random_four_dimensional(rng) for _ in range(3)]
    assert all(
        any(f.dim == 2 and len(f.indices) > 3 for f in faces(aset)) for aset in four
    )
    for aset in [a3, kp2, f2] + four:
        result = principal_a_determinant(aset)
        assert result.e_a is not None
        for face, row in zip(faces(aset), result.factors):
            assert row.face == face
            assert face_discriminant(aset, face) == row.discriminant


def test_standalone_face_budget(monkeypatch):
    # the deadline passes in the first edge resultant of the top face's own
    # face loop: the top face is over budget at its first check, before its
    # multidegree reads the edge's missing discriminant, and its fiber is
    # never walked
    passed = []
    fibers = []
    resultant, fiber = discriminant._resultant_eliminant, discriminant._fiber

    def resultant_then_deadline(*args):
        passed.append(1)
        return resultant(*args)

    def counted_fiber(*args):
        fibers.append(1)
        return fiber(*args)

    monkeypatch.setattr(discriminant, "_resultant_eliminant", resultant_then_deadline)
    monkeypatch.setattr(discriminant, "_fiber", counted_fiber)
    fake_time = types.SimpleNamespace(monotonic=lambda: 1e9 if passed else 0.0)
    monkeypatch.setattr(elimination, "time", fake_time)
    aset = validate_aset(3, F2_CUBIC_EDGE)
    with pytest.raises(BudgetExceeded) as err:
        face_discriminant(aset, faces(aset)[-1], Budget(seconds=60))
    assert str(err.value) == "elimination budget exceeded (60s) during interpolation"
    assert passed == [1]
    assert fibers == []


def face_configuration(aset, face):
    """The face as its own configuration, in a basis of the lattice its
    points generate."""
    pts = [aset.points[i] for i in face.indices]
    lat = span(pts, aset.dim)
    coords = [tuple(x // q for x, q in zip(lat.coordinates(p), lat.diag)) for p in pts]
    return validate_aset(lat.rank, coords)


def no_oracle(*args):
    raise AssertionError("an oracle ran on a corank-one face")


def test_corank_one_faces_match_both_oracles(a3, kp2, f2, monkeypatch):
    # a face with one point more than a simplex takes the binomial of its
    # relation, and neither oracle runs for it; the oracles, called
    # directly, agree with it: interpolation on the face's own
    # configuration and, on a line, the resultant
    monkeypatch.setattr(discriminant, "_resultant_eliminant", no_oracle)
    monkeypatch.setattr(discriminant, "_interpolation_eliminant", no_oracle)
    counts = []
    for group in ([a3, kp2, f2], corpus_instances(range(100))):
        lines = planar = 0
        for aset in group:
            for face in faces(aset):
                if len(face.indices) != face.dim + 2:
                    continue
                closed = face_discriminant(aset, face)
                conf = face_configuration(aset, face)
                assert closed == interpolated_top_face(conf).embed(aset.n, face.indices)
                if face.dim == 1:
                    lines += 1
                    exps = face_local_exponents(aset, face)
                    g = gcd(*(e for (e,) in exps))
                    by_resultant = _resultant_eliminant([(e // g,) for (e,) in exps], _Clock(Budget()))
                    assert closed == by_resultant.primitive_part().embed(aset.n, face.indices)
                else:
                    planar += 1
        counts.append((lines, planar))
    assert counts == [(1, 1), (36, 18)]


def random_corank_one(rng, dim):
    """dim + 1 points (1, x) with x in [-2, 2]^(dim - 1), affinely spanning
    and generating the lattice."""
    while True:
        pts = {(1,) + tuple(rng.randint(-2, 2) for _ in range(dim - 1)) for _ in range(dim + 1)}
        try:
            return validate_aset(dim, sorted(pts))
        except InvalidConfiguration:
            continue


def test_corank_one_random_circuits_pyramids_and_index_two():
    # random circuits in the plane and in space; pyramids over planar
    # circuits; and planar circuits stretched by 2, which generate a lattice
    # of index 2 in their saturation, as the base of a prism-like
    # configuration: the closed form equals the interpolation of the face's
    # own configuration, and is 1 exactly when the relation vanishes at a
    # point
    rng = random.Random(9)
    cases = []
    for dim in (3, 4):
        for _ in range(12):
            aset = random_corank_one(rng, dim)
            cases.append((aset, faces(aset)[-1]))
    for _ in range(6):
        base = random_corank_one(rng, 3).points
        apex = (1, rng.randint(-2, 2), rng.randint(-2, 2), 1)
        pyramid = validate_aset(4, [p + (0,) for p in base] + [apex])
        wide = validate_aset(4, [(1, 2 * x, y, 0) for _, x, y in base] + [(1, 0, 0, 1), (1, 1, 0, 1)])
        stretched = face_by_indices(wide, range(len(base)))
        assert prod(span([wide.points[i] for i in stretched.indices], 4).diag) == 2
        cases += [(pyramid, faces(pyramid)[-1]), (wide, stretched)]
    pyramids = 0
    for aset, face in cases:
        assert len(face.indices) == face.dim + 2
        conf = face_configuration(aset, face)
        closed = face_discriminant(aset, face)
        assert closed == interpolated_top_face(conf).embed(aset.n, face.indices), aset.points
        (rel,) = kernel_basis(list(zip(*conf.points)))
        assert closed.is_constant() == (0 in rel)
        pyramids += 0 in rel
    assert pyramids >= 6


def test_corank_one_face_takes_no_budget(kp2):
    # kp2's top face is a circuit: it completes under a spent budget
    expected = circuit_discriminant(circuit_from_points(kp2, range(4)), 4).primitive_part()
    assert face_discriminant(kp2, faces(kp2)[-1], Budget(seconds=0.0)) == expected
    assert principal_a_determinant(kp2, Budget(seconds=0.0)).e_a is not None


def test_circuit_binomial_size_is_limited():
    # the line 0, 1, N has the relation (N - 1, -N, 1), and
    # sum |l_i| * bit_length(|l_i|) bounds its coefficients' bit length:
    # 65,533 for N = 2731 is taken, 65,557 for N = 2732 refused
    aset = validate_aset(2, [(1, 0), (1, 1), (1, 2731)])
    delta = face_discriminant(aset, faces(aset)[-1], Budget(seconds=0.0))
    assert sorted(map(abs, delta.terms.values())) == [2730**2730, 2731**2731]
    aset = validate_aset(2, [(1, 0), (1, 1), (1, 2732)])
    with pytest.raises(ExponentOverflow, match="^circuit binomial coefficient bit bound 65557 exceeds"):
        face_discriminant(aset, faces(aset)[-1])
    with pytest.raises(ExponentOverflow, match="bit bound 65557 "):
        circuit_discriminant(circuit_from_points(aset, range(3)), 3)


@pytest.mark.parametrize("name", ["a3", "kp2", "f2"])
def test_face_degrees_follow_from_the_face_lattice(name, request):
    """deg Delta_B = sum_alpha (-1)^(dim B - dim alpha) (dim alpha + 1)
    Vol(alpha) Eu_B(alpha) over the faces alpha of each face B, with Euler
    obstructions from Eu_B(B) = 1 and the ranks u * i of alpha in each face
    gamma above it, and the multidegree B beta by the vector form, with
    B phi_alpha in place of (dim alpha + 1) Vol(alpha) (degree_formula): no
    oracle enters the prediction.  The corpus and the four-dimensional
    draws run the same check on the E_A their tests already compute."""
    aset = request.getfixturevalue(name)
    rows = principal_a_determinant(aset).factors
    assert [row.discriminant.total_degree() for row in rows] == [
        predicted_degree(aset, row.face) for row in rows
    ]
    assert [multidegree(aset, row.discriminant) for row in rows] == [
        predicted_multidegree(aset, row.face) for row in rows
    ]


@settings(max_examples=40, deadline=None)
@given(height_one_asets())
def test_face_degrees_follow_from_the_face_lattice_on_random_sets(aset):
    # the hypothesis twin of the loops over the built-ins, the corpus and the
    # four-dimensional draws: each face's degree and B beta as predicted
    for row in principal_a_determinant(aset).factors:
        assert row.discriminant.total_degree() == predicted_degree(aset, row.face)
        assert multidegree(aset, row.discriminant) == predicted_multidegree(aset, row.face)


def test_four_dimensional_faces_take_the_closed_form(monkeypatch):
    # 40 draws of 6 to 8 points (1, x, y, z), 0 <= x <= 1, 0 <= y, z <= 2:
    # with an oracle on every face that is not a simplex, E_A of these ran 57
    # resultants and 132 interpolations, since each 2-face of 5 or more
    # points reruns its own face loop; the corank-one faces run neither
    calls = {"resultant": 0, "interpolation": 0}
    for name in calls:
        oracle = getattr(discriminant, "_%s_eliminant" % name)

        def counted(*args, name=name, oracle=oracle):
            calls[name] += 1
            return oracle(*args)

        monkeypatch.setattr(discriminant, "_%s_eliminant" % name, counted)
    digest = hashlib.sha256()
    for aset in four_dimensional_draws():
        result = principal_a_determinant(aset)
        digest.update(repr(sorted(result.e_a.terms.items())).encode())
        # every face's degree and multidegree, the top face's among them,
        # from the face lattice alone (degree_formula); with the weight u in
        # place of u * i, draws 1, 5, 6, 20 and 26 fail here
        for row in result.factors:
            assert row.discriminant.total_degree() == predicted_degree(aset, row.face)
            assert multidegree(aset, row.discriminant) == predicted_multidegree(aset, row.face)
    assert calls == {"resultant": 0, "interpolation": 57}
    # the E_A the resultant-on-every-line route gave
    assert digest.hexdigest() == "537c08a6022dc0c3c7e2986773b4ea993b0408979cf2f7ada69dadc6ce70715c"


def test_echelon_kernel_vector():
    # random rows mod a small prime, many of them dependent, added until the
    # nullity is one: the kernel vector annihilates every row added
    rng = random.Random(3)
    p = 7
    for ncols in range(2, 14):
        for _ in range(8):
            echelon = _Echelon(p, ncols)
            added = []
            while len(echelon.rows) < ncols - 1:
                row = [rng.randrange(p) for _ in range(ncols)]
                added.append(row)
                echelon.add(row)
            free = echelon.free_column()
            v = echelon.kernel_vector(free)
            assert v[free] == 1
            for row in added:
                assert sum(a * b for a, b in zip(row, v)) % p == 0, (row, v)


def _echelon_rows(rng, p, ncols):
    """An endless stream of rows mod p: random rows, rows that are all
    p - 1 or nearly so (the most slot headroom a row operation uses), and
    sums of earlier rows, which are dependent."""
    row = [p - 1] * ncols
    added = []
    while True:
        added.append(row)
        yield row
        kind = rng.randrange(3)
        if kind == 0:
            row = [rng.randrange(p) for _ in range(ncols)]
        elif kind == 1:
            row = [p - 1 if rng.random() < 0.8 else rng.randrange(p) for _ in range(ncols)]
        else:
            a, b = rng.choice(added), rng.choice(added)
            row = [(x + y) % p for x, y in zip(a, b)]


@pytest.mark.parametrize("p", [7, next(_primes())])
def test_packed_echelon_matches_list_reference(p):
    rng = random.Random(p)
    for ncols in list(range(1, 13)) + [40, 97, 150]:
        packed, listed = _Echelon(p, ncols), ListEchelon(p, ncols)
        for row in _echelon_rows(rng, p, ncols):
            assert packed.add(row) == listed.add(row)
            assert list(packed.rows) == list(listed.rows)
            if len(listed.rows) >= ncols - 1:
                break
        assert [list(packed._unpack(r)) for r in packed.rows.values()] == list(
            listed.rows.values()
        )
        if ncols > 1:
            free = listed.free_column()
            assert packed.free_column() == free
            assert packed.kernel_vector(free) == listed.kernel_vector(free)


def test_exact_row_reads_power_tables():
    rng = random.Random(8)
    for nvars in (1, 3, 6):
        cands = [tuple(rng.randrange(12) for _ in range(nvars)) for _ in range(40)]
        for _ in range(5):
            u = tuple(rng.choice([0, rng.randint(-200, 200)]) for _ in range(nvars))
            assert _exact_row(u, cands) == [prod(x**b for x, b in zip(u, beta)) for beta in cands]


def test_packed_rows_round_trip():
    rng = random.Random(9)
    edges = [0, 1, -1]
    for k in range(1, 12):
        edges += [(1 << 8 * k - 1) - 1, 1 - (1 << 8 * k - 1), -(1 << 8 * k - 1)]
    rows = [[0] * 7, edges, [rng.randint(-(1 << 300), 1 << 300) for _ in range(50)]]
    rows += [[x] for x in edges]
    for row in rows:
        width, data = _pack(row)
        assert len(data) == width * len(row)
        assert width == max(x.bit_length() for x in row) // 8 + 1
        assert _unpack((width, data)) == row


def test_primes_descend_through_the_primes_below_the_bound():
    got = list(islice(_primes(), 300))
    assert got == [
        n
        for n in range(_PRIME_BOUND - 1, got[-1] - 1, -2)
        if all(n % d for d in range(3, isqrt(n) + 1, 2))
    ]


def test_echelon_refuses_slot_overflow():
    p = next(_primes())
    assert p < _PRIME_BOUND == 1 << 21
    _Echelon(p, (1 << 22) - 1)
    with pytest.raises(ValueError):
        _Echelon(_PRIME_BOUND, 3)
    with pytest.raises(ValueError):
        _Echelon(p, 1 << 22)


def test_interpolation_budget_wide_face():
    # exponents up to 2000: the multidegree has total degree in the
    # thousands and the walk over its fiber is stopped by the clock (the
    # edge 0, 1, 2000 is a circuit whose binomial is within the size limit)
    aset = validate_aset(3, [(x, y, 1) for x, y in [(0, 0), (1, 0), (0, 1), (1, 1), (2000, 1)]])
    top = faces(aset)[-1]
    assert max(max(e) for e in face_local_exponents(aset, top)) == 2000
    assert_stopped_by_half_a_second_budget(aset, top)


def test_principal_a_determinant_a3(a3):
    res = principal_a_determinant(a3)
    assert res.e_a is not None
    a0a4 = IntPolynomial(5, {(1, 0, 0, 0, 1): 1})
    assert res.e_a == (a0a4 * QUARTIC_DISCRIMINANT).sign_normalized()
    assert len(res.e_a.terms) == 16
    exps = {row.face.indices: row.exponent for row in res.factors}
    assert exps[(0,)] == 1 and exps[(4,)] == 1 and exps[(0, 1, 2, 3, 4)] == 1


def test_principal_a_determinant_kp2(kp2):
    res = principal_a_determinant(kp2)
    mono = IntPolynomial(4, {(0, 2, 2, 2): 1})
    cubic = IntPolynomial(4, {(3, 0, 0, 0): 1, (0, 1, 1, 1): 27})
    assert res.e_a == (mono * cubic).sign_normalized()
    exps = {row.face.indices: row.exponent for row in res.factors}
    assert exps[(1,)] == exps[(2,)] == exps[(3,)] == 2
    assert exps[(0, 1, 2, 3)] == 1


def test_principal_a_determinant_f2(f2):
    res = principal_a_determinant(f2)
    mono = IntPolynomial(5, {(0, 2, 0, 2, 2): 1})
    fg = IntPolynomial(5, {(0, 1, 0, 1, 0): 4, (0, 0, 2, 0, 0): -1})
    fq = IntPolynomial(
        5,
        {
            (4, 0, 0, 0, 0): 1,
            (2, 0, 1, 0, 1): -8,
            (0, 0, 2, 0, 2): 16,
            (0, 1, 0, 1, 2): -64,
        },
    )
    expected = (mono * fg * fq).sign_normalized()
    assert res.e_a == expected
    exps = {row.face.indices: row.exponent for row in res.factors}
    assert exps[(1,)] == exps[(3,)] == exps[(4,)] == 2
    assert exps[(1, 2, 3)] == 1 and exps[(0, 1, 2, 3, 4)] == 1


def test_leading_form_binomial():
    p = IntPolynomial(2, {(2, 0): 1, (0, 2): -1})
    assert p.leading_form([1, 0]) == IntPolynomial(2, {(2, 0): 1})


def test_multiplicity_a3(a3, a3_secondary):
    q = face_by_indices(a3, (0, 1, 2, 3, 4))
    disc = face_discriminant(a3, q)
    e1 = find_edge(a3_secondary, [(0, 4)], [(0, 1), (1, 4)])
    e2 = find_edge(a3_secondary, [(0, 4)], [(0, 2), (2, 4)])
    assert multiplicity(disc, e1) == 1
    assert multiplicity(disc, e2) == 2
    for v in ((0,), (4,)):
        vf = face_by_indices(a3, v)
        vd = face_discriminant(a3, vf)
        assert multiplicity(vd, e1) == 0
        assert multiplicity(vd, e2) == 0


def test_multiplicity_f2(f2, f2_secondary):
    q = face_by_indices(f2, (0, 1, 2, 3, 4))
    disc = face_discriminant(f2, q)
    full = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)]
    e14 = find_edge(f2_secondary, full, [(0, 1, 3), (0, 1, 4), (0, 3, 4)])
    e23 = find_edge(f2_secondary, [(1, 2, 4), (2, 3, 4)], [(1, 3, 4)])
    assert multiplicity(disc, e14) == 0
    assert multiplicity(disc, e23) == 1
    gamma = face_by_indices(f2, (1, 2, 3))
    gdisc = face_discriminant(f2, gamma)
    assert multiplicity(gdisc, e14) == 1
    assert multiplicity(gdisc, e23) == 1


def test_multiplicity_mismatch_error(a3, a3_secondary):
    e1 = find_edge(a3_secondary, [(0, 4)], [(0, 1), (1, 4)])
    # same Newton segment as the true circuit discriminant but wrong
    # coefficients: the leading form is a binomial that matches no power
    bogus = IntPolynomial(5, {(3, 0, 0, 0, 1): 256, (0, 4, 0, 0, 0): -26})
    with pytest.raises(MultiplicityError):
        multiplicity(bogus, e1)


def test_leading_forms_along_f2_edges(f2, f2_secondary):
    q = face_by_indices(f2, (0, 1, 2, 3, 4))
    fq = face_discriminant(f2, q)
    full = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)]
    e14 = find_edge(f2_secondary, full, [(0, 1, 3), (0, 1, 4), (0, 3, 4)])
    e23 = find_edge(f2_secondary, [(1, 2, 4), (2, 3, 4)], [(1, 3, 4)])
    # the stated weight family reproduces both leading forms
    hi = fq.leading_form([Fraction(3, 4), 1, 1, 1, 0])
    lo = fq.leading_form([Fraction(1, 4), 1, 1, 1, 0])
    assert hi == IntPolynomial(5, {(4, 0, 0, 0, 0): 1})
    assert lo == IntPolynomial(5, {(0, 0, 2, 0, 2): 16, (0, 1, 0, 1, 2): -64})
    # and the pipeline weights give the same leading forms
    assert fq.leading_form(e14.psi) == hi
    assert fq.leading_form(e23.psi) == lo


def test_edge_restriction_check(a3, kp2, a3_secondary, kp2_secondary):
    from gkzrank.ktheory import rank_k0_edge

    # E_A restricts along an edge to the circuit discriminant to the edge rank
    e_a = principal_a_determinant(a3).e_a
    e1 = find_edge(a3_secondary, [(0, 4)], [(0, 1), (1, 4)])
    e2 = find_edge(a3_secondary, [(0, 4)], [(0, 2), (2, 4)])
    assert multiplicity(e_a, e1) == rank_k0_edge(a3_secondary, e1).zf_rank == 1
    assert multiplicity(e_a, e2) == rank_k0_edge(a3_secondary, e2).zf_rank == 2

    e_a2 = principal_a_determinant(kp2).e_a
    (i, j) = kp2_secondary.edges[0]
    ed = edge_data(kp2_secondary, i, j)
    assert multiplicity(e_a2, ed) == rank_k0_edge(kp2_secondary, ed).zf_rank == 1


def test_newton_polytope_check(a3, kp2, f2, a3_secondary, kp2_secondary, f2_secondary):
    for aset, sp in ((a3, a3_secondary), (kp2, kp2_secondary), (f2, f2_secondary)):
        e_a = principal_a_determinant(aset).e_a
        rep = newton_polytope_check(e_a, sp)
        assert rep.ok, rep
    # a perturbed polynomial must fail
    e_a = principal_a_determinant(kp2).e_a
    bad = e_a + IntPolynomial(4, {(9, 0, 0, 0): 1})
    rep = newton_polytope_check(bad, kp2_secondary)
    assert not rep.ok


def test_newton_polytope_check_reports_each_violation(f2, f2_secondary):
    sp = f2_secondary
    e_a = principal_a_determinant(f2).e_a
    assert newton_polytope_check(e_a, sp).ok
    phi, (i, j) = sp.phis[0], sp.edges[0]
    # off the affine hull of the secondary polytope: phi + e_k moves the sum
    # of k's point, which is constant on that hull, whatever k is
    for k in range(f2.n):
        off = tuple(x + (c == k) for c, x in enumerate(phi))
        rep = newton_polytope_check(e_a + IntPolynomial(f2.n, {off: 1}), sp)
        assert not rep.ok and rep.outside_exponents == (off,), k
    # on the affine hull but past the vertex phi_i along the edge to phi_j
    beyond = tuple(2 * a - b for a, b in zip(sp.phis[i], sp.phis[j]))
    assert all(sum(a * b for a, b in zip(c, beyond)) == e for c, e in sp.hull.equations)
    rep = newton_polytope_check(e_a + IntPolynomial(f2.n, {beyond: 1}), sp)
    assert not rep.ok and rep.outside_exponents == (beyond,)
    # the hull rebuilt with the edge's midpoint added to the phis: a point
    # that is no vertex
    mid = tuple((a + b) // 2 for a, b in zip(sp.phis[i], sp.phis[j]))
    assert tuple(2 * x for x in mid) == tuple(a + b for a, b in zip(sp.phis[i], sp.phis[j]))
    phis = sp.phis + (mid,)
    rep = newton_polytope_check(e_a, sp._replace(phis=phis, hull=h_representation(phis)))
    assert not rep.ok and rep.non_vertex_phis == (mid,) and rep.outside_exponents == ()


def test_secondary_polytopes_of_dimension_zero_and_one():
    # a simplex has one triangulation, so its secondary polytope is a point;
    # a circuit has two, and its secondary polytope is their edge, on no facet
    for points, edges in (
        ([(0, 0, 1), (1, 0, 1), (0, 1, 1)], ()),
        ([(1, 0), (1, 1), (1, 2)], ((0, 1),)),
    ):
        aset = validate_aset(len(points[0]), points)
        sp = secondary_polytope(aset)
        assert sp.dim == len(edges) and len(sp.phis) == sp.dim + 1
        assert hull_edges(sp) == sp.edges == edges
        for i, j in edges:
            ed = edge_data(sp, i, j)
            assert ed.psi == (0,) * aset.n and ed.circuit.indices == (0, 1, 2)
        for i, j in ((0, 0), (0, len(sp.phis))):
            with pytest.raises(NotAnEdge):
                edge_data(sp, i, j)
        rep = newton_polytope_check(principal_a_determinant(aset).e_a, sp)
        assert rep.ok and rep.non_vertex_phis == ()


def test_multiplicity_of_a_monomial(a3, a3_secondary):
    # a one-term polynomial is its own leading form; like every leading form
    # it is matched up to its content, so 2 a_0 gives 0 too
    e1 = find_edge(a3_secondary, [(0, 4)], [(0, 1), (1, 4)])
    for k in range(a3.n):
        assert multiplicity(IntPolynomial.variable(a3.n, k), e1) == 0
    assert multiplicity(IntPolynomial(a3.n, {(1, 0, 0, 0, 0): 2}), e1) == 0
    with pytest.raises(MultiplicityError):
        multiplicity(IntPolynomial.zero(a3.n), e1)
