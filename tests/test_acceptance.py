"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them live).  Criteria 5 and 6 share a seeded random corpus of at least a
hundred configurations with d <= 3 and n <= 6; oracle timeouts inside the
corpus are reported explicitly, never silently dropped.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import pytest

from gkzrank.discriminant import (
    circuit_discriminant,
    face_discriminant,
    multiplicity,
    newton_polytope_check,
    principal_a_determinant,
)
from gkzrank.elimination import Budget
from gkzrank.ktheory import rank_k0_edge, rank_k0_face, verify_theorem
from gkzrank.lattice import span
from gkzrank.polynomial import IntPolynomial
from gkzrank.polytope import faces, total_volume, validate_aset
from gkzrank.secondary import edge_data, hull_edges, secondary_polytope

from conftest import make_random_aset
from degree_formula import multidegree, predicted_degree, predicted_multidegree
from fold_reference import characteristic_function, edge_indices_by_snf
from test_elimination import QUARTIC_DISCRIMINANT


@contextmanager
def criterion(num, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (num, desc))
        raise
    print(
        "ACCEPTANCE %d: PASS - %s (%.2fs)" % (num, desc, time.monotonic() - start)
    )


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


def same_up_to_sign(p, q):
    return p == q or p == -q


# -- shared random corpus ----------------------------------------------------


@dataclass
class CorpusItem:
    aset: object
    sp: object
    hull_ok: bool
    report: object
    newton: object  # NewtonReport or None when the oracle timed out


CORPUS_SEED = 271828
CORPUS_SIZE = 100
CORPUS_BUDGET = Budget(seconds=8)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    items = []
    start = time.monotonic()
    while len(items) < CORPUS_SIZE:
        aset = make_random_aset(rng)
        sp = secondary_polytope(aset)
        hull_ok = hull_edges(sp) == sp.edges
        report = verify_theorem(aset, CORPUS_BUDGET, sp=sp)
        newton = None
        if report.edet.e_a is not None:
            newton = newton_polytope_check(report.edet.e_a, sp)
        items.append(CorpusItem(aset, sp, hull_ok, report, newton))
    elapsed = time.monotonic() - start
    return items, elapsed


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_a3_principal_determinant(a3):
    with criterion(1, "a3 principal A-determinant matches the golden 16-term quartic discriminant times a0*a4"):
        start = time.monotonic()
        result = principal_a_determinant(a3)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        a0a4 = IntPolynomial(5, {(1, 0, 0, 0, 1): 1})
        golden = (a0a4 * QUARTIC_DISCRIMINANT).sign_normalized()
        assert result.e_a is not None
        assert same_up_to_sign(result.e_a, golden)
        # the sixteen stated coefficients, in display order of the monomials
        coeffs = [QUARTIC_DISCRIMINANT.terms[e] for e in sorted(QUARTIC_DISCRIMINANT.terms, reverse=True)]
        assert coeffs == [256, -192, -128, 144, -27, 144, -6, -80, 18, 16, -4, -27, 18, -4, -4, 1]


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_a3_multiplicities_and_ranks(a3, a3_secondary):
    with criterion(2, "a3 edge multiplicities, edge ranks and the identity on all 12 cube edges"):
        start = time.monotonic()
        q = face_by_indices(a3, (0, 1, 2, 3, 4))
        disc = face_discriminant(a3, q)
        f1 = find_edge(a3_secondary, [(0, 4)], [(0, 1), (1, 4)])
        f2_edge = find_edge(a3_secondary, [(0, 4)], [(0, 2), (2, 4)])
        assert multiplicity(disc, f1) == 1
        assert rank_k0_edge(a3_secondary, f1).zf_rank == 1
        assert multiplicity(disc, f2_edge) == 2
        assert rank_k0_edge(a3_secondary, f2_edge).zf_rank == 2
        report = verify_theorem(a3, sp=a3_secondary)
        assert report.status == "pass"
        assert len(report.edges) == 12
        assert all(e.status == "ok" and e.zf_rank == e.rhs for e in report.edges)
        assert time.monotonic() - start < 60.0


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_kp2(kp2, kp2_secondary):
    with criterion(3, "kp2 principal A-determinant, vertex exponents, edge multiplicity and secondary segment"):
        start = time.monotonic()
        result = principal_a_determinant(kp2)
        mono = IntPolynomial(4, {(0, 2, 2, 2): 1})
        cubic = IntPolynomial(4, {(3, 0, 0, 0): 1, (0, 1, 1, 1): 27})
        assert same_up_to_sign(result.e_a, mono * cubic)
        for row in result.factors:
            if row.face.dim == 0:
                assert row.exponent == 2
        assert kp2_secondary.phis == ((0, 3, 3, 3), (3, 2, 2, 2))
        report = verify_theorem(kp2, sp=kp2_secondary)
        assert report.status == "pass"
        (edge,) = report.edges
        assert dict(edge.multiplicities)[(0, 1, 2, 3)] == 1
        assert edge.zf_rank == edge.rhs == 1
        assert time.monotonic() - start < 10.0


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_f2(f2, f2_secondary):
    with criterion(4, "f2 discriminants, principal A-determinant, leading forms and multiplicities"):
        start = time.monotonic()
        gamma = face_by_indices(f2, (1, 2, 3))
        q = face_by_indices(f2, (0, 1, 2, 3, 4))
        f_gamma = face_discriminant(f2, gamma)
        f_q = face_discriminant(f2, q)
        stated_gamma = IntPolynomial(5, {(0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 0): -4})
        stated_q = IntPolynomial(
            5,
            {
                (4, 0, 0, 0, 0): 1,
                (2, 0, 1, 0, 1): -8,
                (0, 0, 2, 0, 2): 16,
                (0, 1, 0, 1, 2): -64,
            },
        )
        assert same_up_to_sign(f_gamma, stated_gamma)
        assert same_up_to_sign(f_q, stated_q)

        result = principal_a_determinant(f2)
        mono = IntPolynomial(5, {(0, 2, 0, 2, 2): 1})
        assert same_up_to_sign(result.e_a, mono * f_gamma * f_q)

        full = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)]
        e14 = find_edge(f2_secondary, full, [(0, 1, 3), (0, 1, 4), (0, 3, 4)])
        e23 = find_edge(f2_secondary, [(1, 2, 4), (2, 3, 4)], [(1, 3, 4)])
        lead_14 = f_q.leading_form(e14.psi)
        lead_23 = f_q.leading_form(e23.psi)
        assert lead_14 == IntPolynomial(5, {(4, 0, 0, 0, 0): 1})
        expected_23 = IntPolynomial(5, {(0, 0, 2, 0, 2): 16, (0, 1, 0, 1, 2): -64})
        assert lead_23 == expected_23
        # 16 a2^2 a4^2 - 64 a1 a3 a4^2 factors as -16 a4^2 times the circuit
        # discriminant of v1 - 2 v2 + v3 = 0
        delta_i = circuit_discriminant(e23.circuit, 5)
        a4sq = IntPolynomial(5, {(0, 0, 0, 0, 2): 16})
        assert same_up_to_sign(lead_23, a4sq * delta_i)
        assert multiplicity(f_q, e14) == 0
        assert multiplicity(f_q, e23) == 1
        assert time.monotonic() - start < 120.0


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_newton_polytope_property(
    a3, kp2, f2, a3_secondary, kp2_secondary, f2_secondary, corpus
):
    with criterion(5, "Newton polytope of E_A has exactly the characteristic functions as vertices"):
        for aset, sp in ((a3, a3_secondary), (kp2, kp2_secondary), (f2, f2_secondary)):
            rep = newton_polytope_check(principal_a_determinant(aset).e_a, sp)
            assert rep.ok, rep
        items, _ = corpus
        checked = 0
        skipped = 0
        for item in items:
            if item.newton is None:
                skipped += 1
                continue
            assert item.newton.ok, (item.aset.points, item.newton)
            checked += 1
        print(
            "criterion 5 corpus: %d Newton polytopes checked, %d skipped on budget"
            % (checked, skipped)
        )
        assert skipped == 0
        assert checked == len(items)


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_structural_properties_at_scale(corpus):
    with criterion(6, "structural properties on >= 100 random configurations"):
        items, elapsed = corpus
        assert len(items) >= 100
        timeouts = []
        identity_checked = 0
        restriction_checked = 0
        for k, item in enumerate(items):
            aset, sp = item.aset, item.sp
            assert sp.dim == aset.n - aset.dim
            assert item.hull_ok, "hull skeleton differs from flip skeleton"
            vol = total_volume(aset)
            for tri in sp.triangulations:
                phi = characteristic_function(aset, tri)
                assert sum(phi) == aset.dim * vol
                assert sum(abs(sp.table[s][0]) for s in tri.simplices) == vol
            assert item.report.status in ("pass", "budget")
            for e in item.report.edges:
                if e.status == "skipped":
                    timeouts.append((k, e.vertex_pair, e.detail))
                else:
                    assert e.status == "ok"
                    assert e.zf_rank == e.rhs
                    identity_checked += 1
                    e_a = item.report.edet.e_a
                    if e_a is not None:
                        # the assembled E_A restricts along the edge to the
                        # circuit discriminant to the power zf_rank
                        ed = edge_data(sp, *e.vertex_pair)
                        assert multiplicity(e_a, ed) == e.zf_rank, (k, e.vertex_pair)
                        restriction_checked += 1
        print(
            "criterion 6 corpus: %d instances, %d edge identities verified, "
            "%d restrictions of E_A certified, %d edges skipped on oracle "
            "budget, %.1fs total"
            % (len(items), identity_checked, restriction_checked, len(timeouts), elapsed)
        )
        for k, pair, detail in timeouts:
            print("  timeout: instance %d edge %s (%s)" % (k, pair, detail))
        assert not timeouts
        assert identity_checked == 1068
        assert restriction_checked == identity_checked
        assert elapsed < 1800.0


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_full_dimensional_circuits(a3, a3_secondary, corpus):
    with criterion(7, "edges with spanning circuits have rank equal to the circuit sublattice index"):
        # the quartic edge whose circuit spans with index two
        e2 = find_edge(a3_secondary, [(0, 4)], [(0, 2), (2, 4)])
        lat = span([a3.points[i] for i in e2.circuit.indices], 2)
        assert lat.rank == 2 and prod(lat.diag) == 2
        assert rank_k0_edge(a3_secondary, e2).zf_rank == 2

        # constructed instances with spanning circuits of index two and three
        constructed = [
            (validate_aset(2, [(1, 0), (1, 1), (1, 2), (1, 4)]), (0, 2, 3), 2),
            (validate_aset(2, [(1, 0), (1, 1), (1, 3), (1, 6)]), (0, 2, 3), 3),
        ]
        for aset, circuit_indices, expected in constructed:
            sp = secondary_polytope(aset)
            hits = 0
            for (i, j) in sp.edges:
                ed = edge_data(sp, i, j)
                if ed.circuit.indices != circuit_indices:
                    continue
                lat = span([aset.points[i] for i in ed.circuit.indices], aset.dim)
                assert lat.rank == aset.dim
                assert prod(lat.diag) == expected
                assert rank_k0_edge(sp, ed).zf_rank == expected
                hits += 1
            assert hits >= 1

        # corpus sweep: every spanning-circuit edge satisfies the identity
        items, _ = corpus
        sweep = 0
        for item in items:
            for e in item.report.edges:
                if e.circuit_spans:
                    assert e.zf_rank == e.circuit_index
                    sweep += 1
        print("criterion 7 corpus: %d spanning-circuit edges checked" % sweep)
        assert sweep > 0


def test_corpus_edge_indices_match_the_smith_normal_form_reference(corpus):
    # every edge of corpus instances 0-99: the indices verify_theorem reads
    # from the fold table's volumes equal those of one SNF per point set
    items, _ = corpus
    edges = 0
    for item in items:
        for e in item.report.edges:
            ed = edge_data(item.sp, *e.vertex_pair)
            assert (e.per_j_indices, e.zf_rank, e.circuit_index) == edge_indices_by_snf(item.aset, ed)
            edges += 1
    assert edges > 0


def test_corpus_face_degrees_follow_from_the_face_lattice(corpus):
    # the degree and multidegree of every face discriminant of E_A, as
    # degree_formula predicts them from the face lattice alone; six faces
    # that are not simplices are pyramids over a circuit, predicted 0
    # (Delta = 1)
    items, _ = corpus
    zeros = 0
    for k, item in enumerate(items):
        for row in item.report.edet.factors:
            degree = predicted_degree(item.aset, row.face)
            assert row.discriminant.total_degree() == degree, (k, row.face.indices)
            assert multidegree(item.aset, row.discriminant) == predicted_multidegree(
                item.aset, row.face
            ), (k, row.face.indices)
            if degree == 0 and len(row.face.indices) > row.face.dim + 1:
                zeros += 1
    assert zeros == 6


# -- past the corpus ----------------------------------------------------------


def test_seven_points_corank_four_top_face():
    # 7 points of the corpus box, which `make_random_aset` never draws: 37
    # triangulations, 74 edges and a top face of corank 4 whose
    # interpolation has 240 candidate monomials, under the default budget
    pts = [(-1, -1), (-1, 1), (-1, 2), (0, -1), (1, -1), (2, -1), (2, 1)]
    aset = validate_aset(3, [(x, y, 1) for x, y in pts])
    sp = secondary_polytope(aset)
    assert (len(sp.phis), len(sp.edges)) == (37, 74)
    report = verify_theorem(aset, sp=sp)
    assert report.status == "pass"
    assert newton_polytope_check(report.edet.e_a, sp).ok
