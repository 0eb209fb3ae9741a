"""Exact integer linear algebra over ZZ^d.

Smith normal forms, adjugates, quotient groups (the torsion order of
ZZ^d modulo a sublattice is the sublattice's index in its saturation),
integer kernels and solutions, and coordinates in the saturation of a span
or in the lattice it generates.  All arithmetic is arbitrary-precision
integer; there is no floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


class LatticeError(ValueError):
    """Raised for structurally invalid lattice-algebra inputs."""


def _check_matrix(rows) -> list[list[int]]:
    mat = [list(map(int, r)) for r in rows]
    if not mat or not mat[0]:
        raise LatticeError("matrix needs at least one row and one column")
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise LatticeError("ragged matrix")
    return mat


def identity_matrix(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_vec(a, v) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def adjugate(rows) -> tuple[int, IntMatrix | None]:
    """(det M, adj M) of a square integer matrix M, so that
    M adj = adj M = det I, by one fraction-free Gauss-Jordan pass on [M | I]
    (Bareiss 1968); (0, None) when M is singular."""
    n = len(rows)
    a = [list(map(int, r)) + [int(i == k) for k in range(n)] for i, r in enumerate(rows)]
    if any(len(r) != 2 * n for r in a):
        raise LatticeError("adjugate of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        for i, ai in enumerate(a):
            if i != k:  # every entry is a minor of [M | I], so each division is exact
                f = ai[k]
                a[i] = [(ak[k] * x - f * y) // prev for x, y in zip(ai, ak)]
        prev = ak[k]
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in a)


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ matrix @ right is diagonal, with both transforms unimodular."""

    left: IntMatrix
    diag: IntVector
    right: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    The diagonal is non-negative, forms a divisibility chain and has its
    zeros last.  Pivots are chosen smallest-in-absolute-value to moderate
    coefficient growth.
    """
    a = _check_matrix(matrix)
    m, n = len(a), len(a[0])
    left = identity_matrix(m)
    right = identity_matrix(n)

    def row_sub(i, j, q):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_sub(i, j, q):
        if q:
            for r in a:
                r[i] -= q * r[j]
            for r in right:
                r[i] -= q * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, n)):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])

        while True:
            for i in range(t + 1, m):
                while a[i][t] != 0:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        row_swap(i, t)
            for j in range(t + 1, n):
                while a[t][j] != 0:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        col_swap(j, t)
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            # pivot must divide the rest of the submatrix for the chain
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]

    diag = tuple(a[i][i] for i in range(min(m, n)))
    return SmithDecomposition(
        left=tuple(tuple(r) for r in left),
        diag=diag,
        right=tuple(tuple(r) for r in right),
    )


@dataclass(frozen=True)
class QuotientGroup:
    """ZZ^d modulo a sublattice: free rank plus invariant-factor torsion."""

    free_rank: int
    torsion: IntVector

    @property
    def torsion_order(self) -> int:
        order = 1
        for t in self.torsion:
            order *= t
        return order

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def _vectors_matrix(vectors, ambient_rank) -> list[list[int]]:
    vecs = [tuple(map(int, v)) for v in vectors]
    if any(len(v) != ambient_rank for v in vecs):
        raise LatticeError("vector length does not match the ambient rank")
    return [list(v) for v in vecs]


def quotient_group(generators, ambient_rank: int) -> QuotientGroup:
    """ZZ^ambient_rank modulo the ZZ-span of the generators."""
    if not generators:
        return QuotientGroup(free_rank=ambient_rank, torsion=())
    rows = _vectors_matrix(generators, ambient_rank)
    diag = smith_normal_form(rows).diag
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d >= 2)
    return QuotientGroup(free_rank=ambient_rank - rank, torsion=torsion)


def kernel_basis(matrix) -> list[IntVector]:
    """Basis of the integer kernel {x : matrix @ x = 0} (a saturated lattice)."""
    mat = _check_matrix(matrix)
    n = len(mat[0])
    dec = smith_normal_form(mat)
    return [tuple(dec.right[i][j] for i in range(n)) for j in range(dec.rank, n)]


def saturation_projection(vectors, ambient_rank: int):
    """Projection of ZZ^d onto the saturated quotient by the span of vectors.

    Returns (pi_rows, rank, torsion): pi_rows are the rows of an integer
    matrix computing ZZ^d -> ZZ^(d-rank) with kernel exactly the saturation
    of the span; torsion lists the invariant factors >= 2 of
    ZZ^d / ZZ-span(vectors).
    """
    d = ambient_rank
    if not vectors:
        return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)), 0, ()
    vecs = _vectors_matrix(vectors, d)
    cols = [[v[i] for v in vecs] for i in range(d)]  # columns = vectors
    dec = smith_normal_form(cols)
    rank = dec.rank
    pi = tuple(dec.left[i] for i in range(rank, d))
    torsion = tuple(t for t in dec.diag if t >= 2)
    return pi, rank, torsion


def span_coordinates(vectors, ambient_rank: int):
    """Coordinates of the vectors in a basis of the saturation of their span.

    Returns (coords, rank): coords[i] is an integer rank-vector expressing
    vectors[i] in a fixed basis of (real span) intersect ZZ^d.
    """
    coords, rank, _ = _smith_coordinates(vectors, ambient_rank)
    return coords, rank


def lattice_coordinates(vectors, ambient_rank: int):
    """Coordinates of the vectors in a basis of the lattice they generate.

    Returns (coords, rank).  Unlike span_coordinates, the basis spans
    ZZ-span(vectors) itself, which may have finite index in its saturation:
    saturated coordinate i is divisible by the i-th invariant factor.
    """
    coords, rank, diag = _smith_coordinates(vectors, ambient_rank)
    return [tuple(x // s for x, s in zip(c, diag)) for c in coords], rank


def _smith_coordinates(vectors, ambient_rank: int):
    d = ambient_rank
    vecs = _vectors_matrix(vectors, d)
    cols = [[v[i] for v in vecs] for i in range(d)]
    dec = smith_normal_form(cols)
    rank = dec.rank
    coords = []
    for v in vecs:
        image = mat_vec(dec.left, v)
        if any(image[rank:]):
            raise LatticeError("vector outside the span during coordinate change")
        coords.append(tuple(image[:rank]))
    return coords, rank, dec.diag


def integer_solve(matrix, rhs) -> IntVector | None:
    """One integer solution x of matrix @ x = rhs, or None."""
    mat = _check_matrix(matrix)
    b = list(map(int, rhs))
    if len(b) != len(mat):
        raise LatticeError("right-hand side length mismatch")
    n = len(mat[0])
    dec = smith_normal_form(mat)
    lb = mat_vec(dec.left, b)
    rank = dec.rank
    y = [0] * n
    for i, val in enumerate(lb):
        if i < rank:
            if val % dec.diag[i] != 0:
                return None
            y[i] = val // dec.diag[i]
        elif val != 0:
            return None
    x = mat_vec(dec.right, y)
    for row, target in zip(mat, b):
        if sum(c * v for c, v in zip(row, x)) != target:
            return None
    return tuple(x)
