"""Exact integer linear algebra over ZZ^d.

Smith normal forms, adjugates, integer kernels and solutions, and the
lattice a point set generates (span): its rank, its index in its
saturation (the torsion order of ZZ^d modulo it), coordinates in the
saturation and the projection onto the saturated quotient, all from one
Smith normal form.  All arithmetic is arbitrary-precision integer; there
is no floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

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
class Span:
    """The lattice L that some vectors generate in ZZ^d, read from one Smith
    normal form of the matrix whose columns are the vectors: the first rank
    rows of the unimodular left transform carry L onto the sum of the
    diag[k] ZZ, and the remaining rows vanish exactly on the saturation of L,
    so left[rank:] projects ZZ^d onto the saturated quotient."""

    rank: int
    diag: IntVector  # the nonzero invariant factors of L
    left: IntMatrix

    @property
    def index(self) -> int:
        """[sat L : L], the torsion order of ZZ^d / L."""
        return prod(self.diag)

    def coordinates(self, v) -> IntVector:
        """v in a basis of the saturation of L; they are divisible by diag
        entrywise exactly when v lies in L itself."""
        if len(v) != len(self.left):
            raise LatticeError("vector length does not match the ambient rank")
        image = mat_vec(self.left, v)
        if any(image[self.rank :]):
            raise LatticeError("vector outside the span during coordinate change")
        return tuple(image[: self.rank])


def span(vectors, d: int) -> Span:
    """The lattice the vectors generate in ZZ^d."""
    vecs = [tuple(map(int, v)) for v in vectors]
    if any(len(v) != d for v in vecs):
        raise LatticeError("vector length does not match the ambient rank")
    dec = smith_normal_form([[v[i] for v in vecs] for i in range(d)])
    return Span(rank=dec.rank, diag=dec.diag[: dec.rank], left=dec.left)


def kernel_basis(matrix) -> list[IntVector]:
    """Basis of the integer kernel {x : matrix @ x = 0} (a saturated lattice)."""
    mat = _check_matrix(matrix)
    n = len(mat[0])
    dec = smith_normal_form(mat)
    return [tuple(dec.right[i][j] for i in range(n)) for j in range(dec.rank, n)]


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
