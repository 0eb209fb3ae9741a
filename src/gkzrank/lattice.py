"""Exact integer linear algebra over ZZ^d.

Smith normal forms, built with only the transforms the caller reads;
integer kernels; and the lattice a point set generates (span):
its rank, its invariant factors, coordinates in the saturation and the
projection onto the saturated quotient, all from one Smith normal form.
All arithmetic is arbitrary-precision integer; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

from typing import NamedTuple

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


class SmithDecomposition(NamedTuple):
    """left @ matrix @ right is diagonal, with both transforms unimodular; a
    transform the caller did not ask for is None."""

    left: IntMatrix | None
    diag: IntVector
    right: IntMatrix | None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def smith_normal_form(matrix, *, left: bool = False, right: bool = False) -> SmithDecomposition:
    """Smith normal form, with the unimodular transforms asked for.

    The diagonal is non-negative, forms a divisibility chain and has its
    zeros last.  Pivots are chosen smallest-in-absolute-value to moderate
    coefficient growth.  The transforms never steer the elimination, so the
    diagonal, and each transform built, do not depend on which are built.
    """
    a = _check_matrix(matrix)
    m, n = len(a), len(a[0])
    lt = identity_matrix(m) if left else None
    rt = identity_matrix(n) if right else None  # rt[j] is column j of the right transform

    for t in range(min(m, n)):
        best = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if left:
                lt[t], lt[pi] = lt[pi], lt[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            if right:
                rt[t], rt[pj] = rt[pj], rt[t]

        while True:
            for i in range(t + 1, m):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        if left:
                            lt[i] = [x - q * y for x, y in zip(lt[i], lt[t])]
                    if a[i][t]:
                        a[i], a[t] = a[t], a[i]
                        if left:
                            lt[i], lt[t] = lt[t], lt[i]
            for j in range(t + 1, n):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for r in a:
                            r[j] -= q * r[t]
                        if right:
                            rt[j] = [x - q * y for x, y in zip(rt[j], rt[t])]
                    if a[t][j]:
                        for r in a:
                            r[j], r[t] = r[t], r[j]
                        if right:
                            rt[j], rt[t] = rt[t], rt[j]
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            # pivot must divide the rest of the submatrix for the chain
            p = a[t][t]
            bad = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1 :])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            if left:
                lt[t] = [x + y for x, y in zip(lt[t], lt[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if left:
                lt[t] = [-x for x in lt[t]]

    return SmithDecomposition(
        left=tuple(map(tuple, lt)) if left else None,
        diag=tuple(a[i][i] for i in range(min(m, n))),
        right=tuple(zip(*rt)) if right else None,
    )


class Span(NamedTuple):
    """The lattice L that some vectors generate in ZZ^d, read from one Smith
    normal form of the matrix whose columns are the vectors: the first rank
    rows of the unimodular left transform carry L onto the sum of the
    diag[k] ZZ, and the remaining rows vanish exactly on the saturation of L,
    so left[rank:] projects ZZ^d onto the saturated quotient."""

    rank: int
    diag: IntVector  # the nonzero invariant factors of L
    left: IntMatrix

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
    dec = smith_normal_form([[v[i] for v in vecs] for i in range(d)], left=True)
    return Span(rank=dec.rank, diag=dec.diag[: dec.rank], left=dec.left)


def kernel_basis(matrix) -> list[IntVector]:
    """Basis of the integer kernel {x : matrix @ x = 0} (a saturated lattice)."""
    dec = smith_normal_form(matrix, right=True)
    return list(zip(*dec.right))[dec.rank :]
