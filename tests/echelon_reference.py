"""A list-row reference for the interpolation oracle's echelon form mod p:
each row is a list of residues, and every row operation reduces every
entry mod p at once.  The packed `discriminant._Echelon` is checked
against it."""


class ListEchelon:
    """The row space of a matrix mod p, in echelon form, grown one row at a
    time.  Each stored row is reduced against the rows stored before it, so
    it is zero at their pivots and one at its own."""

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows: dict[int, list[int]] = {}  # pivot column -> row, in insertion order

    def add(self, row) -> bool:
        """Reduce the row into the space; True when it was independent."""
        p = self.p
        for c, prow in self.rows.items():
            f = row[c]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = pow(row[col], -1, p)
        self.rows[col] = [x * inv % p for x in row]
        return True

    def free_column(self) -> int:
        return next(c for c in range(self.ncols) if c not in self.rows)

    def kernel_vector(self, free: int) -> list[int]:
        """The kernel vector with entry 1 at the free column, when the
        nullity is one, by back-substitution over the rows in reverse
        insertion order."""
        p = self.p
        v = [0] * self.ncols
        v[free] = 1
        for c, row in reversed(self.rows.items()):
            v[c] = -sum(a * b for a, b in zip(row, v)) % p
        return v
