"""Two Sylvester resultants the package computed before it took the line
resultant from the Bezout matrix of the binary form's partials, kept as the
references the tests compare that route with.

resultant_by_sylvester is the same resultant Res(F_x, F_y), from the
Sylvester matrix of order 2N-2, so it equals the Bezout route up to sign,
content included.  resultant_f_fprime is Res(f, f'): for
f = sum_j a_j x^(e_j) of degree N it is +-a_N times the discriminant of f,
and Res(F_x, F_y) of the binary form F = sum_j a_j x^(e_j) y^(N-e_j) is
+-N^(N-2) times the same discriminant, so the two have the same primitive
part once their monomial factors are stripped.
"""

from __future__ import annotations

from gkzrank.discriminant import OracleError, _exact
from gkzrank.elimination import _Clock
from gkzrank.polynomial import IntPolynomial


def resultant_by_sylvester(exps, clock: _Clock) -> IntPolynomial:
    """Res(F_x, F_y) for F = sum_j a_j x^(e_j) y^(N-e_j), its monomial
    factor stripped, from the Sylvester matrix of F_x = sum e_j a_j x^(e_j-1)
    and F_y = sum (N-e_j) a_j x^(e_j), both of formal degree N-1: order
    2N-2, column c the coefficient of x^(2N-3-c)."""
    degrees = [e for (e,) in exps]
    k = len(degrees)
    top = max(degrees)
    last = 2 * top - 3
    coeffs = [IntPolynomial.variable(k, j) for j in range(k)]
    rows = [
        {last + 1 - s - e: a * e for e, a in zip(degrees, coeffs) if e}
        for s in range(top - 1)
    ] + [
        {last - s - e: a * (top - e) for e, a in zip(degrees, coeffs) if e < top}
        for s in range(top - 1)
    ]
    return _sylvester_determinant(rows, k, clock)


def resultant_f_fprime(exps, clock: _Clock) -> IntPolynomial:
    """Res(f, f') for f = sum_j a_j x^(e_j), its monomial factor stripped,
    from the Sylvester matrix of order 2N-1, column c the coefficient of
    x^(2N-2-c)."""
    degrees = [e for (e,) in exps]
    k = len(degrees)
    top = max(degrees)
    last = 2 * top - 2
    coeffs = [IntPolynomial.variable(k, j) for j in range(k)]
    rows = [
        {last - s - e: a for e, a in zip(degrees, coeffs)} for s in range(top - 1)
    ] + [
        {last + 1 - s - e: a * e for e, a in zip(degrees, coeffs) if e}
        for s in range(top)
    ]
    return _sylvester_determinant(rows, k, clock)


def _sylvester_determinant(rows, k: int, clock: _Clock) -> IntPolynomial:
    """The determinant of the square matrix of sparse rows (column ->
    entry, polynomials in k variables), its monomial factor stripped, by
    fraction-free (Bareiss) elimination from the first column on, every
    division exact."""
    prev = IntPolynomial.constant(k, 1)
    for col in range(len(rows)):
        r = next((r for r, row in enumerate(rows) if col in row), None)
        if r is None:
            raise OracleError("Sylvester matrix is singular")
        pivot_row = rows.pop(r)
        pivot = pivot_row.pop(col)
        for row in rows:
            m = row.pop(col, None)
            if m is None:
                for c, x in row.items():
                    row[c] = _exact(pivot * x, prev, clock)
                continue
            for c in row.keys() | pivot_row.keys():
                q = pivot * row[c] if c in row else IntPolynomial.zero(k)
                if c in pivot_row:
                    q = q - m * pivot_row[c]
                q = _exact(q, prev, clock)
                if q:
                    row[c] = q
                else:
                    row.pop(c, None)
        prev = pivot
    return prev.strip_monomial()
