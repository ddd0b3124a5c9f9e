"""Exact rational linear algebra.

Everything here works over exact rationals (or integer-scaled rows); no
floating point.  The sizes involved are small (a few thousand sparse
relation rows, dense systems of order <= ~10), so the implementations
favour clarity and exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries (sign-normalized)."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    # fix the sign of the smallest column entry to be positive
    lead = min(row)
    if row[lead] < 0:
        row = {c: -v for c, v in row.items()}
    return row


class SparseEliminator:
    """Incremental exact row reduction of sparse integer rows.

    Rows are dicts column -> int.  Pivot rows are kept integer (gcd
    normalized); each pivot owns one column.  After feeding all rows,
    `rank` is the row-space dimension and `reduce` maps any rational
    vector to its residual modulo the row space (deterministically,
    given the insertion order).
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict[int, Fraction | int]) -> bool:
        """Insert a row; returns True if it increased the rank."""
        # scale to integers
        denom = 1
        for v in row.values():
            if isinstance(v, Fraction):
                denom = denom * v.denominator // gcd(denom, v.denominator)
        irow = {c: int(v * denom) for c, v in row.items() if v != 0}
        irow = self._eliminate(irow)
        if not irow:
            return False
        irow = _normalize_int_row(irow)
        self.pivots[min(irow)] = irow
        return True

    def _eliminate(self, row: dict[int, int]) -> dict[int, int]:
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            # row <- piv[lead]*row - row[lead]*piv  (stays integer)
            a, b = piv[lead], row[lead]
            new: dict[int, int] = {}
            for c, v in row.items():
                new[c] = a * v
            for c, v in piv.items():
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = _normalize_int_row(new)
        return row

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Residual of `vec` modulo the accumulated row space.

        Eliminates the smallest reducible column first; each step only
        introduces larger columns, so this terminates with a residual
        supported away from all pivot columns.
        """
        vec = {c: Fraction(v) for c, v in vec.items() if v != 0}
        while True:
            cols = [c for c in vec if c in self.pivots]
            if not cols:
                return vec
            col = min(cols)
            piv = self.pivots[col]
            factor = vec[col] / piv[col]
            for c, v in piv.items():
                w = vec.get(c, Fraction(0)) - factor * v
                if w:
                    vec[c] = w
                elif c in vec:
                    del vec[c]

    def contains(self, vec: dict[int, Fraction]) -> bool:
        return not self.reduce(vec)

    def back_substitute(self) -> None:
        """Fully reduce pivot rows against each other (RREF form)."""
        for col in sorted(self.pivots, reverse=True):
            piv = self.pivots[col]
            for col2 in sorted(self.pivots):
                if col2 >= col:
                    break
                row = self.pivots[col2]
                if col in row:
                    a, b = piv[col], row[col]
                    new = {c: a * v for c, v in row.items()}
                    for c, v in piv.items():
                        w = new.get(c, 0) - b * v
                        if w:
                            new[c] = w
                        elif c in new:
                            del new[c]
                    self.pivots[col2] = _normalize_int_row(new)


def solve_dense(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve an (possibly overdetermined) exact system; None if inconsistent.

    Requires the solution to be unique (full column rank); raises
    ValueError otherwise.
    """
    rows = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pr = rows[r]
        inv = 1 / pr[c]
        rows[r] = [v * inv for v in pr]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None  # inconsistent
    if len(pivot_of_col) < ncols:
        raise ValueError("system is underdetermined (rank-deficient)")
    return [rows[pivot_of_col[c]][ncols] for c in range(ncols)]


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    elim = SparseEliminator()
    for row in matrix:
        elim.add_row({j: v for j, v in enumerate(row) if v != 0})
    return elim.rank


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    n = len(matrix)
    rows = [list(map(Fraction, r)) for r in matrix]
    det = Fraction(1)
    for c in range(n):
        sel = None
        for i in range(c, n):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            return Fraction(0)
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    rows = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(matrix)]
    for c in range(n):
        sel = None
        for i in range(c, n):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            raise ValueError("matrix is singular")
        rows[c], rows[sel] = rows[sel], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]

