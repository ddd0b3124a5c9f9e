"""Exact rational linear algebra.

Everything here works over exact rationals (or integer-scaled rows); no
floating point.  There are two kernels: `SparseEliminator`, an
incremental sparse integer RREF of the 4T relation rows in which every
pivot row holds exactly one pivot column, its least, and `rref`, dense
Fraction Gauss-Jordan for the small systems (order <= ~10) behind
solving, rank, determinants and inverses.  Inserting a row and reducing
a vector are each one pass of one integer row operation, `_cancel`, on
rows scaled to integers once (`_integer_row`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def _integer_row(row: dict[int, Fraction | int]) -> tuple[dict[int, int], int]:
    """(denom * row, denom) for the least denom making every entry an
    integer; zero entries are dropped."""
    denom = lcm(*(v.denominator for v in row.values()))
    return {c: int(v * denom) for c, v in row.items() if v}, denom


def _cancel(row: dict[int, int], piv: dict[int, int],
            col: int) -> dict[int, int]:
    """piv[col]*row - row[col]*piv: an integer row with no entry in
    column `col`."""
    a, b = piv[col], row[col]
    new = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        w = new.get(c, 0) - b * v
        if w:
            new[c] = w
        elif c in new:
            del new[c]
    return new


class SparseEliminator:
    """Incremental exact reduced row echelon form of sparse integer rows.

    Rows are dicts column -> int.  Pivot rows are kept integer (gcd
    normalized); each owns its least column, which no other pivot row
    holds, so they depend only on the row space.  `rank` is the
    row-space dimension and `reduce` maps any rational vector to its
    residual modulo the row space (the unique one supported off the
    pivot columns).
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict[int, Fraction | int]) -> bool:
        """Insert a row; returns True if it increased the rank.

        Each pivot column of the row is cancelled once; a nonzero
        remainder becomes the pivot of its least column, which is then
        cancelled out of every pivot row holding it.
        """
        row = _integer_row(row)[0]
        pivots = self.pivots
        for col in [c for c in row if c in pivots]:
            row = _cancel(row, pivots[col], col)
        if not row:
            return False
        row = _normalize_int_row(row)
        lead = min(row)
        for col, piv in pivots.items():
            if lead in piv:
                pivots[col] = _normalize_int_row(_cancel(piv, row, lead))
        pivots[lead] = row
        return True

    def reduce(self, vec: dict[int, Fraction | int]) -> dict[int, Fraction]:
        """Residual of `vec` modulo the accumulated row space.

        Scales `vec` to an integer row once, then cancels each pivot
        column it holds, multiplying the denominator by that pivot's
        lead; no cancellation brings in another pivot column.
        """
        row, denom = _integer_row(vec)
        pivots = self.pivots
        for col in [c for c in row if c in pivots]:
            denom *= pivots[col][col]
            row = _cancel(row, pivots[col], col)
        return {c: Fraction(v, denom) for c, v in row.items()}


def rref(matrix: list[list], ncols: int | None = None
         ) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Pivots are taken only in the first `ncols` columns (default: all),
    each the first nonzero entry at or below the current row; later
    columns (a right-hand side, an identity block) ride along.  Returns
    `(rows, pivot_cols, det)`: the reduced rows, whose i-th row has its
    unit pivot in column `pivot_cols[i]`, and the product of the pivots
    times the sign of the row swaps -- the determinant of a square
    leading block, and 0 when some column of it has no pivot.
    """
    rows = [[Fraction(v) for v in r] for r in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivot_cols)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            det = Fraction(0)
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            det = -det
        pivot = rows[r][c]
        det *= pivot
        prow = rows[r] = [v / pivot for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        pivot_cols.append(c)
    return rows, pivot_cols, det


def solve_dense(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve an (possibly overdetermined) exact system; None if inconsistent.

    Requires the solution to be unique (full column rank); raises
    ValueError otherwise.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots, _ = rref([list(r) + [v] for r, v in zip(matrix, rhs)],
                           ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None  # inconsistent
    if len(pivots) < ncols:
        raise ValueError("system is underdetermined (rank-deficient)")
    return [row[ncols] for row in rows[:ncols]]


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    return len(rref(matrix)[1])


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    return rref(matrix)[2]


def invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    rows, pivots, _ = rref(
        [list(r) + [int(i == j) for j in range(n)]
         for i, r in enumerate(matrix)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [r[n:] for r in rows]
