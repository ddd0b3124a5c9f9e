"""Exact rational linear algebra.

Everything here works over exact rationals (or integer-scaled rows); no
floating point.  There is one kernel, `SparseEliminator`: an incremental
sparse integer RREF in which every pivot row holds exactly one pivot
column, its least.  It reduces the 4T relation rows and, through `rref`
and `determinant`, the small dense systems (order <= ~10) behind
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
        # non-pivot column -> the pivot columns whose rows hold it
        self._holders: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict[int, Fraction | int]) -> bool:
        """Insert a row; returns True if it increased the rank.

        Each pivot column of the row is cancelled once; a nonzero
        remainder becomes the pivot of its least column, which is then
        cancelled out of the pivot rows holding it, found through the
        column index.
        """
        row = _integer_row(row)[0]
        pivots, holders = self.pivots, self._holders
        for col in [c for c in row if c in pivots]:
            row = _cancel(row, pivots[col], col)
        if not row:
            return False
        row = _normalize_int_row(row)
        lead = min(row)
        for col in holders.pop(lead, ()):
            old = pivots[col]
            pivots[col] = new = _normalize_int_row(_cancel(old, row, lead))
            for c in old.keys() - new.keys() - {lead}:
                holders[c].discard(col)
            for c in new.keys() - old.keys():
                holders.setdefault(c, set()).add(col)
        pivots[lead] = row
        for c in row.keys() - {lead}:
            holders.setdefault(c, set()).add(lead)
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


def rref(matrix: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a dense matrix: `(rows, pivot_cols)`,
    the nonzero rows of `SparseEliminator`'s RREF in pivot-column order,
    the i-th scaled to a unit pivot in column `pivot_cols[i]`."""
    ncols = len(matrix[0]) if matrix else 0
    elim = SparseEliminator()
    for row in matrix:
        elim.add_row(dict(enumerate(row)))
    pivots = elim.pivots
    cols = sorted(pivots)
    return [[Fraction(pivots[c].get(j, 0), pivots[c][c]) for j in range(ncols)]
            for c in cols], cols


def solve_dense(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve an (possibly overdetermined) exact system; None if inconsistent.

    Requires the solution to be unique (full column rank); raises
    ValueError otherwise.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = rref([list(r) + [v] for r, v in zip(matrix, rhs)])
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) < ncols:
        raise ValueError("system is underdetermined (rank-deficient)")
    return [row[ncols] for row in rows]


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    return len(rref(matrix)[1])


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by row reduction: each row's residual modulo the rows
    above it keeps the determinant and is zero on every earlier lead, so
    in lead order the residuals are triangular."""
    elim = SparseEliminator()
    det = Fraction(1)
    leads: list[int] = []
    for row in matrix:
        res = elim.reduce(dict(enumerate(row)))
        if not res:
            return Fraction(0)
        lead = min(res)
        det *= res[lead]
        leads.append(lead)
        elim.add_row(res)
    inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
    return -det if inversions % 2 else det


def invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    rows, pivots = rref([list(r) + [int(i == j) for j in range(n)]
                         for i, r in enumerate(matrix)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in rows]
