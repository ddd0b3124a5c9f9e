import itertools
import math
import random
from fractions import Fraction

import pytest

from vassiliev.diagrams import chord_diagrams, has_isolated_chord
from vassiliev.factorization import SolvedFunctional, extract_alphas
from vassiliev.knot_table import knot, knot_names
from vassiliev.linalg import (
    SparseEliminator,
    determinant,
    invert,
    matrix_rank,
    rref,
    solve_dense,
)
from vassiliev.relations import four_t_relations, quotient_space
from vassiliev.weights import weight_sun_deframed_at


def rand_matrix(rng, rows, cols, density=0.8):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(
            (a[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


def minor_rank(a):
    """Largest k with a nonzero k x k minor (Leibniz determinants)."""
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if leibniz([[a[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def _reference_rref(matrix, ncols=None):
    """Dense Fraction Gauss-Jordan: an oracle independent of
    SparseEliminator.  Pivots only in the first `ncols` columns, each the
    first nonzero entry at or below the current row; returns (all rows,
    pivot columns)."""
    rows = [[Fraction(v) for v in r] for r in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        r = len(pivot_cols)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pivot = rows[r][c]
        prow = rows[r] = [v / pivot for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        pivot_cols.append(c)
    return rows, pivot_cols


def mat_vec(a, x):
    return [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def test_determinant_matches_leibniz():
    rng = random.Random(1)
    for n in range(0, 6):
        for density in (0.3, 0.8, 1.0):
            a = rand_matrix(rng, n, n, density)
            assert determinant(a) == leibniz(a), a
    # a row swap is the first pivot choice: det [[0, 1], [1, 0]] = -1
    assert determinant([[0, 1], [1, 0]]) == -1
    # every order of leads: each 4x4 permutation matrix times a diagonal
    for perm in itertools.permutations(range(4)):
        diag = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                for _ in range(4)]
        a = [[diag[i] if j == perm[i] else Fraction(0) for j in range(4)]
             for i in range(4)]
        assert determinant(a) == leibniz(a), a


def test_invert_is_two_sided_inverse():
    rng = random.Random(2)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n, n, 0.6)
        if not leibniz(a):
            with pytest.raises(ValueError):
                invert(a)
            continue
        inv = invert(a)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert [mat_vec(a, col) for col in transpose(inv)] == transpose(ident)
        assert [mat_vec(inv, col) for col in transpose(a)] == transpose(ident)
        checked += 1


def test_solve_dense_zero_residual():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(n, n + 3)
        a = rand_matrix(rng, m, n)
        if minor_rank(a) < n:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = mat_vec(a, x)
        sol = solve_dense(a, b)
        assert sol == x
        assert [u - v for u, v in zip(mat_vec(a, sol), b)] == [0] * m


def test_rank_matches_minors_and_transpose():
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, rng.choice((0.2, 0.5, 0.9)))
        if rng.random() < 0.3 and rows > 1:
            a[-1] = [2 * v - w for v, w in zip(a[0], a[1 % rows])]
        r = matrix_rank(a)
        assert r == minor_rank(a) == matrix_rank(transpose(a)), a


def test_rref_matches_reference():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = rand_matrix(rng, rows, cols, 0.5)
        ref, pivots = _reference_rref(a)
        assert rref(a) == (ref[:len(pivots)], pivots), a


def test_singular_and_inconsistent_systems():
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])
    assert determinant([[1, 2], [2, 4]]) == 0
    # consistent but rank-deficient: the solution is not unique
    with pytest.raises(ValueError):
        solve_dense([[1, 2], [2, 4]], [3, 6])
    with pytest.raises(ValueError):
        solve_dense([[1, 1, 0]], [1])
    # inconsistent, square and overdetermined
    assert solve_dense([[1, 2], [2, 4]], [3, 7]) is None
    assert solve_dense([[1], [1]], [0, 1]) is None
    assert solve_dense([[1, 0], [0, 1], [1, 1]], [1, 2, 3]) == [1, 2]


def _reference_reduce(pivots, vec):
    """Residual modulo the pivot rows by a Fraction row loop: the
    smallest pivot column is cancelled first."""
    vec = {c: Fraction(v) for c, v in vec.items() if v != 0}
    while True:
        cols = [c for c in vec if c in pivots]
        if not cols:
            return vec
        col = min(cols)
        piv = pivots[col]
        factor = vec[col] / piv[col]
        for c, v in piv.items():
            w = vec.get(c, Fraction(0)) - factor * v
            if w:
                vec[c] = w
            elif c in vec:
                del vec[c]


def _eliminate_checked(rows, ncols):
    """A SparseEliminator fed `rows`, checked after every add_row against
    the reference RREF of the rows so far: each pivot row holds exactly one
    pivot column, its least, and the pivot rows, each divided by its
    lead, are the nonzero rows of the dense RREF."""
    elim = SparseEliminator()
    dense: list[list[Fraction]] = []
    for row in rows:
        dense.append([row.get(c, 0) for c in range(ncols)])
        dense, cols = _reference_rref(dense)
        dense = dense[:len(cols)]  # same row space, fewer rows to reduce
        rank = elim.rank
        assert elim.add_row(row) == (len(cols) > rank)
        pivots = elim.pivots
        assert sorted(pivots) == cols
        for col, piv in pivots.items():
            assert min(piv) == col
            assert [c for c in piv if c in pivots] == [col]
        assert [[Fraction(pivots[col].get(c, 0), pivots[col][col])
                 for c in range(ncols)] for col in cols] == dense
    return elim


def _checked_residuals(elim, vecs):
    """elim's residuals of vecs, checked against the reference loop."""
    res = [elim.reduce(v) for v in vecs]
    assert res == [_reference_reduce(elim.pivots, v) for v in vecs]
    assert all(type(x) is Fraction for r in res for x in r.values())
    assert all(c not in elim.pivots for r in res for c in r)
    return res


def test_sparse_eliminator_reduce_matches_reference():
    rng = random.Random(23)

    def sparse_row(ncols, integral):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(1, 5)):
            v = rng.randint(-3, 3)
            row[c] = v if integral else Fraction(v, rng.randint(1, 4))
        return row

    for trial in range(30):
        ncols = rng.randint(4, 24)
        integral = trial % 2 == 0
        rows = [sparse_row(ncols, integral)
                for _ in range(rng.randint(1, ncols))]
        elim = _eliminate_checked(rows, ncols)
        assert elim.rank == matrix_rank(
            [[r.get(c, 0) for c in range(ncols)] for r in rows])
        _checked_residuals(
            elim, [sparse_row(ncols, rng.random() < 0.5) for _ in range(8)])


def test_sparse_eliminator_quotient_residuals_match_reference():
    # the 4T rows of degree <= 5 in their generated order, against the
    # dense RREF and the cached quotient (which feeds them shortest
    # first); every chord diagram's residual against the reference loop
    for n in range(1, 6):
        space = quotient_space(n, True)
        rows = [row for row in map(space._vector,
                                   four_t_relations(n).relations) if row]
        elim = _eliminate_checked(rows, len(space.diagrams))
        assert elim.pivots == space.eliminator.pivots
        vecs = [{space.index[d]: 1} for d in chord_diagrams(n)
                if not has_isolated_chord(d)]
        assert _checked_residuals(elim, vecs) == \
            [space.eliminator.reduce(v) for v in vecs]


def test_extraction_functionals_match_reference_rref(basis6):
    # no CLI golden reaches degrees 5-6, where the su(N) design is
    # rank-deficient: the ranks and solved functionals of every table
    # knot and mirror against the reference RREF of [W | s]
    probes = (2, 3, 4, 5)
    for name in knot_names():
        for pd in (knot(name), knot(name).mirror()):
            ex = extract_alphas(pd, basis6, 6, probes)
            for i in (5, 6):
                deg, elems = ex.degree(i), basis6.elements(i)
                ncols = len(elems)
                rows, cols = _reference_rref(
                    [[weight_sun_deframed_at(e.diagram, n) for e in elems]
                     + [ex.series_at(n)[i]] for n in probes], ncols)
                assert not any(row[ncols] for row in rows[len(cols):])
                assert deg.design_rank == len(cols)
                assert deg.connected_rank == sum(
                    1 for c in cols if elems[c].connected)
                assert deg.solved_functionals == tuple(
                    SolvedFunctional(tuple(row[:ncols]), row[ncols])
                    for row in rows[:len(cols)])
