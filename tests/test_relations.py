import functools
import hashlib
import random

import pytest

from vassiliev import relations
from vassiliev.basis import _basis_eliminator, _leg_swap, shared_basis
from vassiliev.diagrams import (
    Diagram,
    DiagramSum,
    canonicalize,
    chord_diagram,
    chord_diagrams,
    connected_diagrams,
    decompose,
    has_isolated_chord,
    one_vertex_diagrams,
    product,
    random_diagram,
    serialize,
)
from vassiliev.laurent import Laurent1
from vassiliev.linalg import SparseEliminator
from vassiliev.relations import (
    dimension,
    four_t_relations,
    ihx,
    internal_edges,
    quotient_space,
    reduce_to_chords,
    stu,
)
from vassiliev.weights import weight_sun, weight_sun_deframed

TRIPOD = Diagram(3, 1, [(0, 3), (1, 4), (2, 5)])
CROSS = chord_diagram([(0, 2), (1, 3)])
NESTED = chord_diagram([(0, 1), (2, 3)])


def _line_adjacent(d):
    """(vertex, leg) pairs with an edge from the circle to the vertex."""
    out = []
    for a, b in d.edges:
        if a < d.legs <= b:
            out.append(((b - d.legs) // 3, a))
        elif b < d.legs <= a:
            out.append(((a - d.legs) // 3, b))
    return out


def test_stu_tripod_resolution():
    s = stu(TRIPOD, 0)
    terms = dict(s.terms)
    assert terms == {canonicalize(CROSS).diagram: 1,
                     canonicalize(NESTED).diagram: -1}


def test_stu_structure_preserved():
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        d = random_diagram(rng, rng.randint(2, 4))
        pairs = _line_adjacent(d)
        if not pairs:
            continue
        v, leg = pairs[rng.randrange(len(pairs))]
        out = stu(d, v, leg)
        for term in out.terms:
            assert term.degree == d.degree
            assert term.vertices == d.vertices - 1
        checked += 1


def test_stu_errors():
    with pytest.raises(ValueError):
        stu(TRIPOD, 3)
    # vertex 2 touches only other vertices, never the circle
    d = Diagram(3, 3, [(0, 3), (1, 4), (2, 6),
                       (5, 9), (7, 10), (8, 11)])
    assert all(v != 2 for v, _ in _line_adjacent(d))
    with pytest.raises(ValueError):
        stu(d, 2)


def test_ihx_structure_preserved():
    rng = random.Random(22)
    checked = 0
    while checked < 25:
        d = random_diagram(rng, rng.randint(2, 4))
        edges = internal_edges(d)
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        out = ihx(d, e)
        connected_in = len(decompose(d).components) == 1
        for term in out.terms:
            assert term.degree == d.degree
            assert term.vertices == d.vertices
            if connected_in:
                assert len(decompose(term).components) == 1
        checked += 1


def test_ihx_errors():
    with pytest.raises(ValueError):
        ihx(TRIPOD, (0, 3))  # touches the circle
    with pytest.raises(ValueError):
        ihx(TRIPOD, (4, 5))  # not an edge


def test_surgery_outputs_pinned():
    # sha256 of the terms every surgery gave before the surgeries shared
    # one index map: STU at every vertex and leg, IHX at every internal
    # edge, components, products, adjacent leg swaps, and the framed
    # residuals, which drop chords
    rng = random.Random(29)
    inputs = [random_diagram(rng, rng.randint(1, 5)) for _ in range(120)]
    inputs += one_vertex_diagrams(4) + connected_diagrams(4, 4)
    lines = []
    for d, other in zip(inputs, inputs[1:] + inputs[:1]):
        L = d.legs
        for a, b in enumerate(d.partner[:L]):
            if b >= L:
                lines.append(str(stu(d, (b - L) // 3, a)))
        lines += [str(ihx(d, e)) for e in internal_edges(d)]
        lines += [f"{serialize(c.diagram)} {c.leg_positions}"
                  for c in decompose(d).components]
        lines.append(serialize(product(d, other)))
        lines += [serialize(_leg_swap(d, p, (p + 1) % L)) for p in range(L)]
    # each framed class by the basis coordinates of its theta-power
    # parts, which do not depend on the quotient's column order
    basis = shared_basis(5)
    for d in chord_diagrams(5):
        parts: dict = {}
        for (k, c), x in quotient_space(5, False).residual(d).items():
            parts.setdefault(k, {})[c] = x
        coords = []
        for k, part in sorted(parts.items()):
            tags = len(quotient_space(5 - k).diagrams)
            res = _basis_eliminator(basis, 5 - k).reduce(part)
            assert min(res) >= tags
            coords.append((k, sorted((c - tags, x) for c, x in res.items())))
        lines.append(str(coords))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "0b69dc7d2d078646"


def test_reduce_chord_input_identity():
    assert reduce_to_chords(CROSS) == DiagramSum([(CROSS, 1)])


def test_reduce_tripod():
    assert reduce_to_chords(TRIPOD) == DiagramSum([(CROSS, 1), (NESTED, -1)])


def _reduce_alternative(d):
    """Independent elimination order: largest circle position first."""
    sd = canonicalize(d)
    if sd.sign == 0:
        return DiagramSum()

    def rec(dd):
        if dd.vertices == 0:
            return DiagramSum([(dd, 1)])
        best = None
        for a, b in dd.edges:
            if a < dd.legs <= b:
                cand = (a, (b - dd.legs) // 3)
            elif b < dd.legs <= a:
                cand = (b, (a - dd.legs) // 3)
            else:
                continue
            if best is None or cand[0] > best[0]:
                best = cand
        out = DiagramSum()
        for d2, c in stu(dd, best[1], best[0]).terms.items():
            for d3, c3 in rec(d2).terms.items():
                out.add(d3, c * c3)
        return out

    out = DiagramSum()
    for d2, c in rec(sd.diagram).terms.items():
        out.add(d2, sd.sign * c)
    return out


@functools.cache
def _reference_canonical(d):
    """The canonical-order recursion: STU at the smallest leg on a
    vertex, then each canonical term reduced and memoized in turn."""
    leg = next(a for a in range(d.legs) if d.partner[a] >= d.legs)
    out = DiagramSum()
    for t, c in stu(d, (d.partner[leg] - d.legs) // 3, leg).terms.items():
        out = out + (DiagramSum([(t, c)]) if not t.vertices
                     else _reference_canonical(t) * c)
    return out


def _reference_reduce(d):
    """reduce_to_chords as the canonical-order recursion."""
    sd = canonicalize(d)
    if sd.sign == 0:
        return DiagramSum()
    if not sd.diagram.vertices:
        return DiagramSum([(sd.diagram, sd.sign)])
    return _reference_canonical(sd.diagram) * sd.sign


def _with_vertices(rng, n, T):
    """Seeded degree-n diagram with exactly T vertices."""
    L = 2 * n - T
    while True:
        ends = list(range(L + 3 * T))
        rng.shuffle(ends)
        try:
            return Diagram(L, T, zip(ends[::2], ends[1::2]))
        except ValueError:
            continue  # a dashed component misses the circle


def _assert_reduction_matches_reference(space, d):
    assert space.residual(reduce_to_chords(d)) == \
        space.residual(_reference_reduce(d)), serialize(d)


def test_reduce_matches_canonical_order_recursion():
    # the depth-first expansion on partner tuples against the recursion
    # that canonicalizes every term, in every (degree, T) cell of
    # degrees 2..6: reduced and framed residuals, and the su(N) weights,
    # which are linear in the chord diagrams
    rng = random.Random(32)
    for n in range(2, 7):
        reduced, framed = quotient_space(n), quotient_space(n, False)
        for T in range(2 * n - 1):
            for _ in range(3):
                d = _with_vertices(rng, n, T)
                _assert_reduction_matches_reference(reduced, d)
                _assert_reduction_matches_reference(framed, d)
                ref = _reference_reduce(d).terms.items()
                for weight in (weight_sun, weight_sun_deframed):
                    assert weight(d) == sum(
                        (weight(c) * k for c, k in ref),
                        Laurent1.zero("N")), serialize(d)


def _reference_stu(d, leg):
    """STU's two terms at `leg` as validated Diagrams, from the index
    image over the edge list: legs after `leg` move up one, vertices
    after v down one, and v's other two ends land on leg, leg + 1."""
    L, T = d.legs, d.vertices
    base = L + 3 * ((d.partner[leg] - L) // 3)
    s = d.partner[leg] - base
    a, b = base + (s + 1) % 3, base + (s + 2) % 3
    image = (list(range(leg)) + [-1] + list(range(leg + 2, L + 1))
             + list(range(L + 1, base + 1)) + [-1] * 3
             + list(range(base + 1, L + 3 * T - 2)))
    out = []
    for a_pos, b_pos in ((leg, leg + 1), (leg + 1, leg)):
        image[a], image[b] = a_pos, b_pos
        out.append(Diagram(L + 1, T - 1, [(image[x], image[y])
                                          for x, y in d.edges if x != leg]))
    return out


def test_resolved_matches_validated_stu():
    rng = random.Random(33)
    inputs = [random_diagram(rng, rng.randint(2, 6), require_nonzero=False)
              for _ in range(150)] + one_vertex_diagrams(5)
    resolutions = 0
    for d in inputs:
        L = d.legs
        for leg in range(L):
            if d.partner[leg] < L:
                continue
            terms = _reference_stu(d, leg)
            assert relations._resolved(L, d.vertices, d.partner, leg) == \
                [t.partner for t in terms], serialize(d)
            v = (d.partner[leg] - L) // 3
            assert stu(d, v, leg) == DiagramSum([(terms[0], 1),
                                                 (terms[1], -1)])
            resolutions += 1
    assert resolutions > 500


def test_reduce_order_independent_mod_relations():
    rng = random.Random(23)
    for _ in range(20):
        d = random_diagram(rng, rng.randint(2, 5))
        space = quotient_space(d.degree, False)
        assert space.is_zero(reduce_to_chords(d) - _reduce_alternative(d)), \
            serialize(d)


def test_dimension_values():
    assert dimension(0, True) == 1
    assert dimension(1, True) == 0
    assert [dimension(i, True) for i in (2, 3, 4, 5)] == [1, 1, 3, 4]
    assert dimension(1, False) == 1
    assert [dimension(i, False) for i in (0, 2, 3, 4, 5)] == [1, 2, 3, 6, 10]


def test_dimension_degree_six():
    assert dimension(6, True) == 9
    assert dimension(6, False) == 19


def test_dimension_rejects_negative():
    with pytest.raises(ValueError):
        dimension(-1)


# --------------------------------------------------------------------------
# the 4T rows against the 4T relation written by hand on circle positions

# Bar-Natan's table (Topology 34, 1995), reduced and framed, degrees 0..6
REDUCED_DIMS = (1, 0, 1, 1, 3, 4, 9)
FRAMED_DIMS = (1, 1, 2, 3, 6, 10, 19)


def _from_word(word):
    """The chord diagram whose circle positions carry these chord labels."""
    ends: dict = {}
    for pos, label in enumerate(word):
        ends.setdefault(label, []).append(pos)
    return chord_diagram([tuple(e) for e in ends.values()])


@functools.cache
def _hand_four_t(degree):
    """The 4T relations on circle positions, with no STU: for each chord
    diagram, each end x of a chord b and each other chord a with ends a1
    and a2, x moved just before a1, just after a1, just before a2 and
    just after a2, with coefficients +1, -1, +1, -1 (nonzero sums)."""
    rels = []
    for d in chord_diagrams(degree):
        word = [0] * d.legs
        for label, (p, q) in enumerate(d.edges):
            word[p] = word[q] = label
        for x, b in enumerate(word):
            rest = word[:x] + word[x + 1:]
            for a in set(word) - {b}:
                a1, a2 = [pos for pos, label in enumerate(rest) if label == a]
                rel = DiagramSum()
                for pos, c in ((a1, 1), (a1 + 1, -1), (a2, 1), (a2 + 1, -1)):
                    rel.add(_from_word(rest[:pos] + [b] + rest[pos:]), c)
                if rel:
                    rels.append(rel)
    return tuple(rels)


@functools.cache
def _hand_oracle(degree, reduced):
    """(column index, eliminator) of the hand 4T rows over every chord
    class, or over those with no isolated chord (the others dropped)."""
    index = {d: i for i, d in enumerate(
        d for d in chord_diagrams(degree)
        if not (reduced and has_isolated_chord(d)))}
    elim = SparseEliminator()
    for rel in _hand_four_t(degree):
        elim.add_row({index[d]: c for d, c in rel.terms.items() if d in index})
    return index, elim


def _assert_four_t_matches_hand(degree):
    """Bar-Natan's dimensions from the hand rows alone, and the generated
    rows: nonzero integer rows over the reduced columns, each in the hand
    rows' span, of the same rank (so the same span)."""
    index, elim = _hand_oracle(degree, True)
    framed_index, framed = _hand_oracle(degree, False)
    assert len(index) - elim.rank == REDUCED_DIMS[degree]
    assert len(framed_index) - framed.rank == FRAMED_DIMS[degree]
    columns = list(relations._columns(degree))
    assert set(columns) == set(index)
    rels = four_t_relations(degree)
    assert rels.degree == degree
    for row in rels.relations:
        assert row and all(type(c) is int for c in row.values())
        assert not elim.reduce({index[columns[col]]: c
                                for col, c in row.items()})
    assert quotient_space(degree).eliminator.rank == elim.rank


@pytest.mark.parametrize("degree", range(6))
def test_four_t_rows_match_hand_relations(degree):
    _assert_four_t_matches_hand(degree)


def test_four_t_relations_vanish_in_quotient():
    # every hand 4T row is zero in the reduced and the framed quotient
    for degree in (2, 3, 4, 5):
        reduced, framed = quotient_space(degree), quotient_space(degree, False)
        for rel in _hand_four_t(degree):
            assert reduced.is_zero(rel) and framed.is_zero(rel)


def test_relation_and_reduction_coefficients_are_integers():
    # STU, IHX and 4T have +-1 coefficients: no Fraction enters the
    # relation layer
    for n in range(2, 7):
        for row in four_t_relations(n).relations:
            assert row and all(type(c) is int for c in row.values())
        for d in one_vertex_diagrams(n):
            assert all(type(c) is int
                       for c in reduce_to_chords(d).terms.values())


# --------------------------------------------------------------------------
# the framed quotient against a direct elimination of the hand 4T rows over
# all chord diagrams (no isolated-chord filter, no A[theta])


@pytest.mark.parametrize("degree", range(6))
def test_framed_dimension_matches_elimination(degree):
    index, elim = _hand_oracle(degree, False)
    assert dimension(degree, False) == len(index) - elim.rank
    # the classes of the chord diagrams span a space of that dimension
    space = quotient_space(degree, False)
    cols: dict = {}
    spanned = SparseEliminator()
    for d in index:
        spanned.add_row({cols.setdefault(key, len(cols)): x
                         for key, x in space.residual(d).items()})
    assert spanned.rank == dimension(degree, False)


def test_framed_is_zero_matches_elimination():
    rng = random.Random(61)
    zeros = nonzeros = 0
    for degree in range(6):
        index, elim = _hand_oracle(degree, False)
        ambient = list(index)
        rels = _hand_four_t(degree)
        space = quotient_space(degree, False)
        for _ in range(80):
            v = DiagramSum()
            for _ in range(rng.randint(0, 3) if rels else 0):
                v = v + rng.choice(rels) * rng.randint(-3, 3)
            if not v or rng.random() < 0.5:
                for _ in range(rng.randint(1, 2)):
                    v = v + DiagramSum([(rng.choice(ambient),
                                         rng.randint(-2, 2))])
            expected = not elim.reduce(
                {index[d]: c for d, c in v.terms.items()})
            assert space.is_zero(v) == expected, (degree, v)
            zeros += expected
            nonzeros += not expected
    assert zeros >= 100 and nonzeros >= 100


def test_framed_class_shifts_under_theta():
    theta = chord_diagram([(0, 1)])
    rng = random.Random(62)
    for _ in range(30):
        degree = rng.randint(0, 4)
        d = rng.choice(chord_diagrams(degree))
        before = quotient_space(degree, False).residual(d)
        after = quotient_space(degree + 1, False).residual(product(theta, d))
        assert after == {(k + 1, c): x for (k, c), x in before.items()}


def test_framed_quotient_eliminates_no_rows(monkeypatch):
    for degree in range(5):
        quotient_space(degree, True)
    # a fresh framed space whose classes start from an empty memo
    monkeypatch.setattr(relations, "_framed_class", functools.cache(
        relations._framed_class.__wrapped__))
    calls = []
    add_row = SparseEliminator.add_row

    def counting(self, row):
        calls.append(row)
        return add_row(self, row)

    monkeypatch.setattr(SparseEliminator, "add_row", counting)
    space = relations.FramedQuotientSpace(4)
    assert space.dimension == 6
    assert all(space.is_zero(rel) for rel in _hand_four_t(4))
    assert relations._framed_class.cache_info().currsize > 0
    assert calls == []
