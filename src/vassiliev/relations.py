"""STU/IHX relations and the chord-diagram quotient.

The degree-i space of group factors is computed inside the span of
chord diagrams (no internal vertices): internal vertices are eliminated
by repeated STU resolutions, and the four-term (4T) relations -- the
chord-level shadow of STU -- are generated mechanically as differences
of the leg resolutions of one-vertex diagrams.  The reduced quotient
additionally kills every diagram with an isolated chord.

One STU kernel, `_resolved`, maps a partner tuple to the partner tuples
of its two terms.  `stu` builds validated Diagrams from them; the 4T
rows and `reduce_to_chords` build none, and canonicalize only the chord
diagrams they end in.  The class of a diagram modulo 4T does not depend
on the order of the STU steps (Bar-Natan, Topology 34, 1995), so
`reduce_to_chords` expands in the order its terms come.

The reduced quotient is represented by an exact sparse row reduction of
the relation rows; membership, dimensions and coordinates all run over
exact rationals.  The framed quotient (4T alone) is A[theta], theta the
isolated chord: its dimensions and classes are read off the reduced
quotients of the lower degrees, with no elimination of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import (
    Diagram,
    DiagramSum,
    _canonical,
    _moved,
    _pairs,
    canonicalize,
    chord_diagrams,
    has_isolated_chord,
    one_vertex_diagrams,
)
from .linalg import SparseEliminator


# --------------------------------------------------------------------------
# STU


def _leg_partners(d: Diagram, v: int) -> list[int]:
    """Circle positions attached to vertex v, sorted."""
    base = d.legs + 3 * v
    return sorted(x for x in d.partner[base:base + 3] if x < d.legs)


def stu(d: Diagram, v: int, leg: int | None = None) -> DiagramSum:
    """Resolve internal vertex v along its edge to the circle.

    Returns the two-term combination equal to d in the quotient: the
    vertex and its leg edge are removed, the leg is replaced by two
    adjacent legs, and the two remaining attachments of v connect to
    them in the two possible orders (coefficients +1 and -1).  If v has
    several leg edges, the smallest leg position is used unless `leg`
    selects one explicitly.
    """
    if not 0 <= v < d.vertices:
        raise ValueError(f"no internal vertex {v}")
    legs_of_v = _leg_partners(d, v)
    if not legs_of_v:
        raise ValueError(f"vertex {v} is not adjacent to the circle")
    if leg is None:
        leg = legs_of_v[0]
    elif leg not in legs_of_v:
        raise ValueError(f"vertex {v} has no edge to leg {leg}")

    out = DiagramSum()
    for coeff, p in zip((1, -1), _resolved(d.legs, d.vertices, d.partner, leg)):
        out.add(Diagram(d.legs + 1, d.vertices - 1, _pairs(p)), coeff)
    return out


def _resolved(L: int, T: int, partner: tuple, leg: int) -> list[tuple]:
    """The partner tuples of STU's two terms at `leg`, whose edge ends on
    a vertex v: coefficients +1 and -1, in that order.

    Legs after `leg` move up one and vertices after v down one; the leg
    edge and v's slots map to -1, and v's other two ends a, b move to
    the new adjacent legs leg and leg + 1, in one order per term.  Entry
    i of a term is the moved partner of the half-edge that lands on i.
    """
    base = L + 3 * ((partner[leg] - L) // 3)
    s_line = partner[leg] - base
    a, b = base + (s_line + 1) % 3, base + (s_line + 2) % 3
    image = (list(range(leg)) + [-1] + list(range(leg + 2, L + 1))
             + list(range(L + 1, base + 1)) + [-1] * 3
             + list(range(base + 1, L + 3 * T - 2)))
    terms = []
    for x, y in ((a, b), (b, a)):  # the ends that land on leg, leg + 1
        image[x], image[y] = leg, leg + 1
        moved = [image[z] for z in partner]
        terms.append(tuple(moved[:leg] + [moved[x], moved[y]]
                           + moved[leg + 1:base] + moved[base + 3:]))
    return terms


# --------------------------------------------------------------------------
# IHX


def internal_edges(d: Diagram) -> list[tuple[int, int]]:
    """Edges joining two distinct internal vertices."""
    L = d.legs
    out = []
    for a, b in d.edges:
        if a >= L and b >= L and (a - L) // 3 != (b - L) // 3:
            out.append((a, b))
    return out


def ihx(d: Diagram, edge: tuple[int, int]) -> DiagramSum:
    """Rewire an internal edge into the two-term combination equal to d.

    With the edge anchored at both vertices, the two attachments of each
    vertex in positive cyclic order after the anchor are (A1, A2) and
    (B1, B2); the output is
        [u:(e,A1,B1), w:(e,A2,B2)] - [u:(e,A1,B2), w:(e,A2,B1)]
    which equals d whenever the vertex value satisfies the Jacobi
    identity.  Degree, vertex count and connectivity are preserved.
    """
    a, b = edge
    if not (0 <= a < len(d.partner) and d.partner[a] == b):
        raise ValueError("not an edge of the diagram")
    L = d.legs
    if a < L or b < L:
        raise ValueError("IHX needs an edge between two internal vertices")
    u, su = divmod(a - L, 3)
    w, sw = divmod(b - L, 3)
    if u == w:
        raise ValueError("IHX is undefined on a tadpole edge")

    # attachments in positive cyclic order after the anchor slots
    ua = [L + 3 * u + (su + 1) % 3, L + 3 * u + (su + 2) % 3]
    wa = [L + 3 * w + (sw + 1) % 3, L + 3 * w + (sw + 2) % 3]

    def rewire(sigma: dict[int, int]) -> Diagram:
        # move edge ends between slots: the end at position p lands on
        # sigma[p]; moving both ends of every edge handles edges joining
        # two moved slots correctly
        image = list(range(len(d.partner)))
        for x, y in sigma.items():
            image[x] = y
        return Diagram(L, d.vertices, _moved(d, image))

    out = DiagramSum()
    out.add(rewire({ua[1]: wa[0], wa[0]: ua[1]}), 1)
    out.add(rewire({ua[1]: wa[0], wa[0]: wa[1], wa[1]: ua[1]}), -1)
    return out


# --------------------------------------------------------------------------
# reduction to chord diagrams


def reduce_to_chords(d: Diagram) -> DiagramSum:
    """Express a diagram as chord diagrams by eliminating all vertices.

    The input is canonicalized once, and the expansion of each canonical
    input is memoized.  The expansion runs depth first on partner
    tuples: each term resolves the smallest leg on a vertex of the term
    as produced, so no intermediate term is canonicalized, and only the
    chord leaves are looked up in the canonical cache.  The sum depends
    on that order; it is well defined modulo the degree's 4T relations,
    which is all the quotient, weights and coordinates read.
    """
    sd = canonicalize(d)
    if sd.sign == 0:
        return DiagramSum()
    if not sd.diagram.vertices:
        return DiagramSum([(sd.diagram, sd.sign)])
    return _reduce_canonical(sd.diagram) * sd.sign


@functools.cache
def _reduce_canonical(d: Diagram) -> DiagramSum:
    L, T = d.legs, d.vertices
    leaves: dict[tuple, int] = {}
    stack = [(T, d.partner, 1)]
    while stack:
        t, p, c = stack.pop()
        if not t:
            leaves[p] = leaves.get(p, 0) + c
            continue
        legs = L + T - t  # each resolution adds a leg and drops a vertex
        leg = next(a for a in range(legs) if p[a] >= legs)
        for coeff, q in zip((1, -1), _resolved(legs, t, p, leg)):
            stack.append((t - 1, q, c * coeff))
    return _chord_sum(L + T, leaves.items())


def _chord_sum(L: int, terms) -> DiagramSum:
    """The sum of (partner tuple, coefficient) chord terms on L legs,
    each canonicalized through the cache without building a Diagram."""
    out = DiagramSum()
    for p, c in terms:
        out._add_signed(_canonical(L, 0, p)[0], c)
    return out


# --------------------------------------------------------------------------
# relation generators


@dataclass(frozen=True)
class RelationSet:
    """Generators of the degree's relations, each zero in the quotient."""

    degree: int
    relations: tuple[DiagramSum, ...]


@functools.cache
def four_t_relations(degree: int) -> RelationSet:
    """The 4T relations of a degree, generated as STU-resolution
    differences of every one-vertex diagram (single source of truth:
    nothing is hand-coded)."""
    rels = []
    for src in one_vertex_diagrams(degree):
        L = src.legs
        resolutions = [
            _chord_sum(L + 1, zip(_resolved(L, 1, src.partner, leg), (1, -1)))
            for leg in _leg_partners(src, 0)]
        for other in resolutions[1:]:
            diff = resolutions[0] - other
            if diff:
                rels.append(diff)
    return RelationSet(degree, tuple(rels))


# --------------------------------------------------------------------------
# the chord-diagram quotients at a fixed degree


class QuotientSpace:
    """Span of degree-i chord diagrams modulo 4T and isolated chords.

    `diagrams` is the ambient list of canonical chord diagrams without
    an isolated chord; the 4T rows are reduced incrementally, shortest
    first, and kept as integer pivot rows in reduced echelon form.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.diagrams = [c for c in chord_diagrams(degree)
                         if not has_isolated_chord(c)]
        self.index = {d: i for i, d in enumerate(self.diagrams)}
        self.eliminator = SparseEliminator()
        rows = map(self._vector, four_t_relations(degree).relations)
        for row in sorted(filter(None, rows), key=len):
            self.eliminator.add_row(row)

    def _vector(self, s: DiagramSum) -> dict[int, int | Fraction]:
        # distinct canonical keys have distinct columns: no re-accumulation
        vec: dict[int, int | Fraction] = {}
        for d, c in s.terms.items():
            idx = self.index.get(d)
            if idx is None:
                if has_isolated_chord(d):
                    continue  # killed in the reduced quotient
                raise ValueError(
                    f"not a degree-{self.degree} chord diagram: {d}")
            vec[idx] = c
        return vec

    @property
    def dimension(self) -> int:
        return len(self.diagrams) - self.eliminator.rank

    def residual(self, s: DiagramSum | Diagram) -> dict[int, Fraction]:
        """Representative of the class of s modulo the relations."""
        if isinstance(s, Diagram):
            s = reduce_to_chords(s)
        return self.eliminator.reduce(self._vector(s))

    def is_zero(self, s: DiagramSum | Diagram) -> bool:
        return not self.residual(s)

    def classes_equal(self, s1: DiagramSum, s2: DiagramSum) -> bool:
        return self.residual(s1 - s2) == {}


def _drop_chord(d: Diagram, a: int, b: int) -> Diagram:
    """The chord diagram d without its chord (a, b), a < b."""
    image = list(range(d.legs - 2))
    image.insert(a, -1)
    image.insert(b, -1)
    return canonicalize(Diagram(d.legs - 2, 0, _moved(d, image))).diagram


class FramedQuotientSpace(QuotientSpace):
    """Span of degree-n chord diagrams modulo 4T alone, read off the
    reduced quotients through A^fr = A[theta] (theta the isolated chord).

    For a chord diagram D and a set J of its chords, D_J keeps the chords
    of J.  y(D) = sum_J (-theta)^(n-|J|) D_J projects onto a complement
    of theta A^fr that maps isomorphically onto the reduced quotient, and
    y(D) has the reduced class of D; Moebius inversion gives
    D = sum_J theta^(n-|J|) y(D_J).  So the theta^k part of D's class is
    the sum over |J| = n-k of the reduced residual of D_J (0 when D_J has
    an isolated chord), and `residual` returns {(k, column): x}.  Each
    class is built from the degree-(n-1) classes of D minus one chord,
    which count every J with |J| = n-k exactly k times (`_framed_class`,
    memoized per chord diagram).  No 4T row is eliminated here.
    """

    def __init__(self, degree: int):
        self.degree = degree

    @property
    def dimension(self) -> int:
        return sum(quotient_space(k).dimension for k in range(self.degree + 1))

    def residual(self, s: DiagramSum | Diagram) -> dict:
        """The class of s as {(theta power k, reduced column): x}."""
        if isinstance(s, Diagram):
            s = reduce_to_chords(s)
        out: dict[tuple[int, int], Fraction] = {}
        for d, c in s.terms.items():
            if d.vertices or d.degree != self.degree:
                raise ValueError(
                    f"not a degree-{self.degree} chord diagram: {d}")
            for key, x in _framed_class(d).items():
                out[key] = out.get(key, 0) + c * x
        return {key: x for key, x in out.items() if x}


@functools.cache
def _framed_class(d: Diagram) -> dict[tuple[int, int], Fraction]:
    """Framed class of a canonical chord diagram, {(k, column): x}."""
    out = {(0, c): x for c, x in quotient_space(d.degree).residual(d).items()}
    for a, b in d.edges:
        for (k, c), x in _framed_class(_drop_chord(d, a, b)).items():
            out[(k + 1, c)] = out.get((k + 1, c), 0) + x / (k + 1)
    return {key: x for key, x in out.items() if x}


def quotient_space(degree: int, reduced: bool = True) -> QuotientSpace:
    """The degree's chord-diagram quotient: reduced (4T and isolated
    chords) or framed (4T alone, built from the reduced ones)."""
    return _quotient_space(degree, bool(reduced))


@functools.cache
def _quotient_space(degree: int, reduced: bool) -> QuotientSpace:
    # one positional key per (degree, reduced), whatever the call shape
    return (QuotientSpace if reduced else FramedQuotientSpace)(degree)


def dimension(degree: int, reduced: bool = True) -> int:
    """Number of independent group factors at the given degree.

    With reduced=True diagrams containing isolated chords are quotiented
    away as well (framing-independent setting); the framed dimension is
    sum_{k <= degree} d_k.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return quotient_space(degree, reduced).dimension
