"""Trivalent diagrams on an oriented circle.

A diagram is a dashed trivalent graph attached to an oriented circle:
L legs (endpoints on the circle, cyclically ordered), T internal
trivalent vertices (each carrying a cyclic order of its three incident
half-edges), and a perfect matching of all half-edges into dashed edges.
The degree is (L + T) / 2.

Endpoint encoding: legs are 0..L-1 following the circle orientation;
slot s of internal vertex v is L + 3*v + s.  The stored slot order
(0, 1, 2) of a vertex *is* its positive cyclic order; reversing it flips
the diagram's sign (antisymmetry of the internal vertices).  A Diagram
stores only `partner`, the tuple whose entry x is the half-edge joined
to x; `edges`, the pairs (a, b) with a < b in order of a, is derived
from it.  IHX, leg swaps, chord drops, components and products move
half-edges through one index map, `_moved`, and build their result as
a new Diagram from the moved edges; STU's kernel
(`relations._resolved`) moves partner tuples the same way.  That every
dashed component reaches the circle is checked by one stack walk over
`partner` (`_components`).

Canonical forms quotient by circle rotation, vertex relabelling and
cyclic slot rotation; orientation reversals are tracked as signs.  The
canonical labelling minimizes a traversal code over rotations and
per-vertex orientation choices; vertex numbering is forced by discovery
order.  A rotation's first token (its first leg's partner, or L for a
vertex) does not depend on the orientations, so only the rotations
with the least first token are searched.  Each is searched depth
first: the traversal branches on a vertex's orientation at the step
where it is first read, so the orientation vectors share every prefix
before they differ, and a branch stops at its first token above the
least code so far.  A chord diagram (T = 0) has one branch and sign +1.

`_CANON_CACHE` is keyed by `(legs, vertices, partner)`, so a partner
tuple is looked up without building a Diagram.  Each class has one
canonical Diagram object: it is built and validated at the class's
first use, by an enumeration or a canonicalization, and cached as its
own form (sign +1, or 0 for a class of sign 0); every later input of
the class maps to that object.

Every enumeration (chord, one-vertex and connected diagrams) generates
partner lists, collects their `_least_code` codes and builds one
Diagram per class (`_classes`); no Diagram is built per source.  Chord
and one-vertex lists are only those whose leg 0 has the least first
token (`_least_first`): at degree 6, 1,456 lists give the 902 chord
classes and 2,349 give the 1,575 one-vertex classes, the 4T sources.
A connected diagram's vertices are numbered by their first legs around
the circle (legless vertices last, in breadth-first order), and its
edges are then one labelled multigraph on the remaining degrees: no
multigraph isomorphism is tested.  The breadth-first order is checked
at each vertex's last pair, inside the multigraph recursion.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import SparsePoly


def _components(legs: int, partner) -> list[int]:
    """Component number of every half-edge of the dashed graph, by one
    stack walk over `partner` (an edge joins its two ends, a vertex its
    three slots) from each half-edge not yet reached, in order.  So the
    components with legs come first, in the order of their first legs."""
    comp = [-1] * len(partner)
    count = 0
    for start in range(len(partner)):
        if comp[start] >= 0:
            continue
        stack = [start]
        while stack:
            x = stack.pop()
            if comp[x] >= 0:
                continue
            if x >= legs:
                x -= (x - legs) % 3
            for y in (x,) if x < legs else (x, x + 1, x + 2):
                comp[y] = count
                if comp[partner[y]] < 0:
                    stack.append(partner[y])
        count += 1
    return comp


def _has_tadpole(L: int, partner) -> bool:
    return any(p >= L and (p - L) // 3 == (x - L) // 3
               for x, p in enumerate(partner[L:], L))


def _pairs(partner) -> list[tuple[int, int]]:
    """The edges of a partner list as pairs (a, b), a < b, in order of a."""
    return [(a, b) for a, b in enumerate(partner) if a < b]


def _moved(d: Diagram, image) -> list[tuple[int, int]]:
    """The edges of d with each end x moved to image[x]; an edge whose
    ends map to -1 is dropped."""
    return [(image[a], image[b]) for a, b in enumerate(d.partner)
            if a < b and image[a] >= 0]


class Diagram:
    """Immutable trivalent diagram on an oriented circle, stored as
    `partner` (entry x is the half-edge joined to x); `edges` is derived.

    The edges may come in any order; one pass fills `partner` and checks
    each edge's ends, then every dashed component must reach the circle.
    """

    __slots__ = ("legs", "vertices", "partner", "_hash")

    def __init__(self, legs: int, vertices: int, edges):
        L, T = int(legs), int(vertices)
        if L < 0 or T < 0:
            raise ValueError("negative leg or vertex count")
        n = L + 3 * T
        if n % 2:
            raise ValueError("odd number of half-edges cannot be matched")
        edges = tuple(edges)
        if len(edges) != n // 2:
            raise ValueError(f"expected {n // 2} edges, got {len(edges)}")
        partner = [-1] * n
        for a, b in edges:
            if a == b:
                raise ValueError("edge endpoints must be distinct half-edges")
            for x in (a, b) if a < b else (b, a):
                if not 0 <= x < n:
                    raise ValueError(f"endpoint {x} out of range")
                if partner[x] >= 0:
                    raise ValueError(f"endpoint {x} used twice")
            partner[a], partner[b] = b, a
        self.legs = L
        self.vertices = T
        self.partner = partner = tuple(partner)
        self._hash = hash((L, T, partner))
        if T:
            # every dashed component must contain at least one leg; the
            # last-numbered one does only if all do
            comp = _components(L, partner)
            if max(comp) not in comp[:L]:
                raise ValueError(
                    "dashed component disconnected from the circle")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (a, b), a < b, in order of a."""
        return tuple(_pairs(self.partner))

    @property
    def degree(self) -> int:
        return (self.legs + self.vertices) // 2

    def has_tadpole(self) -> bool:
        """True if some edge joins two half-edges of the same vertex."""
        return _has_tadpole(self.legs, self.partner)

    def __eq__(self, other):
        return (isinstance(other, Diagram)
                and self.legs == other.legs
                and self.vertices == other.vertices
                and self.partner == other.partner)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Diagram({serialize(self)!r})"


EMPTY = Diagram(0, 0, ())


@dataclass(frozen=True)
class SignedDiagram:
    """A canonical diagram with the sign picked up while canonicalizing.

    Sign 0 means antisymmetry forces the diagram's value to vanish
    (tadpole edge, or an automorphism reversing an odd number of vertex
    orientations).
    """

    diagram: Diagram
    sign: int


def degree(d: Diagram) -> int:
    """Perturbative order of a diagram: (legs + internal vertices) / 2."""
    return d.degree


# --------------------------------------------------------------------------
# canonical labelling


_CANON_CACHE: dict[tuple, tuple[SignedDiagram, tuple]] = {}


def _canonical(L: int, T: int, partner: tuple) -> tuple[SignedDiagram, tuple]:
    """Canonical form and key of the diagram with this partner tuple,
    through `_CANON_CACHE`; no Diagram is built unless the class is new."""
    key = (L, T, partner)
    cached = _CANON_CACHE.get(key)
    if cached is None:
        code, sign = _least_code(L, T, partner)
        if _has_tadpole(L, partner):
            sign = 0
        cached = own = _own_form(L, T, code, sign)
        if sign != own[0].sign:
            cached = (SignedDiagram(own[0].diagram, sign), own[1])
        _CANON_CACHE[key] = cached
    return cached


def _own_form(L: int, T: int, code: tuple, sign: int) -> tuple[SignedDiagram, tuple]:
    """The cache entry of the class with this least code: its canonical
    Diagram (built and validated on the class's first use, then reused)
    with sign 1, or 0 for a class of sign 0."""
    partner = [0] * (L + 3 * T)
    sources = itertools.chain(range(L), *(
        (L + 3 * v + 1, L + 3 * v + 2) for v in range(T)))
    for s, t in zip(sources, code):
        partner[s], partner[t] = t, s
    own = _CANON_CACHE.get((L, T, tuple(partner)))
    if own is None:
        d = Diagram(L, T, _pairs(partner))
        own = (SignedDiagram(d, 1 if sign else 0), (T, L) + code)
        _CANON_CACHE[(L, T, d.partner)] = own
    return own


def _least_code(L: int, T: int, partner: list | tuple) -> tuple[tuple, int]:
    """Least traversal code of a diagram and its sign (0 if codes of both
    signs reach it).

    A depth-first search over the least-first-token rotations that
    fixes each vertex orientation where the traversal first reads it,
    pruned against the least code so far.  The least code and its set
    of orientation signs do not depend on the search order.
    """
    if not L:  # the empty diagram: no legs, so no vertices
        return (), 1
    # a rotation's first token (its first leg's partner, or L for a
    # vertex) does not depend on the orientations: only rotations with
    # the least one can reach the least code
    firsts = [(p - r) % L if p < L else L
              for r, p in enumerate(partner[:L])]
    least = min(firsts)
    size = L + 2 * T
    best = None
    signs = set()
    # One traversal code per (rotation, vertex orientations): the legs'
    # partners in circle order, then the two non-anchor slots of each
    # vertex in discovery order.  Vertex numbers follow discovery.  An
    # orientation eps[v] is first read where the traversal meets v again
    # at a non-anchor slot, or at step L + 2 * vid[v]; the search
    # branches there (+1 now, -1 saved on the stack with the prefix), so
    # orientation vectors share every step before they differ.  A code
    # is dropped as soon as it exceeds the best one.  A branch is saved
    # with a prefix <= best[:j], and the +1 sibling searched before it
    # resumes either reaches a leaf (the new best, sharing the prefix)
    # or is pruned against a best that already shares it: so a resumed
    # prefix always equals best[:j].
    for rotation in range(L):
        if firsts[rotation] != least:
            continue
        stack = [(0, [-1] * T, [0] * T, [], [], [0] * T)]
        while stack:
            j, vid, anchor, order, tokens, eps = stack.pop()
            undecided = best is not None  # still equal to best so far
            while j < size:
                if j < L:
                    ep = partner[(rotation + j) % L]
                else:
                    k = j - L
                    v = order[k >> 1]
                    e = eps[v]
                    if not e:
                        stack.append((j, vid[:], anchor[:], order[:],
                                      tokens[:], eps[:v] + [-1] + eps[v + 1:]))
                        e = eps[v] = 1
                    ep = partner[L + 3 * v
                                 + (anchor[v] + (1 + (k & 1)) * e) % 3]
                if ep < L:
                    t = (ep - rotation) % L
                else:
                    v, s = divmod(ep - L, 3)
                    new = vid[v]
                    if new < 0:
                        new = vid[v] = len(order)
                        anchor[v] = s
                        order.append(v)
                        t = L + 3 * new
                    else:
                        e = eps[v]
                        if not e:
                            stack.append((j, vid[:], anchor[:], order[:],
                                          tokens[:],
                                          eps[:v] + [-1] + eps[v + 1:]))
                            e = eps[v] = 1
                        t = L + 3 * new + (s - anchor[v]) * e % 3
                if undecided:
                    b = best[j]
                    if t > b:
                        break
                    if t < b:
                        undecided = False
                tokens.append(t)
                j += 1
            else:
                if undecided:
                    signs.add(math.prod(eps))
                else:
                    best = tuple(tokens)
                    signs = {math.prod(eps)}
    return best, 0 if len(signs) == 2 else signs.pop()


def canonicalize(d: Diagram) -> SignedDiagram:
    """Canonical representative of a diagram with its antisymmetry sign.

    Isomorphic inputs (circle rotations, vertex relabellings, cyclic slot
    rotations) map to the identical canonical diagram; each vertex whose
    cyclic order was reversed contributes a factor -1.  The sign is 0
    exactly when the value must vanish by antisymmetry.
    """
    return _canonical(d.legs, d.vertices, d.partner)[0]


def canonical_key(d: Diagram) -> tuple:
    """Total order key on isomorphism classes: (T, L, traversal code)."""
    return _canonical(d.legs, d.vertices, d.partner)[1]


# --------------------------------------------------------------------------
# linear combinations


class DiagramSum(SparsePoly):
    """Formal exact linear combination of canonical diagrams: the
    `laurent.SparsePoly` kernel keyed by canonical diagrams.

    `add` canonicalizes, applies the antisymmetry sign and stores the
    coefficient as given, so STU, IHX and 4T sums keep `int`
    coefficients; zero coefficients and sign-0 diagrams are dropped.
    All keys share one degree (`add` or `+` across two raises
    ValueError).  `add` mutates a sum, so sums are unhashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, terms=None):
        self.names = ()
        self.coeffs: dict[Diagram, int | Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for d, c in items:
                self.add(d, c)

    @property
    def terms(self) -> dict[Diagram, int | Fraction]:
        """The kernel's `coeffs`: canonical diagram -> coefficient."""
        return self.coeffs

    def add(self, d: Diagram, coeff) -> None:
        if coeff:
            self._add_signed(canonicalize(d), coeff)

    def _add_signed(self, sd: SignedDiagram, coeff) -> None:
        """Add coeff times a canonical form with its sign."""
        if sd.sign == 0:
            return
        key = sd.diagram
        terms = self.coeffs
        if terms and key.degree != next(iter(terms)).degree:
            raise ValueError("mixed degrees in a DiagramSum")
        v = terms.get(key, 0) + sd.sign * coeff
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)

    def __add__(self, other):
        other = self._lift(other)
        if (self.coeffs and other.coeffs and next(iter(self.coeffs)).degree
                != next(iter(other.coeffs)).degree):
            raise ValueError("mixed degrees in a DiagramSum")
        return super().__add__(other)

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: canonical_key(kv[0]))

    def __repr__(self):
        if not self.coeffs:
            return "DiagramSum(0)"
        bits = [f"{c} * {serialize(d)}" for d, c in self.items()]
        return "DiagramSum(" + " + ".join(bits) + ")"

    __str__ = __repr__


# --------------------------------------------------------------------------
# decomposition into connected components


@dataclass(frozen=True)
class Component:
    """A connected subdiagram and the circle positions of its legs."""

    diagram: Diagram
    leg_positions: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    components: tuple[Component, ...]
    overlapping: bool


def _interleaved(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True if the two position sets cannot be separated into two arcs."""
    labels = [w for _, w in sorted([(p, 0) for p in a] + [(p, 1) for p in b])]
    # the blocks of equal labels around the circle, one per label change
    return sum(x != y for x, y in zip(labels, labels[1:] + labels[:1])) > 2


def decompose(d: Diagram) -> DecompositionReport:
    """Connected components of the dashed graph and the overlap flag.

    Two components overlap when their legs interleave on the circle, so
    that no arc of the circle contains all legs of one of them.
    """
    L = d.legs
    comp = _components(L, d.partner)
    components = []
    # every component has a leg: numbered in the order of their first legs
    for c in range(max(comp, default=-1) + 1):
        # a component's half-edges, in order, are its new numbering
        mine = [x for x, k in enumerate(comp) if k == c]
        image = [-1] * len(comp)
        for i, x in enumerate(mine):
            image[x] = i
        legs = tuple(x for x in mine if x < L)
        sub = Diagram(len(legs), (len(mine) - len(legs)) // 3,
                      _moved(d, image))
        components.append(Component(sub, legs))

    overlapping = any(
        _interleaved(c1.leg_positions, c2.leg_positions)
        for c1, c2 in itertools.combinations(components, 2)
    )
    return DecompositionReport(tuple(components), overlapping)


def component_multiset(d: Diagram) -> tuple:
    """Canonical forms of the connected components, as a sorted tuple."""
    return tuple(sorted(
        (canonical_key(c.diagram) for c in decompose(d).components)
    ))


# --------------------------------------------------------------------------
# product, isolated chords


def product(d1: Diagram, d2: Diagram) -> Diagram:
    """Juxtapose two diagrams: all legs of d2 after all legs of d1."""
    L1, L2 = d1.legs, d2.legs
    n1, n2 = len(d1.partner), len(d2.partner)
    # legs of d1, legs of d2, slots of d1, slots of d2
    image1 = list(range(L1)) + list(range(L1 + L2, n1 + L2))
    image2 = list(range(L1, L1 + L2)) + list(range(n1 + L2, n1 + n2))
    return Diagram(L1 + L2, d1.vertices + d2.vertices,
                   _moved(d1, image1) + _moved(d2, image2))


def product_all(ds) -> Diagram:
    out = EMPTY
    for d in ds:
        out = product(out, d)
    return out


def has_isolated_chord(d: Diagram) -> bool:
    """True if some chord joins two circle-adjacent legs."""
    L, p = d.legs, d.partner
    return any(p[a] == (a + 1) % L for a in range(L))


# --------------------------------------------------------------------------
# text serialization (one diagram per line)


def _endpoint_text(ep: int, L: int) -> str:
    if ep < L:
        return str(ep + 1)
    v, s = divmod(ep - L, 3)
    return f"V{v + 1}.{s + 1}"


def serialize(d: Diagram) -> str:
    """Text form: `L=<n> T=<m> <ep>-<ep> ...` with legs numbered 1..L."""
    parts = [f"L={d.legs}", f"T={d.vertices}"]
    parts.extend(
        f"{_endpoint_text(a, d.legs)}-{_endpoint_text(b, d.legs)}"
        for a, b in d.edges
    )
    return " ".join(parts)


def parse(text: str) -> Diagram:
    """Inverse of `serialize`; a malformed field raises ValueError naming
    it."""
    fields = text.split()
    if len(fields) < 2 or not fields[0].startswith("L=") \
            or not fields[1].startswith("T="):
        raise ValueError(f"malformed diagram line: {text!r}")

    def checked(field: str, read):
        try:
            return read(field)
        except ValueError:  # not an integer, a wrong part count or range
            raise ValueError(f"malformed diagram field: {field!r}") from None

    L, T = (checked(f, lambda s: int(s[2:])) for f in fields[:2])

    def endpoint(s: str) -> int:
        if s.startswith("V"):
            v, slot = map(int, s[1:].split("."))
            if not (1 <= v <= T and 1 <= slot <= 3):
                raise ValueError
            return L + 3 * (v - 1) + slot - 1
        if not 1 <= int(s) <= L:
            raise ValueError
        return int(s) - 1

    def edge(f: str) -> tuple[int, int]:
        a, b = f.split("-")
        return endpoint(a), endpoint(b)

    return Diagram(L, T, [checked(f, edge) for f in fields[2:]])


# --------------------------------------------------------------------------
# diagram constructors and enumerations


def chord_diagram(pairs, n_legs: int | None = None) -> Diagram:
    """Chord diagram from a list of leg pairs (0-based positions)."""
    if n_legs is None:
        n_legs = 2 * len(pairs)
    return Diagram(n_legs, 0, pairs)


def _classes(L: int, T: int, partner_lists) -> list[Diagram]:
    """One canonical Diagram per class of the given partner lists, sorted
    by code; classes of sign 0 are dropped.

    Each list costs one `_least_code` call and builds no Diagram; only
    the classes are built (and validated), through `_own_form`, so a
    class already in `_CANON_CACHE` keeps its object, and each seeds
    the cache as its own canonical form with sign +1.  Callers pass
    tadpole-free lists only, so the tadpole rule of `_canonical`
    never applies and the code's sign is the class's sign.
    """
    codes = set()
    for partner in partner_lists:
        code, sign = _least_code(L, T, partner)
        if sign:
            codes.add(code)
    return [_own_form(L, T, code, 1)[0].diagram for code in sorted(codes)]


def _least_first(L: int, T: int):
    """Partner lists of the diagrams with L legs and T <= 1 vertices in
    which leg 0 has the least first token (one list, refilled in place).

    Leg 0 ends a chord (0, k) with k <= L/2, and every other chord
    (a, b), a < b, has k <= b - a <= L - k; the vertex's slots 0, 1, 2
    take three of the other legs in circle order.  `_least_code` reads
    only rotations with the least first token, so every class has one
    of these lists: a vertex leg's first token, L, exceeds every chord's,
    and the other cyclic order of the vertex gives the same class.
    """
    if L == 3 * T:  # no chord: the empty diagram, or a tripod
        yield list(range(L, 2 * L)) + list(range(L))
        return
    end = L + 3 * T  # one past the vertex's last slot
    partner = [-1] * end

    def rec(a, slot, k):
        while a < L and partner[a] >= 0:
            a += 1
        if a == L:
            if slot == end:
                yield partner
            return
        if slot < end:  # leg a on the vertex's next slot
            partner[a], partner[slot] = slot, a
            yield from rec(a + 1, slot + 1, k)
        for b in range(a + k, min(a + L - k, L - 1) + 1):
            if partner[b] < 0:
                partner[a], partner[b] = b, a
                yield from rec(a + 1, slot, k)
                partner[b] = -1
        partner[a] = -1

    for k in range(1, L // 2 + 1):
        partner[0], partner[k] = k, 0
        yield from rec(1, L, k)
        partner[k] = -1


@functools.cache
def chord_diagrams(n: int) -> list[Diagram]:
    """All canonical chord diagrams of degree n, sorted; built from the
    codes of the matchings whose leg 0 has the least first token
    (`_least_first`), one Diagram per class."""
    return _classes(2 * n, 0, _least_first(2 * n, 0))


@functools.cache
def one_vertex_diagrams(n: int) -> list[Diagram]:
    """Canonical degree-n diagrams with exactly one internal vertex.

    These are the sources of the four-term relations: the two leg
    resolutions of the vertex must agree in the chord-diagram quotient.
    They are built from the partner lists whose leg 0 ends a chord with
    the least first token and whose vertex sits on three other legs
    (`_least_first`).
    """
    return _classes(2 * n - 1, 1, _least_first(2 * n - 1, 1))


def _leg_sequences(L: int, T: int):
    """The legs' vertices in circle order, each vertex numbered by its
    first leg (a restricted growth string); only sequences that no
    rotation renumbers to a smaller one (one list, refilled in place)."""
    seq = []
    cap = 3 if T == 1 else 2  # a vertex with three legs has no edge

    def renumbered(s):
        first = {}
        return [first.setdefault(v, len(first)) for v in s]

    def rec(used):
        if len(seq) == L:
            if all(renumbered(seq[i:] + seq[:i]) >= seq for i in range(1, L)):
                yield seq
            return
        for v in range(min(used + 1, T)):
            if seq.count(v) < cap:
                seq.append(v)
                yield from rec(max(used, v + 1))
                seq.pop()

    yield from rec(0)


def _breadth_first_step(u: int, found: int, edges) -> int:
    """Vertex u's step of a breadth-first search from the vertices with
    legs, scanning neighbours in increasing number, that must find the
    others in the order of their numbers: the count of vertices found
    after the step, or -1 if u finds one out of order or was not found
    itself (then the search never reaches it, and the graph is not
    connected)."""
    if u >= found:
        return -1
    for w in sorted({a + b - u for a, b in edges if u in (a, b)}):
        if w == found:
            found += 1
        elif w > found:
            return -1
    return found


def _completions(free: list[int]):
    """Every labelled, loopless multigraph on vertices 0..T-1 in which
    vertex v has degree free[v], as an edge list, whose vertices of
    degree 3 come last, in breadth-first order from the others
    (`_breadth_first_step`).  A vertex's step is checked as soon as its
    last pair is placed, which prunes the whole subtree."""
    T = len(free)
    pairs = list(itertools.combinations(range(T), 2))
    left = free[:]

    def rec(idx: int, edges: list, found: int):
        if idx == len(pairs):
            if not any(left) and _breadth_first_step(T - 1, found, edges) >= 0:
                yield edges
            return
        a, b = pairs[idx]
        # (a, T - 1) is the last pair of a: it must fill a's degree
        last = b == T - 1
        for mult in range(min(left[a], left[b]), left[a] - 1 if last else -1,
                          -1):
            left[a] -= mult
            left[b] -= mult
            grown = edges + [(a, b)] * mult
            now = _breadth_first_step(a, found, grown) if last else found
            if now >= 0:
                yield from rec(idx + 1, grown, now)
            left[a] += mult
            left[b] += mult

    yield from rec(0, [], T - free.count(3))


def _leg_placements(L: int, T: int):
    """Partner lists of the connected diagrams whose L legs all end on
    the T vertices: one per (leg sequence, completion).

    A connected diagram rotates to its least renumbered leg sequence;
    numbering each vertex by its first leg, and legless vertices last in
    breadth-first order from the others, makes its edges a completion of
    the degrees 3 - legs(v).  Legs and then edges take each vertex's
    slots in order; another slot order only changes the sign.
    """
    for seq in _leg_sequences(L, T):
        legs = [0] * (L + 3 * T)
        slot = [L + 3 * v for v in range(T)]  # each vertex's next slot
        for pos, v in enumerate(seq):
            legs[pos], legs[slot[v]] = slot[v], pos
            slot[v] += 1
        for edges in _completions([3 - seq.count(v) for v in range(T)]):
            partner, end = legs[:], slot[:]
            for a, b in edges:
                partner[end[a]], partner[end[b]] = end[b], end[a]
                end[a] += 1
                end[b] += 1
            if max(_components(L, partner)) == 0:  # one component
                yield partner


def connected_diagrams(n: int, T: int) -> list[Diagram]:
    """Canonical connected degree-n diagrams with T internal vertices.

    Connected means the dashed graph is connected without using the
    circle; for n >= 2 this forces n-1 <= T <= 2n-2 and every leg edge
    to end on an internal vertex.
    """
    if n == 1:
        # the single chord is the only connected degree-1 diagram
        return [chord_diagram([(0, 1)])] if T == 0 else []
    if not n - 1 <= T < 2 * n:  # too few edges to connect, or no leg
        return []
    return _classes(2 * n - T, T, _leg_placements(2 * n - T, T))


def random_diagram(rng, deg: int, require_nonzero: bool = True) -> Diagram:
    """Random well-formed diagram of the given degree (seeded by rng)."""
    for _ in range(10000):
        T = rng.randrange(0, 2 * deg - 1) if deg else 0
        L = 2 * deg - T
        if L < 1 and deg:
            continue
        eps = list(range(L + 3 * T))
        rng.shuffle(eps)
        edges = [(eps[2 * i], eps[2 * i + 1]) for i in range(len(eps) // 2)]
        try:
            d = Diagram(L, T, edges)
        except ValueError:
            continue
        if require_nonzero and canonicalize(d).sign == 0:
            continue
        return d
    raise RuntimeError("failed to sample a diagram")
