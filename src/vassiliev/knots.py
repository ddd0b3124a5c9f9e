"""Knot diagrams and polynomial invariants.

Planar diagrams use the standard PD convention: crossing X(a,b,c,d)
lists the four incident arcs counterclockwise starting at the incoming
under-strand arc; arcs are numbered sequentially along the oriented
knot, so the under-strand runs a -> c and the crossing is positive when
the over-strand runs d -> b (i.e. b follows d).  Each component of a
link is numbered on its own, and the text form writes each free loop as
`O`.  The labels are the only source of the crossing signs and of the
component count (PlanarDiagram._read_labels).  A code must draw a planar
diagram: each connected shadow with m crossings bounds m + 2 faces.

Braid closures, rational tangles, the skein's oriented smoothing and its
curl and bigon removal rewire ports the same way: they join real ports
and pseudo nodes into an edge list, and one pseudo-node splice
(_splice_pseudo) turns it into a port wiring plus a count of free loops.

Invariants:
  * kauffman_bracket / jones -- the state sum contracted one crossing
    at a time: a partial state pairs the frontier corners between the
    contracted and the remaining crossings and carries a
    {(A exponent, closed loops): count} histogram, so the work follows
    the frontier's width, not 2^n.  One power of delta per loop count,
    writhe-corrected and normalized to 1 on the unknot; at most
    BRACKET_CROSSING_BUDGET crossings and COMPONENT_BUDGET components;
  * homfly -- skein recursion (a^{-1} P+ - a P- = z P0, unknot = 1)
    toward descending diagrams.  Each state first loses its curls
    (Reidemeister I) and bigons (Reidemeister II); a descending state
    is then evaluated at once, and any other is memoized on its walk
    code, which records every arc but is not minimized over crossing
    ids: after the removal few states recur, and a least-code search
    cost more than its extra hits saved.  At most HOMFLY_CROSSING_BUDGET
    crossings and COMPONENT_BUDGET components;
  * sun_slice -- the su(N) slice a = q^N, z = q - q^{-1}, expanded by
    the binomial theorem; at N = 2 it recovers jones with t = q^2.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .laurent import Laurent1, Laurent2


class BudgetExceededError(RuntimeError):
    """Raised when a diagram exceeds a crossing or component budget."""


HOMFLY_CROSSING_BUDGET = 10
# at 16 crossings jones takes about 0.7 ms on the closure T(3,8) and at
# most 4 ms on 300 seeded 16-letter closures on 2-9 strands (Python
# 3.11, 2-vCPU VM); raising the limit would change which inputs exit 3
BRACKET_CROSSING_BUDGET = 16
# components, free loops included: an n-component unlink has an n-term
# answer with n-bit coefficients, so free strands cost as crossings do
COMPONENT_BUDGET = 100


def check_component_budget(components: int) -> None:
    """Raise BudgetExceededError above COMPONENT_BUDGET components."""
    if components > COMPONENT_BUDGET:
        raise BudgetExceededError(
            f"{components} components exceed the component budget of "
            f"{COMPONENT_BUDGET}")


def check_crossing_budget(crossings: int, invariant: str) -> None:
    """Raise BudgetExceededError above the "bracket" or "skein" budget."""
    budget = {"bracket": BRACKET_CROSSING_BUDGET,
              "skein": HOMFLY_CROSSING_BUDGET}[invariant]
    if crossings > budget:
        raise BudgetExceededError(
            f"{crossings} crossings exceed the {invariant} budget of "
            f"{budget}")


# --------------------------------------------------------------------------
# planar diagrams


def _arc_ends(crossings) -> list[int]:
    """Corner 4k + p is port p of crossing k; entry c is the corner at
    the far end of the arc at corner c."""
    ends = [0] * (4 * len(crossings))
    first: dict[int, int] = {}
    for c, arc in enumerate(a for cr in crossings for a in cr):
        if arc in first:
            ends[c], ends[first[arc]] = first[arc], c
        else:
            first[arc] = c
    return ends


class PlanarDiagram:
    """A knot/link diagram as a list of PD crossings plus free loops.

    The arc labels are the only source of orientation: the crossing
    signs and the component count (free loops included) are read from
    them once, on construction.
    """

    __slots__ = ("crossings", "loops", "components", "_signs")

    def __init__(self, crossings, loops: int = 0):
        self.crossings = tuple(tuple(int(x) for x in c) for c in crossings)
        self.loops = int(loops)
        if not self.crossings and self.loops == 0:
            self.loops = 1  # the empty PD denotes the unknot
        self._validate()

    def _validate(self) -> None:
        counts: dict[int, int] = {}
        for c in self.crossings:
            if len(c) != 4:
                raise ValueError(f"crossing {c} must have four arcs")
            for a in c:
                counts[a] = counts.get(a, 0) + 1
        n = len(self.crossings)
        if self.crossings:
            expected = set(range(1, 2 * n + 1))
            if set(counts) != expected or any(v != 2 for v in counts.values()):
                raise ValueError("arcs must be 1..2n, each appearing twice")
        self._read_labels()
        # each arc must be an in-port (0 and the over-in) exactly once
        ins = {c[p] for c, s in zip(self.crossings, self._signs)
               for p in (0, _over_in(s))}
        if len(ins) != 2 * n:
            arc = min(set(counts) - ins)
            raise ValueError(f"arc {arc} leaves two crossings and enters none")
        self._check_planar()

    def _check_planar(self) -> None:
        """Euler's formula: a connected shadow with m crossings (2m arcs)
        bounds m + 2 faces exactly when it is drawn on the sphere, and
        fewer on any other surface."""
        n = len(self.crossings)
        other = _arc_ends(self.crossings)
        # a face: along the arc, then to the previous port of its far end
        step = [(o & ~3) | ((o - 1) & 3) for o in other]
        seen = [False] * (4 * n)
        faces = 0
        for start in range(4 * n):
            if not seen[start]:
                faces += 1
                c = start
                while not seen[c]:
                    seen[c] = True
                    c = step[c]
        shadows, reached = 0, set()
        for k in range(n):
            if k not in reached:
                shadows += 1
                stack = [k]
                while stack:
                    x = stack.pop()
                    if x not in reached:
                        reached.add(x)
                        stack += [o >> 2 for o in other[4 * x:4 * x + 4]]
        if faces != n + 2 * shadows:
            raise ValueError(
                f"{n} crossings in {shadows} connected shadow(s) bound "
                f"{faces} faces, not {n + 2 * shadows}: the PD code is "
                "not planar")

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def _read_labels(self) -> None:
        """Set the crossing signs and the component count from the
        sequential arc numbering.

        Each link component is numbered on its own: arc x + 1 follows
        arc x, and the component's least label follows its largest.  The
        two arcs of a one-crossing curl, and of a two-arc component that
        passes under at one of its two crossings, are told apart by that
        under strand.  A two-arc component that passes over at both is
        read as `to_planar` numbers it: its smaller label enters the
        later crossing (in list order).
        """
        strands: dict[int, list[int]] = {}  # arc -> arcs it runs into
        for a, b, c, d in self.crossings:
            for x, y in ((a, c), (c, a), (b, d), (d, b)):
                strands.setdefault(x, []).append(y)
        span: dict[int, tuple[int, int]] = {}  # arc -> its component's range
        self.components = self.loops
        for start in strands:
            if start in span:
                continue
            self.components += 1
            comp, stack = {start}, [start]
            while stack:
                for y in strands[stack.pop()]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            lo, hi = min(comp), max(comp)
            if hi - lo + 1 != len(comp):
                raise ValueError(f"arcs {sorted(comp)} of one component "
                                 "are not numbered consecutively")
            for x in comp:
                span[x] = (lo, hi)

        def follows(x, y):  # x == y + 1 within y's component, cyclically
            lo, hi = span[y]
            return x == (lo if y == hi else y + 1)

        out = []
        for k, (a, b, c, d) in enumerate(self.crossings):
            pos, neg = follows(b, d), follows(d, b)
            if pos and neg and b != d:
                if {a, c} == {b, d}:
                    # a curl: the under strand's out-arc enters the over
                    pos = d == c
                else:
                    # a two-arc component through crossings k and j: if
                    # it passes under at j, the arc leaving j enters k;
                    # if over at both, its labels decide
                    j = next(i for i, cr in enumerate(self.crossings)
                             if i != k and b in cr)
                    if b in self.crossings[j][0::2]:
                        pos = d == self.crossings[j][2]
                    else:
                        pos = d == (max(b, d) if k < j else min(b, d))
                out.append(1 if pos else -1)
            elif pos and neg:
                raise ValueError(
                    f"crossing X({a},{b},{c},{d}): ambiguous "
                    "over-strand direction")
            elif pos:
                out.append(1)
            elif neg:
                out.append(-1)
            else:
                raise ValueError(
                    f"crossing X({a},{b},{c},{d}): over-strand direction "
                    "is not consistent with sequential numbering")
        self._signs = tuple(out)

    def signs(self) -> tuple[int, ...]:
        """Crossing signs, as read from the arc labels (`_read_labels`)."""
        return self._signs

    def writhe(self) -> int:
        return sum(self.signs())

    def mirror(self) -> "PlanarDiagram":
        """Reflected diagram: corner order reversed, under-in kept."""
        return PlanarDiagram([(a, d, c, b) for (a, b, c, d) in self.crossings],
                             self.loops)

    def __eq__(self, other):
        return (isinstance(other, PlanarDiagram)
                and self.crossings == other.crossings
                and self.loops == other.loops)

    def __hash__(self):
        return hash((self.crossings, self.loops))

    def __repr__(self):
        return f"PlanarDiagram({pd_to_text(self)!r})"


def pd_to_text(pd: PlanarDiagram) -> str:
    """`X(a,b,c,d) ...` plus one `O` per free loop; `unknot` alone."""
    if not pd.crossings and pd.loops == 1:
        return "unknot"
    return " ".join([f"X({a},{b},{c},{d})" for (a, b, c, d) in pd.crossings]
                    + ["O"] * pd.loops)


def parse_pd(text: str) -> PlanarDiagram:
    """Parse `X(a,b,c,d) X(...) ... O ...` (commas between crossings
    allowed), where each `O` is a free loop."""
    text = text.strip()
    if text.lower() in ("unknot", "0_1", ""):
        return PlanarDiagram([], 1)
    crossings = []
    loops = 0
    for chunk in text.replace("),", ") ").split():
        chunk = chunk.strip().rstrip(",")
        if chunk == "O":
            loops += 1
            continue
        if not chunk:
            continue
        if not (chunk.startswith("X(") and chunk.endswith(")")):
            raise ValueError(f"malformed PD crossing: {chunk!r}")
        try:
            labels = tuple(int(x) for x in chunk[2:-1].split(","))
        except ValueError:  # a label that is not an integer
            labels = ()
        if len(labels) != 4:
            raise ValueError(f"malformed PD crossing: {chunk!r}")
        crossings.append(labels)
    return PlanarDiagram(crossings, loops)


@dataclass(frozen=True)
class BraidWord:
    """Signed generator word in the braid group on `strands` strands."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters):
        letters = tuple(int(x) for x in letters)
        if strands < 1:
            raise ValueError("need at least one strand")
        for x in letters:
            if x == 0 or abs(x) >= strands:
                raise ValueError(f"braid letter {x} out of range for "
                                 f"{strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)


# --------------------------------------------------------------------------
# Kauffman bracket and Jones


def kauffman_bracket(pd: PlanarDiagram) -> Laurent1:
    """Normalized bracket: state sum with <unknot> = 1 (variable A).

    A state's term A^(n - 2b) delta^(loops - 1) depends only on its number
    b of B-smoothings and its loop count.  The 2^n states are not visited
    one by one: the crossings are contracted one at a time (Kauffman's
    state model read as a planar contraction), next the one with the most
    arcs into the part contracted so far, the lowest index among equals.
    The frontier is the corners of the crossings left whose arc leads
    into that part.  A partial state is the pairing of the frontier by
    the strands through the contracted part, and it carries a
    {(A exponent, closed loops): count} histogram.  A step costs in
    proportion to the partial states, which the frontier's width bounds;
    the last leaves the empty pairing, whose histogram adds one Laurent
    polynomial times delta^(loops - 1) per loop count.
    """
    n = len(pd.crossings)
    check_crossing_budget(n, "bracket")
    check_component_budget(pd.components)
    arc = _arc_ends(pd.crossings)
    left = set(range(n))
    score = [-j for j in range(n)]  # n * (arcs into the part) - index
    pos = [-1] * (4 * n)  # a corner's frontier index, once it has one
    frontier: list[int] = []
    # frontier pairing -> {(A exponent, loops): count}, free loops counted
    states = {(): {(0, pd.loops): 1}}
    for _ in range(n):
        k = max(left, key=score.__getitem__)
        left.remove(k)
        kept = [c for c in frontier if c >> 2 != k]
        # slot[p] is (old frontier index, 0) when corner p's arc leads
        # into the part, else (-1, e): e = ~q for a curl to corner q of
        # k, or the new frontier index of the arc's far end
        slot, fresh = [], []
        for c in range(4 * k, 4 * k + 4):
            d = arc[c]
            score[d >> 2] += n
            if pos[c] >= 0:
                slot.append((pos[c], 0))
            elif d >> 2 == k:
                slot.append((-1, ~(d & 3)))
            else:
                slot.append((-1, len(kept) + len(fresh)))
                fresh.append(d)
        src = [pos[c] for c in kept]
        pad = [-1] * len(fresh)
        for i, c in enumerate(kept + fresh):
            pos[c] = i
        # old frontier index -> new index, or ~p at corner p of k
        renum = [~(c & 3) if c >> 2 == k else pos[c] for c in frontier]
        frontier = kept + fresh
        nxt: dict[tuple, dict] = {}
        for pair, hist in states.items():
            ext = [renum[pair[i]] if i >= 0 else e for i, e in slot]
            base = [renum[pair[i]] for i in src] + pad
            # A joins corners p, p^1 and B joins p, p^3
            for flip, da in ((1, 1), (3, -1)):
                new = base[:]
                seen = loops = 0
                for p in range(4):  # each strand from frontier to frontier
                    e = ext[p]
                    if e < 0 or seen >> p & 1:
                        continue
                    q = p ^ flip
                    seen |= 1 << p | 1 << q
                    f = ext[q]
                    while f < 0:  # on through another corner of k
                        q = ~f ^ flip
                        seen |= 1 << ~f | 1 << q
                        f = ext[q]
                    new[e], new[f] = f, e
                for p in range(4):
                    if not seen >> p & 1:  # a loop closes at k
                        loops += 1
                        q = p
                        while not seen >> q & 1:
                            seen |= 1 << q | 1 << ~ext[q]
                            q = ~ext[q] ^ flip
                key = tuple(new)
                h = nxt.get(key)
                if h is None:
                    h = nxt[key] = {}
                for (a, l), count in hist.items():
                    kk = (a + da, l + loops)
                    h[kk] = h.get(kk, 0) + count
        states = nxt
    classes: dict[int, Counter] = defaultdict(Counter)
    for (a, l), count in states[()].items():
        classes[l][a] += count
    # the sum over loop counts of terms * delta^(loops - 1), by Horner
    delta = Laurent1({2: -1, -2: -1}, var="A")
    total = Laurent1.zero(var="A")
    for loops in range(max(classes), 0, -1):
        total = total * delta + Laurent1(classes.get(loops, {}), var="A")
    return total


def jones(pd: PlanarDiagram) -> Laurent1:
    """Jones polynomial in t, unknot-normalized, writhe-corrected."""
    bracket = kauffman_bracket(pd)
    w = pd.writhe()
    # multiply by (-A^3)^(-w); the sign is (-1) ** abs(w), as (-1) ** w
    # is a float for w < 0
    corr = Laurent1.term((-1) ** abs(w), -3 * w, var="A")
    f = bracket * corr
    out = {}
    for e, coeff in f.coeffs.items():
        if e % 4:
            raise ValueError("the Jones polynomial of a link with an even "
                             "number of components lies in t^(1/2), which "
                             "is not supported")
        out[-e // 4] = coeff
    return Laurent1(out, var="t")


# --------------------------------------------------------------------------
# oriented diagram state for the skein recursion


def _over_in(sign: int) -> int:
    return 3 if sign > 0 else 1


class _OrientedState:
    """Link diagram as signed crossings plus a port wiring.

    Ports 0..3 counterclockwise with 0 = under-in; the over strand runs
    3 -> 1 on positive and 1 -> 3 on negative crossings.  Arcs pair an
    out-port with an in-port.
    """

    __slots__ = ("signs", "wiring", "loops")

    def __init__(self, signs: dict, wiring: dict, loops: int):
        self.signs = signs  # crossing id -> +-1
        self.wiring = wiring  # (id, port) -> (id, port), symmetric
        self.loops = loops

    @classmethod
    def from_planar(cls, pd: PlanarDiagram) -> "_OrientedState":
        wiring = {(c >> 2, c & 3): (e >> 2, e & 3)
                  for c, e in enumerate(_arc_ends(pd.crossings))}
        return cls(dict(enumerate(pd.signs())), wiring, pd.loops)

    def out_ports(self) -> list:
        return sorted((k, p) for k, s in self.signs.items()
                      for p in (2, 1 if s > 0 else 3))

    def _walk_components(self):
        """Yield components as lists of (crossing, in_port) arrivals."""
        seen_out = set()
        for cur in self.out_ports():
            comp = []
            while cur not in seen_out:  # back at the start: closed
                seen_out.add(cur)
                k, p = self.wiring[cur]
                comp.append((k, p))
                cur = (k, p ^ 2)
            if comp:
                yield comp

    def first_bad_crossing(self):
        """(k, None) for the first crossing k reached on its under strand
        before any other visit, along the deterministic walk; (None,
        component count) if the diagram is descending."""
        visited = set()
        comps = self.loops
        for comp in self._walk_components():
            comps += 1
            for (k, p) in comp:
                if k not in visited:
                    visited.add(k)
                    if p == 0:  # arrived on the under strand first
                        return k, None
        return None, comps

    def switched(self, k: int) -> "_OrientedState":
        """Same diagram with crossing k switched."""
        shift = _over_in(self.signs[k])
        signs = dict(self.signs)
        signs[k] = -signs[k]
        # only the four ports of k are renumbered, so only they and the
        # far ends of their arcs are rewired
        wiring = dict(self.wiring)
        for p in range(4):
            far = self.wiring[(k, p)]
            if far[0] == k:
                far = (k, (far[1] - shift) % 4)
            port = (k, (p - shift) % 4)
            wiring[port] = far
            wiring[far] = port
        return _OrientedState(signs, wiring, self.loops)

    def smoothed(self, k: int) -> "_OrientedState":
        """Oriented smoothing of crossing k (the P0 term)."""
        pairs = ((0, 1), (2, 3)) if self.signs[k] > 0 else ((0, 3), (1, 2))
        return self._rewired({k: pairs})

    def reduced(self) -> "_OrientedState":
        """The same link with every curl (Reidemeister I) and every bigon
        (Reidemeister II) removed, until none is left; each strand runs
        straight through the removed crossings."""
        state = self
        while (ks := state._reducible()) is not None:
            state = state._rewired({k: ((0, 2), (1, 3)) for k in ks})
        return state

    def _reducible(self):
        """(k,) for a curl at crossing k (an arc from k to its own port),
        (k, j) for a bigon: crossings of opposite sign joined by an arc
        from over port to over port and one from under port to under
        port; None if there is neither.

        In a planar diagram the two arcs of such a bigon bound a face, so
        removing it is an isotopy.
        """
        wiring, signs = self.wiring, self.signs
        for k, s in signs.items():
            far = [wiring[(k, p)] for p in range(4)]
            if any(j == k for j, _ in far):
                return (k,)
            under = far[0::2]  # the far ends of k's under ports
            for j, q in far[1::2]:  # and of its over ports
                if q % 2 and signs[j] != s and (
                        (j, 0) in under or (j, 2) in under):
                    return (k, j)
        return None

    def _rewired(self, joins: dict) -> "_OrientedState":
        """Delete the crossings k of `joins` and join their ports in the
        pairs joins[k].

        The deleted ports become pseudo nodes, joined pairwise and each to
        the far end of its arc (a pseudo node again for an arc between
        deleted crossings); the pseudo-node splice rewires the diagram and
        counts the circuits closed among the deleted ports as free loops.
        """
        edges = [(("p", k, a), ("p", k, b))
                 for k, pairs in joins.items() for a, b in pairs]
        wiring = dict(self.wiring)
        for k in joins:
            for p in range(4):
                far = wiring.pop((k, p))
                if far[0] not in joins:
                    edges.append((("p", k, p), far))
                elif (k, p) < far:
                    edges.append((("p", k, p), ("p",) + far))
        signs = {c: s for c, s in self.signs.items() if c not in joins}
        spliced, loops = _splice_pseudo(edges)
        wiring.update(spliced)  # rewires every far end of a deleted port
        return _OrientedState(signs, wiring, self.loops + loops)

    def walk_code(self) -> tuple:
        """The skein memo key: per component, a token per arrival,
        ("n", sign, port) at a new crossing and ("o", its discovery number,
        port) at a known one, then ("c",); last ("loops", free loops).
        The out-port after arrival (k, p) is (k, p ^ 2), so equal codes
        are the same diagram; one diagram under other crossing ids may
        take a second memo entry, which costs time, never a wrong value.
        """
        disc: dict[int, int] = {}
        tokens: list = []
        for comp in self._walk_components():
            for k, p in comp:
                if k in disc:
                    tokens.append(("o", disc[k], p))
                else:
                    disc[k] = len(disc)
                    tokens.append(("n", self.signs[k], p))
            tokens.append(("c",))
        tokens.append(("loops", self.loops))
        return tuple(tokens)

    def to_planar(self) -> PlanarDiagram:
        """Retrace into sequential PD form (components in walk order)."""
        arcs: dict[tuple[int, int], int] = {}  # port -> its arc's label
        label = 0
        for comp in self._walk_components():
            if len(comp) == 2 and comp[0][0] != comp[1][0]:
                # a two-arc component (not a curl): its smaller label
                # enters the last crossing it passes over; _read_labels
                # reads this labelling only where it passes over at both
                comp = sorted(comp, key=lambda kp: (kp[1] != 0, kp[0]),
                              reverse=True)
            for in_port in comp:
                label += 1
                arcs[in_port] = arcs[self.wiring[in_port]] = label
        crossings = [tuple(arcs[(k, p)] for p in range(4))
                     for k in sorted(self.signs)]
        return PlanarDiagram(crossings, self.loops)


# --------------------------------------------------------------------------
# HOMFLY


_A2 = Laurent2.term(1, 2, 0)
_AZ = Laurent2.term(1, 1, 1)
_AINV2 = Laurent2.term(1, -2, 0)
_AINVZ = Laurent2.term(1, -1, 1)
_DELTA = Laurent2({(-1, -1): 1, (1, -1): -1})  # (1/a - a)/z

_HOMFLY_MEMO: dict[tuple, Laurent2] = {}


def _homfly_state(state: _OrientedState) -> Laurent2:
    # curls and bigons first, then a descending state needs no memo key
    state = state.reduced()
    bad, comps = state.first_bad_crossing()
    if bad is None:
        return _DELTA ** (comps - 1) if comps > 1 else Laurent2.one()
    code = state.walk_code()
    cached = _HOMFLY_MEMO.get(code)
    if cached is not None:
        return cached
    switched = _homfly_state(state.switched(bad))
    smoothed = _homfly_state(state.smoothed(bad))
    if state.signs[bad] > 0:
        # a^-1 P+ - a P- = z P0  =>  P+ = a^2 P- + a z P0
        val = _A2 * switched + _AZ * smoothed
    else:
        val = _AINV2 * switched - _AINVZ * smoothed
    _HOMFLY_MEMO[code] = val
    return val


def homfly(knot: "PlanarDiagram | BraidWord") -> Laurent2:
    """Skein polynomial in (a, z): a^{-1} P+ - a P- = z P0, unknot 1."""
    if isinstance(knot, BraidWord):
        # one crossing per letter: both budgets precede the closure
        check_component_budget(braid_components(knot))
        check_crossing_budget(len(knot.letters), "skein")
        knot = braid_closure(knot)
    check_crossing_budget(knot.n_crossings, "skein")
    check_component_budget(knot.components)
    return _homfly_state(_OrientedState.from_planar(knot))


def sun_slice(h: Laurent2, n: int) -> Laurent1:
    """su(N) slice a = q^n, z = q - q^{-1}, by binomial expansion."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    if any(e2 < 0 for _, e2 in h.coeffs):
        raise ValueError("the su(N) slice needs a knot: a link's skein "
                         "polynomial has negative powers of z")
    out = defaultdict(int)
    for (i, j), c in h.coeffs.items():
        for k in range(j + 1):
            out[n * i + j - 2 * k] += (-c if k & 1 else c) * comb(j, k)
    return Laurent1(out, var="q")


# --------------------------------------------------------------------------
# diagram surgery


def connected_sum(k1: PlanarDiagram, k2: PlanarDiagram) -> PlanarDiagram:
    """Splice two knot diagrams along one arc of each.

    Free loops of both operands are kept; a crossingless operand with L
    loops is an unknot summand plus L - 1 free loops.
    """
    if not k1.crossings:
        k1, k2 = k2, k1
    if not k2.crossings:
        return PlanarDiagram(k1.crossings, k1.loops + k2.loops - 1)
    s1 = _OrientedState.from_planar(k1)
    s2 = _OrientedState.from_planar(k2)
    off = max(s1.signs) + 1
    signs = dict(s1.signs)
    wiring = dict(s1.wiring)
    for k, s in s2.signs.items():
        signs[k + off] = s
    for (ka, pa), (kb, pb) in s2.wiring.items():
        wiring[(ka + off, pa)] = (kb + off, pb)
    # cut the arc leaving the first out-port of each knot and cross-join
    out1 = s1.out_ports()[0]
    k, p = s2.out_ports()[0]
    out2 = (k + off, p)
    in1, in2 = wiring[out1], wiring[out2]
    wiring[out1], wiring[in2] = in2, out1
    wiring[out2], wiring[in1] = in1, out2
    return _OrientedState(signs, wiring, k1.loops + k2.loops).to_planar()


# --------------------------------------------------------------------------
# knot determinant (label validation for the bundled table)


def determinant(pd: PlanarDiagram) -> int:
    """|V(-1)|, the knot determinant."""
    v = jones(pd)(Fraction(-1))
    if v.denominator != 1:
        raise AssertionError("determinant must be an integer")
    return abs(int(v))


# --------------------------------------------------------------------------
# rational (two-bridge) knots


def _splice_pseudo(edges):
    """Resolve the pseudo nodes ("p", ...), each of degree two, out of an
    edge list: a chain of them between two real ports becomes one wire,
    and a cycle of them alone is one free loop.  Returns (wiring, loops).
    """
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()  # pseudo nodes walked so far

    def walk(prev, cur):
        # step through pseudo nodes until a real port or a walked node
        while cur[0] == "p" and cur not in seen:
            seen.add(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        return cur

    wiring = {}
    for tok in adj:
        if tok[0] != "p" and tok not in wiring:
            end = walk(tok, adj[tok][0])
            wiring[tok] = end
            wiring[end] = tok
    # every pseudo node not walked yet lies on a pure pseudo cycle
    loops = 0
    for tok in adj:
        if tok[0] == "p" and tok not in seen:
            loops += 1
            walk(None, tok)
    return wiring, loops


def _orient_unoriented(wiring: dict, loops: int) -> PlanarDiagram:
    """Trace an unoriented 4-valent wiring, fix crossing signs, emit PD;
    ports 0/2 of every crossing are its under strand."""
    entry: dict[tuple[int, int], int] = {}  # (crossing, diagonal) -> entry port
    arcs = {frozenset((a, b)) for a, b in wiring.items()}
    visited = set()
    for start_arc in sorted(arcs, key=repr):
        if start_arc in visited:
            continue
        a, b = sorted(start_arc, key=repr)
        cur, dst = a, b
        while True:
            visited.add(frozenset((cur, dst)))
            k, p = dst
            diag = p % 2
            if (k, diag) in entry:
                raise ValueError("inconsistent strand orientation")
            entry[(k, diag)] = p
            cur = (k, p ^ 2)
            dst = wiring[cur]
            if frozenset((cur, dst)) in visited:
                break

    def relabel(ep):
        k, p = ep
        return (k, (p - entry[(k, 0)]) % 4)

    signs = {k: 1 if (entry[(k, 1)] - entry[(k, 0)]) % 4 == 3 else -1
             for k in sorted({k for k, _ in wiring})}
    relabeled = {relabel(a): relabel(b) for a, b in wiring.items()}
    return _OrientedState(signs, relabeled, loops).to_planar()


def rational_knot(code) -> PlanarDiagram:
    """Alternating rational knot from a positive continued-fraction code.

    The code [c1, c2, ..., cm] denotes the two-bridge knot with fraction
    c1 + 1/(c2 + 1/(... + 1/cm)); the diagram is the standard
    alternating one with sum(code) crossings (c1 horizontal twists, c2
    vertical, alternating), closed with the numerator closure.
    """
    code = [int(c) for c in code]
    if not code or any(c < 1 for c in code):
        raise ValueError("continued-fraction code must be positive integers")
    counter = [0]

    def pseudo():
        counter[0] += 1
        return ("p", counter[0])

    edges = []
    ends = {}
    # odd-length codes start from the 0-tangle (horizontal strands),
    # even-length ones from the infinity tangle (vertical strands), so
    # that the first twist batch genuinely interlocks the two strands
    base = (("NW", "NE"), ("SW", "SE")) if len(code) % 2 else \
           (("NW", "SW"), ("NE", "SE"))
    for pair in base:
        a, b = pseudo(), pseudo()
        edges.append((a, b))
        ends[pair[0]] = a
        ends[pair[1]] = b
    kid = [0]

    def twist_east():
        k = kid[0]
        kid[0] += 1
        edges.append((ends["NE"], (k, 0)))
        edges.append((ends["SE"], (k, 1)))
        ends["NE"] = (k, 3)
        ends["SE"] = (k, 2)

    def twist_south():
        k = kid[0]
        kid[0] += 1
        edges.append((ends["SW"], (k, 0)))
        edges.append((ends["SE"], (k, 3)))
        ends["SW"] = (k, 1)
        ends["SE"] = (k, 2)

    for pos in range(len(code) - 1, -1, -1):
        for _ in range(code[pos]):
            if pos % 2 == 0:
                twist_east()
            else:
                twist_south()
    edges.append((ends["NW"], ends["NE"]))
    edges.append((ends["SW"], ends["SE"]))
    wiring, loops = _splice_pseudo(edges)
    return _orient_unoriented(wiring, loops)


# --------------------------------------------------------------------------
# braid closures


def braid_components(word: BraidWord) -> int:
    """Components of the closure of `word`, free strands included, in
    O(letters), so a budget check needs no closure: an untouched strand
    is one component, and the touched strands close along the cycles of
    the word's permutation."""
    perm: dict[int, int] = {}
    for x in word.letters:
        i = abs(x)
        perm[i - 1], perm[i] = perm.get(i, i), perm.get(i - 1, i - 1)
    components = word.strands - len(perm)
    while perm:  # one cycle per pass
        components += 1
        j = next(iter(perm))
        while j in perm:
            j = perm.pop(j)
    return components


def braid_closure(word: BraidWord) -> PlanarDiagram:
    """Planar diagram of the closed braid (strands oriented the same way).

    Positive letters put the left strand under; untouched strands close
    into free unknot components.
    """
    signs: dict[int, int] = {}
    edges: list = []
    # pending[j]: dangling out-endpoint of strand column j (0-based);
    # the pseudo node ("p", j) closes column j, so an untouched column
    # becomes a pseudo self-loop, which splices into a free loop
    pending: list = [("p", j) for j in range(word.strands)]
    for k, letter in enumerate(word.letters):
        i = abs(letter) - 1
        sign = 1 if letter > 0 else -1
        signs[k] = sign
        if sign > 0:
            in_left, in_right = (k, 0), (k, 3)
            out_left, out_right = (k, 1), (k, 2)
        else:
            in_left, in_right = (k, 1), (k, 0)
            out_left, out_right = (k, 2), (k, 3)
        edges.append((pending[i], in_left))
        edges.append((pending[i + 1], in_right))
        pending[i], pending[i + 1] = out_left, out_right
    for j in range(word.strands):
        edges.append((pending[j], ("p", j)))
    wiring, loops = _splice_pseudo(edges)
    state = _OrientedState(signs, wiring, loops)
    return state.to_planar()
