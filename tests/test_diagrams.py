import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from vassiliev.diagrams import (
    EMPTY,
    Diagram,
    DiagramSum,
    _least_first,
    _leg_placements,
    canonical_key,
    canonicalize,
    chord_diagram,
    chord_diagrams,
    connected_diagrams,
    decompose,
    degree,
    has_isolated_chord,
    one_vertex_diagrams,
    parse,
    product,
    random_diagram,
    serialize,
)

TRIPOD = Diagram(3, 1, [(0, 3), (1, 4), (2, 5)])
CHORD = chord_diagram([(0, 1)])
CROSS = chord_diagram([(0, 2), (1, 3)])


def test_degree_examples():
    assert degree(CHORD) == 1
    assert degree(TRIPOD) == 2
    assert degree(EMPTY) == 0


def test_malformed_diagrams_rejected():
    with pytest.raises(ValueError, match="^negative leg or vertex count$"):
        Diagram(-2, 0, [])
    with pytest.raises(ValueError, match="^negative leg or vertex count$"):
        Diagram(3, -1, [])
    with pytest.raises(ValueError, match="^odd number of half-edges"):
        Diagram(3, 0, [(0, 1)])  # odd endpoint count
    with pytest.raises(ValueError, match="^expected 1 edges, got 2$"):
        Diagram(2, 0, [(0, 1), (0, 1)])  # one edge too many
    with pytest.raises(ValueError, match="^edge endpoints must be distinct"):
        Diagram(2, 0, [(0, 0)])  # self-paired half-edge
    with pytest.raises(ValueError, match="^endpoint 5 out of range$"):
        Diagram(2, 0, [(0, 5)])
    with pytest.raises(ValueError, match="^endpoint -1 out of range$"):
        Diagram(2, 0, [(1, -1)])
    with pytest.raises(ValueError, match="^endpoint 1 used twice$"):
        Diagram(4, 0, [(0, 1), (1, 2)])  # reused endpoint
    with pytest.raises(ValueError, match="^dashed component disconnected "
                       "from the circle$"):
        # vacuum component: vertices forming a theta detached from circle
        Diagram(2, 2, [(0, 1), (2, 5), (3, 6), (4, 7)])
    with pytest.raises(ValueError, match="^dashed component disconnected"):
        # a tripod on the circle beside an off-circle theta
        Diagram(3, 3, [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)])


def _union_find_check(L, T, edges):
    """The constructor's checks in their order, with a union-find for
    the circle-reach check: the first error message, or None."""
    if L < 0 or T < 0:
        return "negative leg or vertex count"
    n = L + 3 * T
    if n % 2:
        return "odd number of half-edges cannot be matched"
    if len(edges) != n // 2:
        return f"expected {n // 2} edges, got {len(edges)}"
    partner = [-1] * n
    for a, b in edges:
        if a == b:
            return "edge endpoints must be distinct half-edges"
        for x in (a, b) if a < b else (b, a):
            if not 0 <= x < n:
                return f"endpoint {x} out of range"
            if partner[x] >= 0:
                return f"endpoint {x} used twice"
        partner[a], partner[b] = b, a
    parent = list(range(L + T))  # leg a is node a, vertex v node L + v

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in enumerate(partner):
        ra = find(a if a < L else L + (a - L) // 3)
        rb = find(b if b < L else L + (b - L) // 3)
        if ra != rb:
            parent[ra] = rb
    roots = [find(x) for x in range(L + T)]
    if not set(roots[L:]) <= set(roots[:L]):
        return "dashed component disconnected from the circle"
    return None


def test_constructor_matches_union_find_checks():
    # seeded matchings and malformed edge lists up to six vertices: the
    # stack walk accepts and rejects as the union-find did, with the
    # same message
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        T = rng.randint(0, 6)
        L = 2 * rng.randint(0, 4) + T % 2  # an even half-edge count
        ends = list(range(L + 3 * T))
        rng.shuffle(ends)
        edges = list(zip(ends[::2], ends[1::2]))
        flaw = rng.randrange(8)
        if flaw == 0:
            L, T = rng.choice([(-L - 1, T), (L, -1), (L + 1, T)])
        elif flaw == 1 and edges:
            edges.pop()
        elif flaw == 2 and edges:
            edges.append(edges[0])
        elif flaw == 3 and edges:
            edges[0] = (edges[0][0], edges[0][0])
        elif flaw == 4 and edges:
            edges[-1] = (edges[-1][0], rng.choice([-1, len(ends)]))
        elif flaw == 5 and len(edges) > 1:
            edges[1] = (edges[1][0], edges[0][1])
        expected = _union_find_check(L, T, edges)
        try:
            Diagram(L, T, edges)
            message = None
        except ValueError as err:
            message = str(err)
        assert message == expected, (L, T, edges)
        seen.add(expected)
    assert None in seen
    assert "dashed component disconnected from the circle" in seen
    assert len(seen) >= 8


def test_partner_is_the_stored_form():
    # edges read back to the same diagram, and partner is an involution
    # with no fixed point on every half-edge (connected diagrams up to
    # seven vertices: eight take about 20 s on a 2-vCPU VM)
    for d in (chord_diagrams(5) + one_vertex_diagrams(5)
              + [c for T in range(4, 8) for c in connected_diagrams(5, T)]):
        assert Diagram(d.legs, d.vertices, d.edges) == d
        p = d.partner
        assert len(p) == d.legs + 3 * d.vertices
        assert all(p[x] != x and p[p[x]] == x for x in range(len(p)))


def test_canonicalize_isomorphism_invariance():
    rot = Diagram(3, 1, [(1, 3), (2, 4), (0, 5)])
    assert canonicalize(rot).diagram == canonicalize(TRIPOD).diagram
    assert canonicalize(rot).sign == 1


def test_canonicalize_orientation_reversal_flips_sign():
    anti = Diagram(3, 1, [(0, 3), (1, 5), (2, 4)])
    assert canonicalize(anti).diagram == canonicalize(TRIPOD).diagram
    assert canonicalize(anti).sign == -1


def test_canonicalize_tadpole_sign_zero():
    tad = Diagram(2, 2, [(0, 2), (1, 5), (3, 4), (6, 7)])
    assert canonicalize(tad).sign == 0


def test_canonicalize_symmetry_forces_zero():
    # no tadpole, but an automorphism reverses one vertex orientation,
    # so the diagram equals its own negative and must carry sign 0
    d = parse("L=4 T=2 1-V2.3 2-V1.3 3-V2.1 4-V1.2 V1.1-V2.2")
    assert not d.has_tadpole()
    assert canonicalize(d).sign == 0
    # consistency: its resolution into chord diagrams cancels exactly
    from vassiliev.relations import stu

    def resolve(dd):
        if dd.vertices == 0:
            return [(dd, 1)]
        pick = min((a, (b - dd.legs) // 3) if a < dd.legs else
                   (b, (a - dd.legs) // 3)
                   for a, b in dd.edges
                   if (a < dd.legs <= b) or (b < dd.legs <= a))
        out = []
        for t, c in stu(dd, pick[1], pick[0]).terms.items():
            out.extend((t2, c * c2) for t2, c2 in resolve(t))
        return out

    acc = {}
    for t, c in resolve(d):
        acc[t] = acc.get(t, 0) + c
    assert all(v == 0 for v in acc.values())


def test_canonicalize_idempotent():
    rng = random.Random(5)
    for _ in range(40):
        d = random_diagram(rng, rng.randint(1, 4), require_nonzero=False)
        sd = canonicalize(d)
        again = canonicalize(sd.diagram)
        assert again.diagram == sd.diagram
        assert again.sign in (0, 1)
        assert (again.sign == 0) == (sd.sign == 0)


def test_canonicalize_random_relabelings():
    rng = random.Random(6)
    for _ in range(30):
        d = random_diagram(rng, rng.randint(1, 4))
        base = canonicalize(d)
        # rotate the circle by a random amount
        L, T = d.legs, d.vertices
        shift = rng.randrange(L)
        perm_v = list(range(T))
        rng.shuffle(perm_v)
        slot_rot = [rng.randrange(3) for _ in range(T)]

        def remap(ep):
            if ep < L:
                return (ep + shift) % L
            v, s = divmod(ep - L, 3)
            return L + 3 * perm_v[v] + (s + slot_rot[v]) % 3

        d2 = Diagram(L, T, [(remap(a), remap(b)) for a, b in d.edges])
        sd2 = canonicalize(d2)
        assert sd2.diagram == base.diagram
        assert sd2.sign == base.sign


def test_degree_additive_under_product():
    rng = random.Random(7)
    for _ in range(25):
        d1 = random_diagram(rng, rng.randint(1, 3), require_nonzero=False)
        d2 = random_diagram(rng, rng.randint(1, 3), require_nonzero=False)
        assert degree(product(d1, d2)) == degree(d1) + degree(d2)


def test_product_unit_and_degree():
    assert canonicalize(product(CHORD, EMPTY)).diagram == \
        canonicalize(CHORD).diagram
    two = product(CHORD, CHORD)
    assert degree(two) == 2
    rep = decompose(two)
    assert len(rep.components) == 2 and not rep.overlapping
    assert degree(product(TRIPOD, CHORD)) == 3


def test_product_components_and_overlap():
    rng = random.Random(8)
    for _ in range(20):
        d1 = random_diagram(rng, rng.randint(1, 3))
        d2 = random_diagram(rng, rng.randint(1, 2))
        r1, r2 = decompose(d1), decompose(d2)
        if r1.overlapping or r2.overlapping:
            continue
        rp = decompose(product(d1, d2))
        assert not rp.overlapping
        mult = sorted(canonical_key(c.diagram) for c in rp.components)
        expect = sorted(canonical_key(c.diagram)
                        for c in r1.components + r2.components)
        assert mult == expect


def test_decompose_examples():
    rep = decompose(CROSS)
    assert len(rep.components) == 2 and rep.overlapping
    rep2 = decompose(chord_diagram([(0, 1), (2, 3)]))
    assert len(rep2.components) == 2 and not rep2.overlapping
    # a connected two-loop diagram stays one component
    conn = Diagram(2, 2, [(0, 2), (1, 5), (3, 6), (4, 7)])
    rep3 = decompose(conn)
    assert len(rep3.components) == 1 and not rep3.overlapping


def test_isolated_chord_examples():
    assert has_isolated_chord(CHORD)
    assert not has_isolated_chord(CROSS)
    assert not has_isolated_chord(TRIPOD)
    assert not has_isolated_chord(EMPTY)
    # wrap-around adjacency counts
    assert has_isolated_chord(chord_diagram([(0, 3), (1, 2)]))


def test_serialize_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        d = random_diagram(rng, rng.randint(1, 4), require_nonzero=False)
        assert parse(serialize(d)) == d
    assert parse(serialize(EMPTY)) == EMPTY


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse("not a diagram")


def test_diagram_sum_degree_mixing_rejected():
    s = DiagramSum([(CHORD, 1)])
    with pytest.raises(ValueError):
        s.add(CROSS, 1)


def test_diagram_sum_drops_zero_and_signs():
    anti = Diagram(3, 1, [(0, 3), (1, 5), (2, 4)])
    s = DiagramSum([(TRIPOD, 1), (anti, 1)])  # tripod - tripod
    assert not s


def _reference_sum(pairs):
    """Plain-dict linear combination: canonical diagram -> coefficient."""
    out = {}
    for d, c in pairs:
        sd = canonicalize(d)
        v = out.get(sd.diagram, 0) + sd.sign * c
        if v:
            out[sd.diagram] = v
        else:
            out.pop(sd.diagram, None)
    return out


def _reference_text(ref):
    if not ref:
        return "DiagramSum(0)"
    return "DiagramSum(" + " + ".join(
        f"{c} * {serialize(d)}"
        for d, c in sorted(ref.items(), key=lambda kv: canonical_key(kv[0]))
    ) + ")"


def test_diagram_sum_matches_dict_reference():
    rng = random.Random(17)
    scalars = [-2, -1, 1, 3, Fraction(1, 2), Fraction(-3, 4)]
    for deg in (3, 4, 5):
        # a small pool of diagrams and their relabellings, so that keys
        # collide and terms cancel
        pool = [random_diagram(rng, deg) for _ in range(4)]
        pool += [_relabelled(rng, d)[0] for d in pool]
        for integral in (True, False):
            coeffs = [k for k in scalars if type(k) is int or not integral]
            parts = [[(rng.choice(pool), rng.choice(coeffs))
                      for _ in range(rng.randint(0, 6))] for _ in range(3)]
            sums = [DiagramSum(p) for p in parts]
            refs = [_reference_sum(p) for p in parts]
            a, b, c = sums
            ra, rb, rc = refs
            assert [s.terms for s in sums] == refs
            assert (a + b).terms == _reference_sum(parts[0] + parts[1])
            assert (a - b).terms == _reference_sum(
                parts[0] + [(d, -k) for d, k in parts[1]])
            assert sum(sums).terms == _reference_sum(
                parts[0] + parts[1] + parts[2])
            for k in (2, -1, Fraction(2, 3), 0):
                scaled = {d: v * k for d, v in ra.items()} if k else {}
                assert (a * k).terms == scaled and (k * a).terms == scaled
            assert (a == DiagramSum(list(ra.items()))) and not (a - a)
            assert (a == b) == (ra == rb) and bool(c) == bool(rc)
            for s, r in zip(sums, refs):
                assert repr(s) == str(s) == _reference_text(r)
            if integral:
                total = a + b - c * 2
                assert all(type(v) is int for v in total.terms.values())
    low = DiagramSum([(random_diagram(rng, 3), 1)])
    high = DiagramSum([(random_diagram(rng, 4), 1)])
    for op in (lambda: low + high, lambda: high - low,
               lambda: sum([low, high])):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(TypeError):
        hash(low)


def _relabelled(rng, d):
    """d with the circle rotated, the vertices permuted and each vertex's
    slots rotated or reversed; also the number of reversed vertices."""
    L, T = d.legs, d.vertices
    shift = rng.randrange(L) if L else 0
    perm_v = rng.sample(range(T), T)
    turn = [rng.randrange(3) for _ in range(T)]
    flip = [rng.random() < 0.5 for _ in range(T)]

    def remap(ep):
        if ep < L:
            return (ep + shift) % L
        v, s = divmod(ep - L, 3)
        s = (turn[v] - s) % 3 if flip[v] else (s + turn[v]) % 3
        return L + 3 * perm_v[v] + s

    return (Diagram(L, T, [(remap(a), remap(b)) for a, b in d.edges]),
            sum(flip))


def test_canonicalize_returns_the_enumerated_object():
    # one object per class: a relabelled class canonicalizes to the very
    # object its enumeration returned
    rng = random.Random(37)
    classes = chord_diagrams(4) + one_vertex_diagrams(4) + [
        d for T in range(3, 7) for d in connected_diagrams(4, T)]
    for d in classes:
        for _ in range(3):
            assert canonicalize(_relabelled(rng, d)[0]).diagram is d, \
                serialize(d)


def test_canonicalize_relabel_sign_law():
    # random relabellings of diagrams with >= 2 vertices: rotate the
    # circle, permute the vertices, and rotate or reverse each vertex's
    # slots; every reversed vertex multiplies the sign by -1
    rng = random.Random(11)
    zeros = 0
    for _ in range(150):
        d = random_diagram(rng, rng.randint(2, 5), require_nonzero=False)
        if d.vertices < 2:
            continue
        base = canonicalize(d)
        zeros += base.sign == 0
        for _ in range(3):
            relabelled, flips = _relabelled(rng, d)
            sd = canonicalize(relabelled)
            assert sd.diagram == base.diagram
            assert sd.sign == base.sign * (-1) ** flips
    assert zeros > 0


def test_chord_diagram_class_counts():
    # chord diagrams up to rotation: OEIS A007769
    assert [len(chord_diagrams(n)) for n in range(8)] == \
        [1, 1, 2, 5, 18, 105, 902, 9749]


def _matchings_by_pairing(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest)):
        for m in _matchings_by_pairing(rest[:k] + rest[k + 1:]):
            yield [(first, rest[k])] + m


def test_chord_diagrams_are_the_canonical_matchings():
    # the code enumeration against canonicalize on every matching
    for n in range(7):
        found = {}
        for m in _matchings_by_pairing(list(range(2 * n))):
            c = canonicalize(Diagram(2 * n, 0, m)).diagram
            found[canonical_key(c)] = c
        assert chord_diagrams(n) == [found[k] for k in sorted(found)], n


def _one_vertex_by_placement(n):
    # reference enumeration: the vertex on every 3 legs in both cyclic
    # orders, with every matching of the remaining legs
    L = 2 * n - 1
    found = {}
    for x, y, z in itertools.combinations(range(L), 3):
        rest = [p for p in range(L) if p not in (x, y, z)]
        for slots in ((x, y, z), (x, z, y)):
            base = [(slots[s], L + s) for s in range(3)]
            for m in _matchings_by_pairing(rest):
                sd = canonicalize(Diagram(L, 1, base + m))
                if sd.sign:
                    found[canonical_key(sd.diagram)] = sd.diagram
    return [found[k] for k in sorted(found)]


def test_one_vertex_class_counts_small():
    assert [len(one_vertex_diagrams(n)) for n in range(6)] == \
        [0, 0, 1, 2, 15, 142]


def test_one_vertex_matches_placement_enumeration():
    for n in range(7):
        assert one_vertex_diagrams(n) == _one_vertex_by_placement(n)


def test_least_first_lists():
    # each list is a fixed-point-free involution, the vertex sits on
    # three legs in circle order, leg 0 has the least first token, and
    # no list comes twice
    for T, top in ((0, 10), (1, 9)):
        for L in range(T, top + 1, 2):
            lists = [list(partner) for partner in _least_first(L, T)]
            for partner in lists:
                assert len(partner) == L + 3 * T
                assert all(partner[x] != x and partner[partner[x]] == x
                           for x in range(L + 3 * T)), partner
                assert partner[L:] == sorted(partner[L:]) and \
                    all(p < L for p in partner[L:]), partner
                firsts = [(p - r) % L if p < L else L
                          for r, p in enumerate(partner[:L])]
                assert not L or firsts[0] == min(firsts), partner
            assert len(set(map(tuple, lists))) == len(lists), (L, T)
    assert [sum(1 for _ in _least_first(2 * n, 0)) for n in range(7)] == \
        [1, 1, 2, 5, 24, 162, 1456]
    assert [sum(1 for _ in _least_first(2 * n - 1, 1)) for n in range(7)] \
        == [0, 0, 1, 2, 21, 206, 2349]


@pytest.mark.parametrize("enumerate_,n,digest", [
    (chord_diagrams, 6, "d3810980718c4fdc"),
    (chord_diagrams, 7, "9ccae4cda49a00a0"),
    (one_vertex_diagrams, 6, "9129cc30898f734b"),
    (one_vertex_diagrams, 7, "0a546de4e6c955da")])
def test_enumeration_lists_pinned(enumerate_, n, digest):
    # sha256 of the lists the enumeration of every matching and of every
    # merge of two adjacent legs gave
    text = "\n".join(serialize(d) for d in enumerate_(n))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _connected_by_placement(n, T):
    # reference enumeration: leg 0 on slot 0 of vertex 0 (any connected
    # diagram is brought there by relabelling vertices and rotating slots,
    # neither of which changes the sign), every other leg on any free
    # slot, and every matching of the slots left over
    L = 2 * n - T
    slots = list(range(L + 1, L + 3 * T))
    found = {}
    for legs in itertools.permutations(slots, L - 1):
        rest = [s for s in slots if s not in legs]
        base = [(0, L)] + list(zip(range(1, L), legs))
        for m in _matchings_by_pairing(rest):
            try:
                d = Diagram(L, T, base + m)
            except ValueError:  # a component without legs
                continue
            if len(decompose(d).components) == 1 and not d.has_tadpole():
                sd = canonicalize(d)
                if sd.sign:
                    found[canonical_key(sd.diagram)] = sd.diagram
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("n,T", [(2, 1), (2, 2), (3, 2), (3, 3), (3, 4),
                                 (4, 3)])
def test_connected_matches_placement_enumeration(n, T):
    assert connected_diagrams(n, T) == _connected_by_placement(n, T)


def _connected_multigraphs(T, E):
    # connected loopless multigraphs of max degree 3 up to isomorphism,
    # deduplicated by the least edge list over all T! relabellings
    pairs = list(itertools.combinations(range(T), 2))
    results = set()

    def rec(idx, remaining, deg, edges):
        if remaining == 0:
            roots = {v: v for v in range(T)}

            def find(v):
                while roots[v] != v:
                    v = roots[v]
                return v

            for a, b in edges:
                roots[find(a)] = find(b)
            if len({find(v) for v in range(T)}) == 1:
                results.add(min(
                    tuple(sorted(tuple(sorted((p[a], p[b])))
                                 for a, b in edges))
                    for p in itertools.permutations(range(T))))
            return
        if idx == len(pairs):
            return
        a, b = pairs[idx]
        for mult in range(min(remaining, 3 - deg[a], 3 - deg[b]), -1, -1):
            deg[a] += mult
            deg[b] += mult
            rec(idx + 1, remaining - mult, deg, edges + [(a, b)] * mult)
            deg[a] -= mult
            deg[b] -= mult

    rec(0, E, [0] * T, [])
    return sorted(results)


def _connected_by_multigraph(n, T):
    # reference enumeration: every connected multigraph up to
    # isomorphism, with its free slots taken by the legs in every
    # rotation-least order of their vertices
    L, E = 2 * n - T, 2 * T - n
    found = {}
    for graph in _connected_multigraphs(T, E) if L > 0 else []:
        used = [0] * T
        edges = []
        for a, b in graph:
            edges.append((L + 3 * a + used[a], L + 3 * b + used[b]))
            used[a] += 1
            used[b] += 1
        free = [v for v in range(T) for _ in range(3 - used[v])]
        for seq in set(itertools.permutations(free)):
            if any(seq > seq[i:] + seq[:i] for i in range(1, L)):
                continue
            slot = used[:]
            legs = []
            for pos, v in enumerate(seq):
                legs.append((pos, L + 3 * v + slot[v]))
                slot[v] += 1
            sd = canonicalize(Diagram(L, T, edges + legs))
            if sd.sign:
                found[canonical_key(sd.diagram)] = sd.diagram
    return [found[k] for k in sorted(found)]


def test_connected_matches_multigraph_enumeration():
    for n in range(2, 7):
        for T in range(1, 6):
            assert connected_diagrams(n, T) == \
                _connected_by_multigraph(n, T), (n, T)


@pytest.mark.parametrize("n,T,digest", [(4, 6, "77144fb80a1e46b9"),
                                        (5, 6, "d5e98dbd1016795d"),
                                        (6, 5, "7208eecb86380c06"),
                                        (6, 6, "10c44f7f5cbd3495"),
                                        (7, 6, "60adcc8c51a9c2d6"),
                                        (7, 7, "5c83e51999a1cf71")])
def test_connected_lists_pinned(n, T, digest):
    # sha256 of the lists the multigraph enumeration gave, (6, 5) and
    # cases too slow for its T! relabelling; (7, 7) as given when
    # legless vertices were numbered in every order
    text = "\n".join(serialize(d) for d in connected_diagrams(n, T))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_leg_placements_number_legless_vertices_once():
    # legless vertices are numbered in breadth-first order only, not in
    # every order (516 and 720 lists)
    assert [sum(1 for _ in _leg_placements(2 * n - T, T))
            for n, T in ((4, 6), (6, 6))] == [30, 443]


def _assert_samples_enumerated(n, T, seed, count=200):
    """Seeded random tadpole-free connected diagrams: the canonical form
    of each one of nonzero sign is in connected_diagrams(n, T)."""
    classes = set(connected_diagrams(n, T))
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(count):
        d = _tadpole_free(rng, n, T)
        while len(decompose(d).components) > 1:
            d = _tadpole_free(rng, n, T)
        sd = canonicalize(d)
        if sd.sign:
            nonzero += 1
            assert sd.diagram in classes, serialize(d)
    return nonzero


@pytest.mark.parametrize("n,T,seed", [(6, 6, 23), (7, 6, 29)])
def test_connected_contains_random_samples(n, T, seed):
    assert _assert_samples_enumerated(n, T, seed) > 0


def _reference_canonical(d):
    """The full search over all L rotations and 2**T vertex orientations:
    (canonical key, sign, canonical edges)."""
    L, T = d.legs, d.vertices
    if L == 0 and T == 0:
        return (0, 0), 1, ()
    partner = d.partner
    best, signs = None, set()
    for rotation in range(L):
        for eps in itertools.product((1, -1), repeat=T):
            vid, anchor, order, tokens = [-1] * T, [0] * T, [], []
            undecided = best is not None  # equal to best so far
            for j in range(L + 2 * T):
                if j < L:
                    ep = partner[(rotation + j) % L]
                else:
                    v = order[(j - L) // 2]
                    turn = 1 + (j - L) % 2
                    ep = partner[L + 3 * v + (anchor[v] + turn * eps[v]) % 3]
                if ep < L:
                    t = (ep - rotation) % L
                else:
                    v, s = divmod(ep - L, 3)
                    if vid[v] < 0:
                        vid[v], anchor[v] = len(order), s
                        order.append(v)
                        t = L + 3 * vid[v]
                    else:
                        t = L + 3 * vid[v] + (s - anchor[v]) * eps[v] % 3
                if undecided and t != best[j]:
                    if t > best[j]:
                        break
                    undecided = False
                tokens.append(t)
            else:
                if undecided:
                    signs.add(math.prod(eps))
                else:
                    best, signs = tuple(tokens), {math.prod(eps)}
    sign = 0 if len(signs) == 2 or d.has_tadpole() else signs.pop()
    sources = list(range(L))
    for v in range(T):
        sources += [L + 3 * v + 1, L + 3 * v + 2]
    edges = {tuple(sorted(e)) for e in zip(sources, best)}
    return (T, L) + best, sign, tuple(sorted(edges))


def test_canonical_search_matches_reference():
    # the first-token rotation filter against the full search, on every
    # enumerated class up to degree 6, seeded random diagrams, and a
    # seeded relabelling of each of them
    rng = random.Random(17)
    diagrams = []
    for n in range(7):
        diagrams += chord_diagrams(n) + one_vertex_diagrams(n)
        for T in range(6):
            diagrams += connected_diagrams(n, T) if n else []
    diagrams += [random_diagram(rng, rng.randint(1, 5), require_nonzero=False)
                 for _ in range(2000)]
    diagrams += [_relabelled(rng, d)[0] for d in diagrams]
    for d in diagrams:
        key, sign, edges = _reference_canonical(d)
        sd = canonicalize(d)
        assert (canonical_key(d), sd.sign, sd.diagram.edges) == \
            (key, sign, edges), serialize(d)


def _tadpole_free(rng, n, T):
    """Seeded tadpole-free degree-n diagram with exactly T vertices."""
    L = 2 * n - T
    while True:
        ends = list(range(L + 3 * T))
        rng.shuffle(ends)
        try:
            d = Diagram(L, T, zip(ends[::2], ends[1::2]))
        except ValueError:
            continue  # a dashed component misses the circle
        if not d.has_tadpole():
            return d


def test_canonical_search_matches_reference_many_vertices():
    # the orientation search branches where an orientation is first
    # read; degree-6 diagrams with 7-10 vertices (and a relabelling of
    # each) have the most branch points
    rng = random.Random(19)
    diagrams = [_tadpole_free(rng, 6, 7 + k % 4) for k in range(100)]
    diagrams += [_relabelled(rng, d)[0] for d in diagrams]
    for d in diagrams:
        key, sign, edges = _reference_canonical(d)
        sd = canonicalize(d)
        assert (canonical_key(d), sd.sign, sd.diagram.edges) == \
            (key, sign, edges), serialize(d)
