import functools
import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest

import vassiliev
from vassiliev import clear_caches, diagrams, knots, weights
from vassiliev.diagrams import (
    EMPTY,
    Diagram,
    canonicalize,
    chord_diagram,
    chord_diagrams,
    has_isolated_chord,
    product,
    random_diagram,
    serialize,
)
from vassiliev.basis import shared_basis
from vassiliev.knot_table import knot
from vassiliev.laurent import Laurent1
from vassiliev.relations import (
    ihx,
    internal_edges,
    quotient_space,
    reduce_to_chords,
    stu,
)
from vassiliev.weights import (
    DEFAULT_CONFIG,
    WeightConfig,
    check_multiplicativity,
    weight_product_group,
    weight_sun,
    weight_sun_at,
    weight_sun_deframed,
    weight_sun_deframed_at,
)

CFG = WeightConfig()
CHORD = chord_diagram([(0, 1)])
TRIPOD = Diagram(3, 1, [(0, 3), (1, 4), (2, 5)])


def _with_isolated_chord(d, pos):
    """d with an isolated chord inserted before circle position pos."""
    L = d.legs

    def shift(ep):
        if ep < L:
            return ep + 2 if ep >= pos else ep
        v, s = divmod(ep - L, 3)
        return (L + 2) + 3 * v + s

    edges = [(shift(a), shift(b)) for a, b in d.edges]
    edges.append((pos, pos + 1))
    return Diagram(L + 2, d.vertices, edges)


def _line_pairs(d):
    out = []
    for a, b in d.edges:
        if a < d.legs <= b:
            out.append(((b - d.legs) // 3, a))
        elif b < d.legs <= a:
            out.append(((a - d.legs) // 3, b))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(normalization=Fraction(0))
    with pytest.raises(ValueError):
        WeightConfig(algebra="so")


def test_empty_diagram_weight_is_one():
    assert weight_sun(EMPTY, CFG) == Laurent1.one("N")
    for n in (2, 5):
        assert weight_sun_at(EMPTY, n, CFG) == 1


def test_single_chord_weight():
    # (N^2 - 1) / (2N) with the default normalization 1/2
    expect = Laurent1({1: Fraction(1, 2), -1: Fraction(-1, 2)}, var="N")
    assert weight_sun(CHORD, CFG) == expect
    assert weight_sun_at(CHORD, 2, CFG) == Fraction(3, 4)
    assert weight_sun_at(CHORD, 3, CFG) == Fraction(4, 3)


def test_rank_below_two_rejected():
    with pytest.raises(ValueError):
        weight_sun_at(CHORD, 1, CFG)


def test_two_disjoint_chords_multiplicative():
    two = product(CHORD, CHORD)
    assert weight_sun(two, CFG) == weight_sun(CHORD, CFG) * weight_sun(CHORD, CFG)


def test_multiplicativity_examples():
    assert check_multiplicativity(CHORD, CHORD, CFG)
    assert check_multiplicativity(TRIPOD, CHORD, CFG)


def test_multiplicativity_random():
    rng = random.Random(41)
    for _ in range(30):
        d1 = random_diagram(rng, rng.randint(1, 3))
        d2 = random_diagram(rng, rng.randint(1, 2))
        assert check_multiplicativity(d1, d2, CFG), \
            (serialize(d1), serialize(d2))


def test_stu_consistency_random():
    rng = random.Random(42)
    done = 0
    while done < 30:
        d = random_diagram(rng, rng.randint(2, 5))
        pairs = _line_pairs(d)
        if not pairs:
            continue
        wd = weight_sun(d, CFG)
        v, leg = pairs[rng.randrange(len(pairs))]
        total = Laurent1.zero("N")
        for term, c in stu(d, v, leg).terms.items():
            total = total + weight_sun(term, CFG) * c
        assert total == wd, serialize(d)
        done += 1


def test_ihx_consistency_random():
    rng = random.Random(43)
    done = 0
    while done < 30:
        d = random_diagram(rng, rng.randint(2, 5))
        edges = internal_edges(d)
        if not edges:
            continue
        wd = weight_sun(d, CFG)
        e = edges[rng.randrange(len(edges))]
        total = Laurent1.zero("N")
        for term, c in ihx(d, e).terms.items():
            total = total + weight_sun(term, CFG) * c
        assert total == wd, serialize(d)
        done += 1


def test_isolated_chord_factorization():
    rng = random.Random(44)
    for _ in range(15):
        d = random_diagram(rng, rng.randint(1, 3))
        with_chord = _with_isolated_chord(d, rng.randrange(d.legs + 1))
        assert has_isolated_chord(with_chord)
        assert weight_sun(with_chord, CFG) == \
            weight_sun(CHORD, CFG) * weight_sun(d, CFG)


def test_gl_flag():
    cfg = WeightConfig(algebra="gl")
    # gl(N): single chord contracts to c * N
    assert weight_sun(CHORD, cfg) == Laurent1({1: Fraction(1, 2)}, var="N")
    assert check_multiplicativity(TRIPOD, CHORD, cfg)


def test_deframed_kills_isolated_chords():
    assert weight_sun_deframed(CHORD, CFG) == Laurent1.zero("N")
    nested = chord_diagram([(0, 1), (2, 3)])
    assert weight_sun_deframed(nested, CFG) == Laurent1.zero("N")
    assert weight_sun_deframed(EMPTY, CFG) == Laurent1.one("N")
    rng = random.Random(47)
    for _ in range(40):
        d = random_diagram(rng, rng.randint(0, 4))
        with_chord = _with_isolated_chord(d, rng.randrange(d.legs + 1))
        for cfg in (CFG, WeightConfig(algebra="gl")):
            assert not weight_sun_deframed(with_chord, cfg), serialize(d)
    for m in range(1, 6):
        for d in chord_diagrams(m):
            if has_isolated_chord(d):
                assert not weight_sun_deframed(d, CFG), serialize(d)


def test_deframed_agrees_on_tripod():
    assert weight_sun_deframed(TRIPOD, CFG) == weight_sun(TRIPOD, CFG)
    assert weight_sun_deframed_at(TRIPOD, 2, CFG) == Fraction(-3, 4)


def test_deframed_multiplicative():
    rng = random.Random(45)
    for _ in range(15):
        d1 = random_diagram(rng, rng.randint(1, 3))
        d2 = random_diagram(rng, rng.randint(1, 2))
        assert weight_sun_deframed(product(d1, d2), CFG) == \
            weight_sun_deframed(d1, CFG) * weight_sun_deframed(d2, CFG)


def test_product_group_connected():
    out = weight_product_group(TRIPOD)
    assert set(out) == {(2, 0), (0, 2)}
    # one factor, single symbol each
    for poly in out.values():
        assert len(poly.coeffs) == 1


def test_product_group_empty():
    out = weight_product_group(EMPTY)
    assert set(out) == {(0, 0)}
    from vassiliev.formal import MultiPoly

    assert out[(0, 0)] == MultiPoly.one()


def test_product_group_square():
    square = product(TRIPOD, TRIPOD)
    out = weight_product_group(square)
    # (g x^2 + g' x'^2)^2: exponents (4,0), (2,2), (0,4)
    assert set(out) == {(4, 0), (2, 2), (0, 4)}
    # the mixed term carries multiplicity 2
    mixed = out[(2, 2)]
    ((mono, coeff),) = mixed.coeffs.items()
    assert coeff == 2


def test_product_group_rejects_overlap():
    cross = chord_diagram([(0, 2), (1, 3)])
    with pytest.raises(ValueError):
        weight_product_group(cross)


# --------------------------------------------------------------------------
# reference oracle: the direct 2^m / 3^m state sums over chord resolutions


def _ref_loops(pairings, n_arcs):
    parent = list(range(n_arcs))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairings:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n_arcs)})


@functools.cache
def _ref_chord_weight(d, cfg):
    """Contract every chord: 2^m resolutions (one for gl)."""
    L = d.legs
    if L == 0:
        return Laurent1.one(var="N")
    out = Laurent1.zero(var="N")
    states = range(1 << len(d.edges)) if cfg.algebra == "su" else [0]
    for state in states:
        pairings = []
        trace_chords = 0
        for k, (p, q) in enumerate(d.edges):
            if (state >> k) & 1:
                trace_chords += 1
                pairings += [((p - 1) % L, p), ((q - 1) % L, q)]
            else:
                pairings += [((p - 1) % L, q), ((q - 1) % L, p)]
        loops = _ref_loops(pairings, L)
        out = out + Laurent1.term((-1) ** trace_chords,
                                  loops - 1 - trace_chords, var="N")
    return out * (cfg.normalization ** len(d.edges))


def _ref_remove_chords(d, keep):
    legs = sorted(p for chord in keep for p in chord)
    index = {p: i for i, p in enumerate(legs)}
    return Diagram(len(legs), 0, [(index[a], index[b]) for a, b in keep])


@functools.cache
def _ref_chord_weight_deframed(d, cfg):
    """Alternating sum over removed chord subsets, theta^|J| w(D - J)."""
    theta = _ref_chord_weight(CHORD, cfg)
    chords = list(d.edges)
    out = Laurent1.zero(var="N")
    for r in range(len(chords) + 1):
        factor = theta ** r * (-1) ** r
        for removed in itertools.combinations(range(len(chords)), r):
            keep = [c for k, c in enumerate(chords) if k not in removed]
            sub = canonicalize(_ref_remove_chords(d, keep)).diagram
            out = out + _ref_chord_weight(sub, cfg) * factor
    return out


def _ref_weight(d, cfg, chord_weight):
    out = Laurent1.zero(var="N")
    for c, coeff in reduce_to_chords(d).terms.items():
        out = out + chord_weight(c, cfg) * coeff
    return out


ORACLE_CONFIGS = [WeightConfig(c, algebra)
                  for c in (Fraction(1, 2), Fraction(2, 7))
                  for algebra in ("su", "gl")]


def _oracle_diagrams(basis):
    out = [e.diagram for i in range(basis.max_degree + 1)
           for e in basis.elements(i)]
    rng = random.Random(46)
    out += [random_diagram(rng, rng.randint(1, 5)) for _ in range(80)]
    return out


def test_matches_reference_state_sums(basis6):
    diagrams = _oracle_diagrams(basis6)
    assert len(diagrams) >= 18 + 75
    for cfg in ORACLE_CONFIGS:
        for d in diagrams:
            assert weight_sun(d, cfg) == \
                _ref_weight(d, cfg, _ref_chord_weight), (cfg, serialize(d))
            assert weight_sun_deframed(d, cfg) == \
                _ref_weight(d, cfg, _ref_chord_weight_deframed), \
                (cfg, serialize(d))


def test_deframed_su_equals_deframed_gl(basis6):
    for c in (Fraction(1, 2), Fraction(3)):
        su = WeightConfig(c, "su")
        gl = WeightConfig(c, "gl")
        for d in _oracle_diagrams(basis6):
            assert weight_sun_deframed(d, su) == weight_sun_deframed(d, gl), \
                serialize(d)


def _boundary_cycles(d):
    """Cycles of the permutation leg p -> partner of leg p + 1."""
    partner = d.partner
    seen, cycles = set(), 0
    for p in range(d.legs):
        if p not in seen:
            cycles += 1
            while p not in seen:
                seen.add(p)
                p = partner[(p + 1) % d.legs]
    return cycles or 1


def test_gl_chord_weight_is_one_monomial():
    for c in (Fraction(1, 2), Fraction(2, 7)):
        cfg = WeightConfig(c, "gl")
        for m in range(6):
            for d in chord_diagrams(m):
                expect = Laurent1.term(c ** m, _boundary_cycles(d) - 1, "N")
                assert weight_sun(d, cfg) == expect, serialize(d)


def test_weights_unchanged_after_clear_caches():
    d = random_diagram(random.Random(48), 5)
    before = (weight_sun(d, CFG), weight_sun_deframed(d, CFG))
    clear_caches()
    assert weights._cycle_counts.cache_info().currsize == 0
    assert weights._deframed.cache_info().currsize == 0
    assert (weight_sun(d, CFG), weight_sun_deframed(d, CFG)) == before


def test_one_cache_entry_per_value():
    # the public functions forward positional keys to cached kernels, so
    # every call shape of one value shares one entry
    assert quotient_space(5) is quotient_space(5, True) \
        is quotient_space(5, reduced=True)
    d = random_diagram(random.Random(49), 4)
    assert weight_sun_deframed(d) is weight_sun_deframed(d, DEFAULT_CONFIG)
    # the evaluated deframed weight is keyed by normalization, not algebra
    value = weight_sun_deframed_at(d, 3)
    size = weights._deframed_at.cache_info().currsize
    assert value is weight_sun_deframed_at(d, 3, WeightConfig(algebra="gl"))
    assert weights._deframed_at.cache_info().currsize == size
    assert value == weight_sun_deframed(d)(Fraction(3))
    third = WeightConfig(Fraction(1, 3))
    assert weight_sun_deframed_at(d, 3, third) == \
        weight_sun_deframed(d, third)(Fraction(3))


def test_deframed_at_rejects_low_rank_after_caching():
    # the rank check runs before the memo is read
    d = random_diagram(random.Random(52), 3)
    weight_sun_deframed_at(d, 3)
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            weight_sun_deframed_at(d, n)


def test_clear_caches_empties_every_cache():
    # clear_caches finds the functools caches itself: every one defined in
    # a submodule is filled here and must come back empty
    caches = []
    for info in pkgutil.iter_modules(vassiliev.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"vassiliev.{info.name}")
            caches += [(f"{info.name}.{name}", obj)
                       for name, obj in vars(module).items()
                       if hasattr(obj, "cache_info")
                       and obj.__module__ == module.__name__]
    vassiliev.derive_composite_identities(shared_basis(3), 3)
    vassiliev.coordinates(shared_basis(3).element(3, 0).diagram,
                          shared_basis(3))
    quotient_space(3, False).residual(chord_diagrams(3)[0])
    weight_sun_deframed(random_diagram(random.Random(50), 3))
    knots.homfly(knot("3_1"))
    vassiliev.verify_factorization(knot("3_1"), shared_basis(3), 3)
    assert [name for name, c in caches if not c.cache_info().currsize] == []
    assert diagrams._CANON_CACHE and knots._HOMFLY_MEMO
    clear_caches()
    assert [name for name, c in caches if c.cache_info().currsize] == []
    assert not diagrams._CANON_CACHE and not knots._HOMFLY_MEMO
