import pytest

import hashlib
import random
from fractions import Fraction

from vassiliev.knots import (
    BRACKET_CROSSING_BUDGET,
    COMPONENT_BUDGET,
    HOMFLY_CROSSING_BUDGET,
    _OrientedState,
    _splice_pseudo,
    BraidWord,
    BudgetExceededError,
    PlanarDiagram,
    braid_closure,
    braid_components,
    connected_sum,
    determinant,
    homfly,
    jones,
    kauffman_bracket,
    parse_pd,
    pd_to_text,
    rational_knot,
    sun_slice,
)
from vassiliev.cli import main as cli_main
from vassiliev.knot_table import knot, knot_names, table
from vassiliev.laurent import Laurent1, Laurent2
from vassiliev.linalg import determinant as matrix_determinant
from vassiliev.series import log_series, substitute_exponential

UNKNOT = PlanarDiagram([], 1)
JONES_TABLE = {
    # published values for the bundled chiralities
    "3_1": Laurent1({-1: 1, -3: 1, -4: -1}, var="t"),
    "4_1": Laurent1({2: 1, 1: -1, 0: 1, -1: -1, -2: 1}, var="t"),
    "5_1": Laurent1({-2: 1, -4: 1, -5: -1, -6: 1, -7: -1}, var="t"),
}


def test_pd_validation():
    with pytest.raises(ValueError):
        PlanarDiagram([(1, 2, 3)])
    with pytest.raises(ValueError):
        PlanarDiagram([(1, 2, 3, 4), (1, 2, 3, 4)])  # arcs used 4 times
    with pytest.raises(ValueError):
        # over-strand arcs not sequential in either direction
        PlanarDiagram([(2, 1, 4, 3), (1, 2, 3, 4)])
    with pytest.raises(ValueError):
        parse_pd("Y(1,2,3,4)")
    # a two-arc component that passes under at one crossing is oriented
    # by that under strand, whatever its labels say: 1 -> 2 and 3 -> 4
    # make this the negative Hopf link
    hopf = parse_pd("X(1,4,2,3) X(3,2,4,1)")
    assert hopf.signs() == (-1, -1)
    assert homfly(hopf) == homfly(braid_closure(BraidWord(2, [-1, -1])))


def test_pd_roundtrip():
    pd = knot("4_1")
    assert parse_pd(pd_to_text(pd)) == pd
    assert parse_pd("unknot").n_crossings == 0


def _rational_codes(total):
    """Every positive continued-fraction code with the given sum."""
    if total == 0:
        yield []
        return
    for first in range(1, total + 1):
        for rest in _rational_codes(total - first):
            yield [first] + rest


def test_pd_text_roundtrip_links_and_loops():
    # each link component is numbered on its own and every free loop is
    # written as O, so a printed PD reads back to the same diagram
    pds = []
    for name in knot_names():
        pds += [knot(name), knot(name + "!")]
    rng = random.Random(29)
    for _ in range(200):
        strands = rng.randint(1, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 8) if strands > 1 else 0)]
        pds.append(braid_closure(BraidWord(strands, word)))
    for total in range(1, 8):
        pds += [rational_knot(code) for code in _rational_codes(total)]
    assert sum(pd.loops > 0 and pd.n_crossings > 0 for pd in pds) > 10
    for pd in pds:
        back = parse_pd(pd_to_text(pd))
        assert back.crossings == pd.crossings, pd_to_text(pd)
        assert back.signs() == pd.signs(), pd_to_text(pd)
        assert back.loops == pd.loops, pd_to_text(pd)
        assert homfly(back) == homfly(pd), pd_to_text(pd)
    # the positive Hopf link as printed, the Knot Atlas's L2a1 (a
    # negative Hopf link), the trefoil plus a free loop, two loops
    assert parse_pd("X(4,2,3,1) X(2,4,1,3)").signs() == (1, 1)
    assert parse_pd("X(4,1,3,2) X(2,3,1,4)").signs() == (-1, -1)
    assert parse_pd("X(3,1,4,6) X(1,5,2,4) X(5,3,6,2) O").loops == 1
    assert pd_to_text(PlanarDiagram([], 2)) == "O O"
    assert parse_pd("O O").loops == 2
    assert pd_to_text(UNKNOT) == "unknot"


def test_labels_carry_the_signs_and_components_of_every_state():
    # to_planar writes only labels, so the signs and the component count
    # read back from them must be the state's own: on seeded closures and
    # on every state of their skein trees, unreduced and reduced.  The
    # count from the braid word alone must agree with the closure's
    rng = random.Random(2424)
    checked = 0
    for _ in range(80):
        strands = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 9))]
        braid = BraidWord(strands, word)
        closure = braid_closure(braid)
        assert braid_components(braid) == closure.components, (strands, word)
        stack = [_OrientedState.from_planar(closure)]
        while stack:
            state = stack.pop()
            for s in (state, state.reduced()):
                pd = s.to_planar()
                label = (strands, word, pd_to_text(pd))
                assert pd.signs() == tuple(
                    s.signs[k] for k in sorted(s.signs)), label
                walks = sum(1 for _ in s._walk_components())
                assert pd.components == walks + s.loops, label
                checked += 1
            _, bad, _ = state.walk()
            if bad is not None:
                stack += [state.smoothed(bad), state.switched(bad)]
    assert checked > 10000, checked


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, [2])
    with pytest.raises(ValueError):
        BraidWord(2, [0])


def test_bracket_unknot():
    assert kauffman_bracket(UNKNOT) == Laurent1.one("A")
    assert jones(UNKNOT) == Laurent1.one("t")


def test_jones_trefoil_both_chiralities():
    pos = braid_closure(BraidWord(2, [1, 1, 1]))
    neg = braid_closure(BraidWord(2, [-1, -1, -1]))
    assert jones(pos) == Laurent1({4: -1, 3: 1, 1: 1}, var="t")
    assert jones(neg) == JONES_TABLE["3_1"]


def test_jones_figure_eight():
    assert jones(knot("4_1")) == JONES_TABLE["4_1"]


def test_jones_5_1():
    assert jones(knot("5_1")) == JONES_TABLE["5_1"]


def test_mirror_inverts_variable():
    for name in ("3_1", "5_2", "6_2", "7_4"):
        pd = knot(name)
        assert jones(pd.mirror()) == jones(pd).mirror()


def test_bracket_mirror_symmetry():
    pd = knot("3_1")
    b = kauffman_bracket(pd)
    bm = kauffman_bracket(pd.mirror())
    assert bm == Laurent1({-e: c for e, c in b.coeffs.items()}, var="A")


def test_homfly_unknot():
    assert homfly(UNKNOT) == Laurent2.one()


def test_homfly_trefoil_value():
    pos = braid_closure(BraidWord(2, [1, 1, 1]))
    assert homfly(pos) == Laurent2({(4, 0): -1, (2, 0): 2, (2, 2): 1})


def test_homfly_accepts_braids():
    assert homfly(BraidWord(2, [1, 1, 1])) == \
        homfly(braid_closure(BraidWord(2, [1, 1, 1])))


def test_homfly_budget():
    big = connected_sum(knot("granny"), knot("granny"))
    with pytest.raises(BudgetExceededError):
        homfly(big)
    # a closure with exactly the budget's crossings is accepted, one
    # crossing more is refused
    word = ([1, -2] * HOMFLY_CROSSING_BUDGET)[:HOMFLY_CROSSING_BUDGET]
    assert homfly(BraidWord(3, word)).coeffs
    with pytest.raises(BudgetExceededError, match="budget"):
        homfly(BraidWord(3, word + [1]))


def test_sun_slice_rejects_small_rank():
    with pytest.raises(ValueError):
        sun_slice(homfly(UNKNOT), 1)


def test_slice_two_equals_jones_all_bundled():
    for name in knot_names():
        pd = knot(name)
        slice2 = sun_slice(homfly(pd), 2)
        assert slice2 == jones(pd).substitute_monomial(2, var="q"), name


def test_slice_of_connected_sum_multiplicative():
    k1, k2 = knot("3_1"), knot("4_1")
    s = sun_slice(homfly(connected_sum(k1, k2)), 3)
    assert s == sun_slice(homfly(k1), 3) * sun_slice(homfly(k2), 3)


def test_connected_sum_unknot_neutral():
    k = knot("5_2")
    assert homfly(connected_sum(k, UNKNOT)) == homfly(k)
    assert jones(connected_sum(UNKNOT, k)) == jones(k)


def test_connected_sum_keeps_free_loops():
    trefoil = knot("3_1")
    with_loop = PlanarDiagram(trefoil.crossings, 1)  # trefoil and an unknot
    assert connected_sum(with_loop, with_loop).loops == 2
    assert connected_sum(PlanarDiagram([], 2), trefoil).loops == 1
    assert connected_sum(trefoil, PlanarDiagram([], 3)).loops == 2
    assert connected_sum(PlanarDiagram([], 2), PlanarDiagram([], 2)).loops == 3
    operands = [with_loop, PlanarDiagram(knot("4_1").crossings, 2),
                PlanarDiagram([], 2), UNKNOT, trefoil]
    for a in operands:
        for b in operands:
            assert homfly(connected_sum(a, b)) == homfly(a) * homfly(b), (a, b)


def test_connected_sum_crossings_add():
    g = connected_sum(knot("3_1"), knot("3_1"))
    assert g.n_crossings == 6


def test_homfly_multiplicative_under_connected_sum():
    pairs = [("3_1", "3_1"), ("3_1", "4_1"), ("4_1", "5_2"), ("3_1!", "3_1")]
    for a, b in pairs:
        ka, kb = knot(a), knot(b)
        assert homfly(connected_sum(ka, kb)) == homfly(ka) * homfly(kb), (a, b)


def test_granny_square_table_entries():
    t31 = knot("3_1")
    assert homfly(knot("granny")) == homfly(t31) ** 2
    assert homfly(knot("square")) == homfly(t31) * homfly(t31.mirror())


def test_table_metadata():
    # crossing counts and determinants stored in the table are accurate
    for name, rec in table().items():
        assert rec.diagram.n_crossings == rec.crossings, name
        assert determinant(rec.diagram) == rec.determinant, name


def test_table_determinants_standard_values():
    expected = {
        "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9, "6_2": 11,
        "6_3": 13, "7_1": 7, "7_2": 11, "7_3": 13, "7_4": 15, "7_5": 17,
        "7_6": 19, "7_7": 21, "8_1": 13, "8_2": 17, "8_3": 17, "8_4": 19,
        "8_19": 3, "granny": 9, "square": 9, "0_1": 1,
    }
    for name, det in expected.items():
        assert determinant(knot(name)) == det, name


def test_amphichirality_pattern():
    # 4_1, 6_3, 8_3 are amphichiral; 3_1, 5_2, 8_2 are not
    for name in ("4_1", "6_3", "8_3"):
        j = jones(knot(name))
        assert j == j.mirror(), name
    for name in ("3_1", "5_2", "8_2"):
        j = jones(knot(name))
        assert j != j.mirror(), name


def test_rational_knot_validation():
    with pytest.raises(ValueError):
        rational_knot([])
    with pytest.raises(ValueError):
        rational_knot([2, 0])


def test_unknown_knot_name():
    with pytest.raises(ValueError):
        knot("9_99")
    # one trailing '!' mirrors; a second one names no knot
    for name in ("3_1!!", "4_1!!!"):
        with pytest.raises(ValueError, match="unknown knot"):
            knot(name)


def test_mirror_suffix():
    assert knot("3_1!") == knot("3_1").mirror()


def _is_knot_braid(strands, word):
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for s in range(strands):
        if s in seen:
            continue
        cycles += 1
        x = s
        while x not in seen:
            seen.add(x)
            x = perm[x]
    return cycles == 1


def test_random_braid_knots_slice_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 9))]
        if not _is_knot_braid(strands, word):
            continue
        pd = braid_closure(BraidWord(strands, word))
        if pd.n_crossings > 9:
            continue
        assert sun_slice(homfly(pd), 2) == \
            jones(pd).substitute_monomial(2, var="q"), (strands, word)
        checked += 1


def _ring_map_slice(h, n):
    # the per-term ring map sun_slice replaced: powers of a = q^n and
    # z = q - q^-1 multiplied and added as Laurent polynomials
    a, z = Laurent1({n: 1}, var="q"), Laurent1({1: 1, -1: -1}, var="q")
    out = Laurent1.zero(var="q")
    for (e1, e2), c in sorted(h.coeffs.items()):
        out = out + (a ** e1) * (z ** e2) * c
    return out


def _table_and_braid_knots(seed, extra):
    """Every table knot and its mirror, then `extra` seeded closures of
    knot braids with at most 9 letters on 2-4 strands."""
    cases = [(name, knot(name)) for base in knot_names()
             for name in (base, base + "!")]
    rng = random.Random(seed)
    while len(cases) < 2 * len(knot_names()) + extra:
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 9))]
        if _is_knot_braid(strands, word):
            cases.append(((strands, word),
                          braid_closure(BraidWord(strands, word))))
    return cases


def test_sun_slice_matches_ring_map():
    # the binomial expansion against the Laurent ring map, N = 2..9
    for what, pd in _table_and_braid_knots(35, 30):
        h = homfly(pd)
        for n in range(2, 10):
            s, oracle = sun_slice(h, n), _ring_map_slice(h, n)
            assert s.coeffs == oracle.coeffs, (what, n)
            assert str(s) == str(oracle), (what, n)


def test_slices_and_logs_pinned():
    # sha256 of the N = 2..5 slices and of the logs of their series at
    # q = exp(x/2) to order 8, for every table knot and mirror, as the
    # Laurent ring map and the Fraction log recurrence computed them
    slices, logs = [], []
    for base in knot_names():
        for name in (base, base + "!"):
            h = homfly(knot(name))
            for n in range(2, 6):
                s = sun_slice(h, n)
                log = log_series(substitute_exponential(s, 8, Fraction(1, 2)))
                slices.append(f"{name} {n}: {s}")
                logs.append(f"{name} {n}: {log}")
    digests = [hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for lines in (slices, logs)]
    assert digests == [
        "f4c318e920efb2500ce8d65504f4f67e25b77d18116a40b1c1a3a96d7675775d",
        "15ebb5d8b259e049b42c683eaa835dd7084bb1a4147b0bcfd3557a7a4d144bc9"]


def _assert_int_coefficients(poly, what):
    kinds = {type(c).__name__ for c in poly.coeffs.values()}
    assert kinds <= {"int"}, (what, kinds)


def test_knot_polynomials_keep_int_coefficients():
    # the bracket, skein and slice arithmetic is integer throughout; a
    # stray Fraction would put the knot layer back on fractions.Fraction
    for what, pd in _table_and_braid_knots(83, 12):
        _assert_int_coefficients(jones(pd), what)
        h = homfly(pd)
        _assert_int_coefficients(h, what)
        for n in range(2, 6):
            _assert_int_coefficients(sun_slice(h, n), (what, n))


def test_homfly_memo_matches_fresh():
    # the skein memo is keyed on the walk code; a key that merged two
    # different states would make shared-memo values differ from fresh ones
    from vassiliev.knots import _HOMFLY_MEMO

    rng = random.Random(61)
    words = []
    for _ in range(60):
        strands = rng.randint(2, 4)
        words.append((strands, [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                                for _ in range(rng.randint(1, 9))]))
    # the memo holds what these words alone leave, whatever ran before
    _HOMFLY_MEMO.clear()
    shared = [homfly(BraidWord(s, w)) for s, w in words]
    filled = dict(_HOMFLY_MEMO)
    assert filled
    # a second pass reads the memo and adds no entry
    assert [homfly(BraidWord(s, w)) for s, w in words] == shared
    assert _HOMFLY_MEMO == filled
    for (s, w), value in zip(words, shared):
        _HOMFLY_MEMO.clear()  # the skein recursion's only cache
        assert homfly(BraidWord(s, w)) == value, (s, w)


def test_homfly_walks_each_skein_state_once(monkeypatch):
    # one walk of a reduced state gives its memo key, the crossing to
    # resolve and its component count, so every skein state, descending
    # or not, walks its components exactly once
    from vassiliev import knots

    counts = {"states": 0, "walks": 0}
    state_fn, walk_fn = knots._homfly_state, _OrientedState._walk_components

    def counting_state(state):
        counts["states"] += 1
        return state_fn(state)

    def counting_walk(self):
        counts["walks"] += 1
        return walk_fn(self)

    # knots, then links of 2 and 3 components and a Hopf link with a free
    # loop, all built before the count, as closures and mirrors walk
    # their states in to_planar
    words = [(2, [1, 1, 1, 1]), (3, [1, 1, -2, -2, 1, 2, 2, 1]), (3, [1, 1])]
    pds = [pd for _, pd in _table_and_braid_knots(37, 40)]
    pds += [braid_closure(BraidWord(s, w)) for s, w in words]
    monkeypatch.setattr(knots, "_homfly_state", counting_state)
    monkeypatch.setattr(_OrientedState, "_walk_components", counting_walk)
    monkeypatch.setattr(knots, "_HOMFLY_MEMO", {})  # every state cold
    for pd in pds:
        homfly(pd)
    assert counts["walks"] == counts["states"] > 300, counts
    assert len(knots._HOMFLY_MEMO) > 100  # states that are not descending


def test_markov_stabilization_invariance():
    # adding a strand and a kink generator leaves the closure unchanged;
    # this drives the curl-handling paths of the skein recursion
    for base_word, strands in [([1, 1, 1], 2), ([1, -2, 1, -2], 3)]:
        pd0 = braid_closure(BraidWord(strands, base_word))
        for sgn in (1, -1):
            pd = braid_closure(
                BraidWord(strands + 1, base_word + [sgn * strands]))
            assert pd.n_crossings == pd0.n_crossings + 1
            assert homfly(pd) == homfly(pd0)
            assert jones(pd) == jones(pd0)


def test_curl_diagrams_are_unknots():
    # one-crossing curls of either handedness normalize away exactly
    for crossings, sign in ([(1, 1, 2, 2)], 1), ([(1, 2, 2, 1)], -1):
        pd = PlanarDiagram(crossings)
        assert pd.signs() == (sign,)
        assert jones(pd) == Laurent1.one("t")
        assert homfly(pd) == Laurent2.one()


def test_homfly_z_exponents_even_nonnegative():
    for name in ("3_1", "4_1", "6_1", "8_19"):
        h = homfly(knot(name))
        assert all(z >= 0 and z % 2 == 0 for (_, z) in h.coeffs), name


def _construct(construction: str) -> PlanarDiagram:
    """Rebuild a table entry from its recorded construction."""
    kind, _, arg = construction.partition(" ")
    if kind == "unknot":
        return PlanarDiagram([])
    if kind == "rational":
        return rational_knot(int(x) for x in arg.split(","))
    if kind == "braid":
        strands, word = arg.split(":")
        return braid_closure(
            BraidWord(int(strands), [int(x) for x in word.split(",")]))
    a, b = construction.split(" # ")
    return connected_sum(knot(a), knot(b))


def test_table_regenerates_from_constructions():
    # pins rational_knot, braid_closure, connected_sum and to_planar
    for name, rec in table().items():
        built = _construct(rec.construction)
        assert pd_to_text(built) == pd_to_text(rec.diagram), name
        assert built.signs() == rec.diagram.signs(), name


def _reference_bracket(pd: PlanarDiagram) -> Laurent1:
    """The bracket as a plain state sum: one union-find over the corners
    and one Laurent term per state."""
    n = len(pd.crossings)
    delta = Laurent1({2: -1, -2: -1}, var="A")
    total = Laurent1.zero(var="A")
    ends: dict[int, list[int]] = {}
    for k, c in enumerate(pd.crossings):
        for p, arc in enumerate(c):
            ends.setdefault(arc, []).append(4 * k + p)
    for state in range(1 << n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        for k in range(n):
            if (state >> k) & 1:  # B: join corners (0,3) and (1,2)
                union(4 * k, 4 * k + 3)
                union(4 * k + 1, 4 * k + 2)
            else:  # A: join corners (0,1) and (2,3)
                union(4 * k, 4 * k + 1)
                union(4 * k + 2, 4 * k + 3)
        for x, y in ends.values():
            union(x, y)
        loops = len({find(x) for x in range(4 * n)}) + pd.loops
        b = bin(state).count("1")
        total = total + Laurent1.term(1, n - 2 * b, var="A") * \
            delta ** (loops - 1)
    return total


def _bracket_reference_cases():
    for name in knot_names():
        yield name, knot(name)
        yield name + "!", knot(name).mirror()
    rng = random.Random(2718)
    for _ in range(200):
        strands = rng.randint(1, 6)
        word = [] if strands == 1 else [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 9))]
        yield (strands, word), braid_closure(BraidWord(strands, word))
    for crossings in ([(1, 1, 2, 2)], [(1, 2, 2, 1)]):
        yield crossings, PlanarDiagram(crossings)
    for k in (1, 2, 3):
        yield ("loops", k), PlanarDiagram([], k)
    # split closures whose parts both cross (the contraction's frontier
    # empties between them), and free strands between crossed ones
    for strands, word in ((4, [1, 1, 1, 3, 3, 3]), (4, [1, -1, 3, -3, 3]),
                          (6, [1, 2, 1, 2, 4, 5, -4, 5]), (5, [1, 3]),
                          (5, [1, 4, 4, 4]), (7, [2, -2, 2, 5, 6, 5, 6])):
        yield (strands, word), braid_closure(BraidWord(strands, word))
    for total in range(1, 9):
        for code in _rational_codes(total):
            yield ("rational", code), rational_knot(code)
    for a, b in (("3_1", "3_1!"), ("4_1", "5_2"), ("3_1", "7_4!"),
                 ("5_1", "5_1"), ("6_3", "4_1")):
        yield (a, "#", b), connected_sum(knot(a), knot(b))
    rng = random.Random(1618)
    for _ in range(10):
        strands = rng.randint(5, 8)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(9, 11))]
        yield (strands, word), braid_closure(BraidWord(strands, word))


def test_bracket_matches_reference_state_sum():
    for label, pd in _bracket_reference_cases():
        assert kauffman_bracket(pd) == _reference_bracket(pd), label


def _fuzzed_pd_texts(seed, count):
    """Seeded PD texts of 1-7 crossings: codes of braid closures and
    rational knots with their crossings shuffled and their labels
    perturbed, and random arc patterns, some with a free loop."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.25:
            n = rng.randint(1, 7)
            arcs = list(range(1, 2 * n + 1)) * 2
            rng.shuffle(arcs)
            crossings = [arcs[i:i + 4] for i in range(0, 4 * n, 4)]
        else:
            if rng.random() < 0.5:
                strands = rng.randint(2, 4)
                pd = braid_closure(BraidWord(strands, [
                    rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(1, 7))]))
            else:
                code = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
                pd = rational_knot(code if sum(code) <= 7 else code[:2])
            # a closure without crossings stands in as a one-crossing curl
            crossings = [list(c) for c in pd.crossings] or [[1, 1, 2, 2]]
            rng.shuffle(crossings)
            n = len(crossings)
            move = rng.randrange(5)  # 0: the shuffle alone
            if move == 1:  # shift every label cyclically
                shift = rng.randint(1, 2 * n - 1)
                crossings = [[(x + shift - 1) % (2 * n) + 1 for x in c]
                             for c in crossings]
            elif move == 2:  # rotate one crossing's ports
                c = rng.choice(crossings)
                r = rng.randint(1, 3)
                c[:] = c[r:] + c[:r]
            elif move == 3:  # exchange the labels at two ports
                i, j = rng.randrange(4 * n), rng.randrange(4 * n)
                a, b = crossings[i // 4][i % 4], crossings[j // 4][j % 4]
                crossings[i // 4][i % 4], crossings[j // 4][j % 4] = b, a
            elif move == 4:  # one label out of place or out of range
                c = rng.choice(crossings)
                c[rng.randrange(4)] = rng.randint(0, 2 * n + 1)
        text = " ".join(f"X({a},{b},{c},{d})" for a, b, c, d in crossings)
        yield text + (" O" if rng.random() < 0.1 else "")


def test_pd_fuzz_parses_rejects_and_agrees(capsys):
    # parse_pd either accepts a text or raises ValueError; an accepted
    # code has the reference bracket, and the CLI exits 0 or 2 (a link
    # with an even number of components is refused) without a traceback
    accepted = rejected = 0
    for text in _fuzzed_pd_texts(3141, 400):
        try:
            pd = parse_pd(text)
        except ValueError:
            pd = None
        code = cli_main(["jones", "--pd", text])
        out, err = capsys.readouterr()
        if pd is None:
            rejected += 1
            assert code == 2 and err.startswith("error: "), text
            continue
        accepted += 1
        assert kauffman_bracket(pd) == _reference_bracket(pd), text
        if code == 2:
            assert "even number of components" in err, text
        else:
            assert code == 0 and f"jones: {jones(pd)}\n" in out, text
    assert accepted >= 100 and rejected >= 100, (accepted, rejected)


def test_bracket_budget():
    word = BraidWord(2, [1] * (BRACKET_CROSSING_BUDGET + 1))
    with pytest.raises(BudgetExceededError, match="budget"):
        jones(braid_closure(word))


def _torus_jones(p: int, q: int) -> Laurent1:
    """V(T(p,q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q))
    / (1 - t^2), the division done exactly on coefficient lists."""
    num = [0] * (p + q + 1)
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[e] += c
    quo = []  # num = (1 - t^2) * quo: quo_i = num_i + quo_(i-2)
    for i in range(p + q - 1):
        quo.append(num[i] + (quo[i - 2] if i >= 2 else 0))
    assert num[p + q - 1] + quo[p + q - 3] == 0
    assert num[p + q] + quo[p + q - 2] == 0
    shift = (p - 1) * (q - 1) // 2
    return Laurent1({shift + i: c for i, c in enumerate(quo) if c},
                    var="t")


def test_jones_of_torus_knots_up_to_the_budget():
    # the closure of (s_1 ... s_(p-1))^q, up to 16 crossings, where the
    # state-sum reference is out of reach
    cases = [(2, q) for q in range(3, 16, 2)] + [(3, q) for q in (4, 5, 7, 8)]
    for p, q in cases:
        pd = braid_closure(BraidWord(p, list(range(1, p)) * q))
        assert pd.n_crossings == (p - 1) * q <= BRACKET_CROSSING_BUDGET
        assert jones(pd) == _torus_jones(p, q), (p, q)
    assert str(_torus_jones(3, 8)) == "-t^16 + t^9 + t^7"
    assert _torus_jones(2, 3) == JONES_TABLE["3_1"].mirror()


def test_component_budget_counts_free_loops(monkeypatch):
    # an s:1 braid closes to s - 1 components, s - 2 of them free loops
    at_limit = braid_closure(BraidWord(COMPONENT_BUDGET + 1, [1]))
    over = braid_closure(BraidWord(COMPONENT_BUDGET + 2, [1]))
    assert at_limit.loops == COMPONENT_BUDGET - 1
    assert homfly(at_limit) == Laurent2({(-1, -1): 1, (1, -1): -1}) ** (
        COMPONENT_BUDGET - 1)
    assert kauffman_bracket(at_limit).coeffs
    loops_only = PlanarDiagram([], COMPONENT_BUDGET + 1)
    for pd in (over, loops_only):
        for invariant in (homfly, kauffman_bracket):
            with pytest.raises(BudgetExceededError, match=(
                    f"component budget of {COMPONENT_BUDGET}")):
                invariant(pd)
    # a braid word is counted before its closure builds any strand
    from vassiliev import knots

    def no_closure(edges):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(knots, "_splice_pseudo", no_closure)
    with pytest.raises(BudgetExceededError, match=(
            f"^999999 components exceed the component budget of "
            f"{COMPONENT_BUDGET}$")):
        homfly(BraidWord(10 ** 6, [1]))
    # and so are its crossings, one per letter
    with pytest.raises(BudgetExceededError, match=(
            f"^60000 crossings exceed the skein budget of "
            f"{HOMFLY_CROSSING_BUDGET}$")):
        homfly(BraidWord(2, [1] * 60000))


def _reference_smoothed(state: _OrientedState, k: int) -> _OrientedState:
    """The oriented smoothing by its own port walk: strands thread through
    the junctions of k and through the curls wiring k to itself."""
    junction = {0: 1, 1: 0, 2: 3, 3: 2} if state.signs[k] > 0 else \
               {0: 3, 3: 0, 1: 2, 2: 1}
    signs = {c: s for c, s in state.signs.items() if c != k}
    wiring = {a: b for a, b in state.wiring.items()
              if a[0] != k and b[0] != k}
    loops = state.loops
    external = {}
    internal = {}
    for p in range(4):
        far = state.wiring[(k, p)]
        if far[0] == k:
            internal[p] = far[1]
        else:
            external[p] = far
    visited = set()
    for p in sorted(external):
        if p in visited:
            continue
        visited.add(p)
        q = junction[p]
        visited.add(q)
        while q in internal:
            q = internal[q]
            visited.add(q)
            q = junction[q]
            visited.add(q)
        a, b = external[p], external[q]
        wiring[a] = b
        wiring[b] = a
    remaining = set(range(4)) - visited
    while remaining:
        start = remaining.pop()
        q = start
        while True:
            q = junction[q]
            remaining.discard(q)
            q = internal[q]
            remaining.discard(q)
            if q == start:
                break
        loops += 1
    return _OrientedState(signs, wiring, loops)


def _smoothing_reference_cases():
    for name in knot_names():
        yield name, knot(name)
        yield name + "!", knot(name).mirror()
    for crossings in ([(1, 1, 2, 2)], [(1, 2, 2, 1)]):
        yield crossings, PlanarDiagram(crossings)
    rng = random.Random(1414)
    for _ in range(200):
        strands = rng.randint(1, 5)
        word = [] if strands == 1 else [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 9))]
        yield (strands, word), braid_closure(BraidWord(strands, word))


def test_smoothed_matches_reference_walk():
    # every crossing, and every crossing of each smoothing, so that curls
    # left by an earlier smoothing are resolved too
    for label, pd in _smoothing_reference_cases():
        states = [_OrientedState.from_planar(pd)]
        for depth in range(2):
            nxt = []
            for state in states:
                for k in state.signs:
                    got = state.smoothed(k)
                    want = _reference_smoothed(state, k)
                    assert (got.signs, got.wiring, got.loops) == \
                        (want.signs, want.wiring, want.loops), (label, k)
                    nxt.append(got)
            states = nxt


def test_splice_pseudo_resolves_chains_and_cycles():
    # a chain of three pseudo nodes between two real ports is one wire
    chain = [((0, 2), ("p", 1)), (("p", 2), ("p", 1)), (("p", 2), ("p", 3)),
             ((1, 0), ("p", 3))]
    assert _splice_pseudo(chain) == ({(0, 2): (1, 0), (1, 0): (0, 2)}, 0)
    # an untouched braid strand is a pseudo self-loop: one free loop
    assert _splice_pseudo([(("p", 0), ("p", 0))]) == ({}, 1)
    # a pure pseudo 3-cycle is one free loop, however many nodes it has
    cycle = [(("p", 1), ("p", 2)), (("p", 2), ("p", 3)), (("p", 3), ("p", 1))]
    assert _splice_pseudo(cycle) == ({}, 1)
    # a real-real edge is kept as it is
    assert _splice_pseudo([((0, 1), (1, 3))]) == \
        ({(0, 1): (1, 3), (1, 3): (0, 1)}, 0)
    # all of them together: the wires and the loops add up
    mixed = chain + [(("p", 0), ("p", 0))] + \
        [(("p", 10 + a), ("p", 10 + b)) for (_, a), (_, b) in cycle] + \
        [((2, 1), (3, 3))]
    wiring, loops = _splice_pseudo(mixed)
    assert loops == 2
    assert wiring == {(0, 2): (1, 0), (1, 0): (0, 2),
                      (2, 1): (3, 3), (3, 3): (2, 1)}


def _reference_canonical_code(state: _OrientedState) -> tuple:
    """The exhaustive skein code: every out-port is traced in full as a
    start and the least code wins; a split diagram minimizes over every
    entry point of each further part."""
    outs = state.out_ports()
    if not outs:
        return ("loops", state.loops)

    def trace(start, disc, tokens, seen_out):
        cur = start
        while True:
            seen_out.add(cur)
            k, p = state.wiring[cur]
            if k not in disc:
                disc[k] = len(disc)
                tokens.append(("n", state.signs[k], p))
            else:
                tokens.append(("o", disc[k], p))
            cur = (k, p ^ 2)
            if cur == start:
                return

    def finish(disc, tokens, seen_out):
        while True:
            cands = [(disc[k], pp) for (k, pp) in outs
                     if k in disc and (k, pp) not in seen_out]
            if not cands:
                break
            d_id, pp = min(cands)
            tokens.append(("c", d_id, pp))
            trace((list(disc)[d_id], pp), disc, tokens, seen_out)
        remaining = [x for x in outs if x not in seen_out]
        if not remaining:
            return tuple(tokens)
        tails = []
        for cand in remaining:
            disc2, tokens2, seen2 = dict(disc), list(tokens), set(seen_out)
            tokens2.append(("s",))
            trace(cand, disc2, tokens2, seen2)
            tails.append(finish(disc2, tokens2, seen2))
        return min(tails)

    codes = []
    for start in outs:
        disc, tokens, seen_out = {}, [], set()
        trace(start, disc, tokens, seen_out)
        codes.append(finish(disc, tokens, seen_out))
    return min(codes) + ("loops", state.loops)


def _skein_code_cases():
    for name in knot_names():
        yield name, knot(name)
        yield name + "!", knot(name).mirror()
    rng = random.Random(1313)
    made = 0
    while made < 240:
        kind = made % 3
        strands = rng.randint(3, 5) if kind else rng.randint(2, 5)
        gens = list(range(1, strands))
        if kind == 1:  # a split link: one generator never occurs
            gens.remove(rng.choice(gens))
        word = [rng.choice((1, -1)) * rng.choice(gens)
                for _ in range(rng.randint(1, 10))]
        if kind == 2:  # a pure braid on three strands: three components
            strands = 3
            word = [x for x in word[:5] if abs(x) < 3 for _ in (0, 1)]
        pd = braid_closure(BraidWord(strands, word))
        if pd.n_crossings <= 10:
            made += 1
            yield (strands, word), pd


def test_walk_code_never_merges_distinct_states():
    # the skein memo key may give one diagram several codes, but must
    # never give two diagrams one: every key meets only one class of the
    # exhaustive least code, on every state of the unreduced skein tree
    # (knots, split links, 3 components).  The tree is walked here
    # (switch and smooth at the first bad crossing until descending), as
    # homfly's curl and bigon removal leaves few states for the key; a
    # state whose key was met before is not expanded again, as a memo hit
    # would not be
    classes: dict = {}  # walk code -> the reference code first met
    seen = {"states": 0, "split": 0, "three": 0}
    for label, pd in _skein_code_cases():
        codes = set()
        stack = [_OrientedState.from_planar(pd)]
        while stack:
            state = stack.pop()
            code, bad, comps = state.walk()
            reference = _reference_canonical_code(state)
            assert classes.setdefault(code, reference) == reference, label
            seen["states"] += 1
            seen["split"] += ("s",) in reference
            seen["three"] += comps == 3
            if code in codes:
                continue
            codes.add(code)
            if bad is not None:
                stack += [state.smoothed(bad), state.switched(bad)]
    assert seen["states"] > 5000
    assert seen["split"] > 100 and seen["three"] > 100, seen


_DELTA = Laurent2({(-1, -1): 1, (1, -1): -1})  # (1/a - a)/z


def _reference_homfly(pd: PlanarDiagram) -> Laurent2:
    """The skein recursion without curl and bigon removal, with a memo of
    its own: every state is keyed on its walk code, as homfly's are, then
    switched and smoothed at its first bad crossing until it is
    descending."""
    memo: dict = {}

    def value(state):
        code, bad, comps = state.walk()
        if code not in memo:
            if bad is None:
                memo[code] = _DELTA ** (comps - 1)
            else:
                switched = value(state.switched(bad))
                smoothed = value(state.smoothed(bad))
                s = state.signs[bad]
                memo[code] = Laurent2.term(1, 2 * s, 0) * switched + \
                    Laurent2.term(s, s, 1) * smoothed
        return memo[code]

    return value(_OrientedState.from_planar(pd))


def _random_pd_codes(seed, sizes):
    """Seeded random crossing lists with n in `sizes` crossings, each of
    the arcs 1..2n used twice."""
    rng = random.Random(seed)
    while True:
        n = rng.choice(sizes)
        arcs = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(arcs)
        yield [arcs[i:i + 4] for i in range(0, 4 * n, 4)]


def _random_planar_pds(seed, count, sizes):
    """The first `count` random codes that PlanarDiagram accepts
    (sequential labels, consistent signs, planar)."""
    pds = []
    for crossings in _random_pd_codes(seed, sizes):
        if len(pds) == count:
            return pds
        try:
            pds.append(PlanarDiagram(crossings))
        except ValueError:
            pass


def _reduction_oracle_cases():
    for name in knot_names():
        yield name, knot(name)
        yield name + "!", knot(name).mirror()
    yield from _skein_code_cases()
    for crossings in ([(1, 1, 2, 2)], [(1, 2, 2, 1)]):
        yield crossings, PlanarDiagram(crossings)
    rng = random.Random(4242)
    for _ in range(120):
        # a braid word with a cancelling pair s s^-1 inserted, then
        # Markov-stabilized on a new strand
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 6))]
        g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        at = rng.randint(0, len(word))
        word[at:at] = [g, -g]
        if rng.random() < 0.5:
            word.insert(rng.randint(0, len(word)),
                        rng.choice((1, -1)) * strands)
            strands += 1
        yield (strands, word), braid_closure(BraidWord(strands, word))
    for pd in _random_planar_pds(577, 150, (2, 3, 4, 5, 6)):
        yield pd_to_text(pd), pd


def _bounds_face(state: _OrientedState, k: int, j: int) -> bool:
    """True if two arcs between crossings k and j bound a face: a cycle
    of two steps of "along the arc, then to the previous port"."""
    def step(corner):
        far_k, far_p = state.wiring[corner]
        return far_k, (far_p - 1) % 4

    return any(step(step((k, p))) == (k, p) and step((k, p))[0] == j
               for p in range(4))


def test_homfly_reduction_matches_unreduced_recursion(monkeypatch):
    # curl and bigon removal before the memo key is an isotopy, so every
    # value equals the unreduced recursion's; both moves must fire often,
    # and every removed bigon is a face of the diagram (Reidemeister II)
    from vassiliev import knots

    fired = {1: 0, 2: 0}  # curls, bigons
    reducible = _OrientedState._reducible

    def counted(state):
        ks = reducible(state)
        if ks is not None:
            fired[len(ks)] += 1
            assert len(ks) == 1 or _bounds_face(state, *ks), label
        return ks

    monkeypatch.setattr(_OrientedState, "_reducible", counted)
    for label, pd in _reduction_oracle_cases():
        knots._HOMFLY_MEMO.clear()
        assert homfly(pd) == _reference_homfly(pd), label
    knots._HOMFLY_MEMO.clear()
    assert fired[1] > 500 and fired[2] > 500, fired
    # s s^-1 closes to a two-component unlink, and s s^-1 inserted into a
    # word is removed; an alternating twist (a clasp) is left alone
    label = "reach"
    unlink = _OrientedState.from_planar(braid_closure(BraidWord(2, [1, -1])))
    assert (unlink.reduced().signs, unlink.reduced().loops) == ({}, 2)
    for strands, word in [(2, [1, 1]), (2, [1, 1, 1]), (3, [1, -2, 1, -2]),
                          (3, [1, 1, -2, -2, 1, 1])]:
        state = _OrientedState.from_planar(
            braid_closure(BraidWord(strands, word)))
        assert len(state.reduced().signs) == len(word), word
        padded = braid_closure(BraidWord(strands, word[:1] + [-1, 1, 1, -1]
                                         + word[1:]))
        reduced = _OrientedState.from_planar(padded).reduced()
        assert len(reduced.signs) == len(word), word


def test_pd_rejects_non_planar_codes():
    # sequential labels and consistent signs, but the faces of the
    # shadow do not close up on the sphere (a virtual diagram)
    with pytest.raises(ValueError, match="not planar"):
        parse_pd("X(1,3,2,4) X(4,1,3,2)")
    rejected = 0
    for crossings, _ in zip(_random_pd_codes(12, (2, 3, 4)), range(3000)):
        try:
            PlanarDiagram(crossings)
        except ValueError as exc:
            rejected += "not planar" in str(exc)
    assert rejected > 50


def _alexander_at(pd: PlanarDiagram, t: Fraction) -> Fraction:
    """Reduced Alexander determinant of a knot PD at t: one generator per
    PD arc, a row x_j - x_l joining the two arcs of each over strand and
    a row (1 - u) x_j + u x_i - x_k per crossing X(i,j,k,l), with u = t
    on positive and 1/t on negative crossings; one column and the last
    row are dropped."""
    size = 2 * pd.n_crossings
    rows = []
    for i, j, k, l in pd.crossings:
        row = [Fraction(0)] * size
        row[j - 1] += 1
        row[l - 1] -= 1
        rows.append(row)
    for (i, j, k, l), sign in zip(pd.crossings, pd.signs()):
        u = t if sign > 0 else 1 / t
        row = [Fraction(0)] * size
        row[j - 1] += 1 - u
        row[i - 1] += u
        row[k - 1] -= 1
        rows.append(row)
    return matrix_determinant([row[1:] for row in rows[:-1]])


def _alexander_cases():
    for name in knot_names():
        if name != "0_1":
            yield name, knot(name), table()[name].determinant
    rng = random.Random(2718)
    made = 0
    while made < 60:
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 10))]
        if _is_knot_braid(strands, word):
            made += 1
            yield (strands, word), braid_closure(BraidWord(strands, word)), \
                None


def test_alexander_matrix_matches_skein_and_determinant():
    # independent oracle for the skein: the Alexander polynomial of the
    # Wirtinger presentation is the Conway slice P(a = 1, z = s - 1/s) at
    # t = s^2, up to one unit +-t^m, and |Alexander(-1)| is the determinant
    for label, pd, det in _alexander_cases():
        h = homfly(pd)
        units = set()
        for s in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)):
            t, z = s * s, s - 1 / s
            conway = sum(c * z ** j for (i, j), c in h.coeffs.items())
            ratio = _alexander_at(pd, t) / conway
            units.add(next(((ratio > 0, m) for m in range(-25, 26)
                            if abs(ratio) == t ** m), None))
        assert len(units) == 1 and None not in units, label
        want = det if det is not None else determinant(pd)
        assert abs(_alexander_at(pd, Fraction(-1))) == want, label
