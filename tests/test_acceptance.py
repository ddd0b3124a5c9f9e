"""Acceptance suite: one test per criterion, exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import random
import time
from fractions import Fraction

from vassiliev import clear_caches
from vassiliev.basis import (
    BasisChangeMatrix,
    transform_alphas,
    validate_basis_change,
)
from vassiliev.diagrams import product, random_diagram, serialize
from vassiliev.factorization import (
    FRAMING_LABEL,
    derive_composite_identities,
    extract_alphas,
    knot_log_expansion,
    log_invariant,
    reextract_under_change,
    resum_family,
    verify_factorization,
)
from vassiliev.knot_table import knot, knot_names
from vassiliev.knots import connected_sum, homfly, jones, sun_slice
from vassiliev.laurent import Laurent1
from vassiliev.relations import dimension, ihx, internal_edges, stu
from vassiliev.series import substitute_exponential
from vassiliev.weights import WeightConfig, weight_sun

CFG = WeightConfig()


def _report(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_dimension_table(basis6):
    # clear the in-process caches so the timing below is a cold run
    clear_caches()
    t0 = time.time()
    dims = [dimension(i, True) for i in range(7)]
    elapsed = time.time() - t0
    assert dims == [1, 0, 1, 1, 3, 4, 9]
    assert [basis6.d(i) for i in range(7)] == [1, 0, 1, 1, 3, 4, 9]
    assert [basis6.d_hat(i) for i in range(2, 7)] == [1, 1, 2, 3, 5]
    assert elapsed < 300
    _report(1, f"reduced d_0..d_6 = 1,0,1,1,3,4,9 and d-hat_2..6 = "
               f"1,1,2,3,5 (cold rank computation at degree 6: "
               f"{elapsed:.1f}s)")


def test_criterion_2_composition_counts(basis6):
    # independent oracle: count multisets of connected elements of lower
    # degrees with total degree i
    def count_multisets(counts, total):
        labels = [(d, j) for d in sorted(counts) for j in range(counts[d])]

        def rec(start, remaining):
            if remaining == 0:
                return 1
            acc = 0
            for k in range(start, len(labels)):
                if labels[k][0] <= remaining:
                    acc += rec(k, remaining - labels[k][0])
            return acc

        return rec(0, total)

    for i in range(2, 7):
        lower = {d: basis6.d_hat(d) for d in range(2, i - 1)}
        expected_composites = count_multisets(lower, i)
        assert basis6.d(i) - basis6.d_hat(i) == expected_composites, i
    _report(2, "d_i - d-hat_i equals the multiset count of lower-degree "
               "connected elements for every degree <= 6")


def test_criterion_3_composite_identities(basis6):
    ids = derive_composite_identities(basis6, 6)
    got = {tuple(ci.components): ci.coefficient for ci in ids}
    assert got[((2, 0), (2, 0))] == Fraction(1, 2)
    assert got[((2, 0), (2, 0), (2, 0))] == Fraction(1, 6)
    assert got[((2, 0), (4, 0))] == 1
    assert got[((2, 0), (4, 1))] == 1
    assert got[((3, 0), (3, 0))] == Fraction(1, 2)
    assert got[((2, 0), (3, 0))] == 1
    # every composite to degree 6, nothing extra, all multinomial
    assert set(got) == {tuple(e.components)
                        for i in range(7) for e in basis6.composites(i)}
    for ci in ids:
        assert ci.coefficient == ci.expected_coefficient()
    # framing-extended resummations
    ids_framed = derive_composite_identities(basis6, 5, framing=True)
    assert all(ci.coefficient == ci.expected_coefficient()
               for ci in ids_framed)
    assert resum_family(basis6, (), FRAMING_LABEL, 5, framing=True).verified
    assert resum_family(basis6, ((3, 0),), FRAMING_LABEL, 5,
                        framing=True).verified
    assert resum_family(basis6, (), (2, 0), 6).verified
    assert resum_family(basis6, ((3, 0),), (2, 0), 5).verified
    _report(3, "all composite factors to degree 6 derive mechanically as "
               "multinomial products; framing and degree-2 families resum "
               "into exponentials")


def test_criterion_4_weight_coherence():
    rng = random.Random(2024)
    instances = 0
    stu_checked = ihx_checked = mult_checked = 0
    while instances < 500:
        kind = rng.randrange(3)
        if kind == 0:
            d = random_diagram(rng, rng.randint(2, 5))
            pairs = []
            for a, b in d.edges:
                if a < d.legs <= b:
                    pairs.append(((b - d.legs) // 3, a))
                elif b < d.legs <= a:
                    pairs.append(((a - d.legs) // 3, b))
            if not pairs:
                continue
            v, leg = pairs[rng.randrange(len(pairs))]
            total = Laurent1.zero("N")
            for term, c in stu(d, v, leg).terms.items():
                total = total + weight_sun(term, CFG) * c
            assert total == weight_sun(d, CFG), serialize(d)
            stu_checked += 1
        elif kind == 1:
            d = random_diagram(rng, rng.randint(2, 5))
            edges = internal_edges(d)
            if not edges:
                continue
            e = edges[rng.randrange(len(edges))]
            total = Laurent1.zero("N")
            for term, c in ihx(d, e).terms.items():
                total = total + weight_sun(term, CFG) * c
            assert total == weight_sun(d, CFG), serialize(d)
            ihx_checked += 1
        else:
            d1 = random_diagram(rng, rng.randint(1, 3))
            d2 = random_diagram(rng, rng.randint(1, 2))
            assert weight_sun(product(d1, d2), CFG) == \
                weight_sun(d1, CFG) * weight_sun(d2, CFG)
            mult_checked += 1
        instances += 1
    _report(4, f"{instances} randomized exact checks "
               f"({stu_checked} STU, {ihx_checked} IHX, "
               f"{mult_checked} multiplicativity), all equalities exact")


def test_criterion_5_knot_oracles():
    t0 = time.time()
    for name in knot_names():
        pd = knot(name)
        assert sun_slice(homfly(pd), 2) == \
            jones(pd).substitute_monomial(2, var="q"), name
    pairs = [("3_1", "3_1"), ("3_1", "4_1"), ("4_1", "5_2"), ("3_1!", "3_1")]
    for a, b in pairs:
        ka, kb = knot(a), knot(b)
        assert homfly(connected_sum(ka, kb)) == homfly(ka) * homfly(kb)
    _report(5, f"su(2) slice equals jones for all {len(knot_names())} "
               f"bundled knots; skein polynomial multiplicative on "
               f"{len(pairs)} connected sums ({time.time() - t0:.1f}s)")


def test_criterion_6_log_expansion_invariants():
    for name in knot_names():
        pd = knot(name)
        for n in (2, 3, 4):
            w = knot_log_expansion(pd, n, 4)
            assert w[0] == 0, (name, n)
            assert w[1] == 0, (name, n)
    # trefoil values against the independent series oracle
    oracle = log_invariant(substitute_exponential(
        Laurent1({-4: -1, -3: 1, -1: 1}, var="t"), 6))
    assert (oracle[2], oracle[3]) == (Fraction(-3), Fraction(6))
    w31 = knot_log_expansion(knot("3_1"), 2, 6)
    assert w31.coefficients == oracle.coefficients
    # mirror parity
    for name in ("3_1", "5_1", "5_2", "6_2", "7_1"):
        w = knot_log_expansion(knot(name), 2, 6)
        wm = knot_log_expansion(knot(name + "!"), 2, 6)
        assert all(wm[i] == (-1) ** i * w[i] for i in range(7)), name
    # granny doubles the trefoil
    wg = knot_log_expansion(knot("granny"), 2, 6)
    assert all(wg[i] == 2 * w31[i] for i in range(7))
    _report(6, "w_0 = w_1 = 0 on every bundled knot and slice; trefoil "
               "(w_2, w_3) = (-3, 6); mirror parity and granny doubling "
               "exact to order 6")


def test_criterion_7_factorization_end_to_end(basis6):
    for name in ("3_1", "4_1"):
        rep = verify_factorization(knot(name), basis6, 4, (2, 3, 4, 5),
                                   knot_name=name)
        assert rep.passed, name
        assert rep.reconstruction_order == 4
        for d in rep.extraction.degrees:
            # full rank for the connected factors (composites carry no
            # independent factor; they are pinned by the derived
            # identities), with the held-out probe reproduced exactly
            assert d.connected_full, (name, d.degree)
            assert d.held_out_consistent, (name, d.degree)
        for _, comps, pinned, expected in rep.composite_checks:
            assert pinned == expected
    # degrees 5-6: measured rank is reported, nothing asserted beyond it
    ex = extract_alphas(knot("3_1"), basis6, 6, (2, 3, 4, 5))
    d5, d6 = ex.degree(5), ex.degree(6)
    assert d5.alphas is None and d6.alphas is None
    assert (d5.design_rank, d5.connected_rank) == (2, 2)
    assert (d6.design_rank, d6.connected_rank) == (3, 3)
    assert d5.solved_functionals and d6.solved_functionals
    _report(7, "trefoil and figure-eight: connected extraction full-rank "
               "to degree 4, held-out probe exact, composite factors and "
               "exponential reconstruction exact; degrees 5-6 report "
               "measured ranks (design 2/4 and 3/9) without pass/fail")


def test_criterion_8_basis_change_covariance(basis6):
    rng = random.Random(777)
    extractions = {
        i: extract_alphas(knot("3_1"), basis6, i, (2, 3, 4, 5))
        for i in (2, 3, 4)
    }
    checked = 0
    rejected = 0
    while checked < 20:
        degree = (2, 3, 4)[checked % 3]
        d = basis6.d(degree)
        dhat = basis6.d_hat(degree)
        rows = [[Fraction(0)] * d for _ in range(d)]
        for i in range(dhat):
            for j in range(dhat):
                rows[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for i in range(dhat, d):
            for j in range(dhat, d):
                rows[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = BasisChangeMatrix.from_rows(degree, rows)
        rep = validate_basis_change(m, basis6, degree)
        if not rep.valid:
            continue
        ex = extractions[degree]
        new = reextract_under_change(ex, basis6, degree, m, rep)
        expected = tuple(transform_alphas(rep, list(ex.degree(degree).alphas)))
        assert new == expected, (degree, rows)
        checked += 1
    # block-structure violations are rejected
    while rejected < 5:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                for _ in range(3)]
        if rows[0][2] == 0 and rows[1][2] == 0 and rows[2][0] == 0 \
                and rows[2][1] == 0:
            continue
        m = BasisChangeMatrix.from_rows(4, rows)
        rep = validate_basis_change(m, basis6, 4)
        assert not rep.valid
        assert any("leaks" in r or "singular" in r for r in rep.reasons)
        rejected += 1
    _report(8, f"{checked} randomized valid block-diagonal changes at "
               f"degrees 2-4 transform the factors contravariantly, "
               f"exactly; {rejected} block violations rejected")
