import dataclasses
import random
from fractions import Fraction

import pytest

from test_linalg import _reference_rref
from vassiliev import clear_caches, factorization
from vassiliev.basis import (
    BasisChangeMatrix,
    load_basis,
    save_basis,
    transform_alphas,
    validate_basis_change,
)
from vassiliev.factorization import (
    FRAMING_LABEL,
    derive_composite_identities,
    extract_alphas,
    knot_log_expansion,
    knot_series,
    log_invariant,
    reextract_under_change,
    resum_family,
    verify_factorization,
)
from vassiliev.knot_table import knot
from vassiliev.laurent import Laurent1
from vassiliev.series import RationalSeries, substitute_exponential
from vassiliev.weights import WeightConfig, weight_sun_deframed_at


def test_log_invariant_unknot():
    s = knot_series(knot("0_1"), 2, 6)
    lw = log_invariant(s, knot="0_1")
    assert all(c == 0 for c in lw.coefficients)


def test_log_invariant_requires_unit():
    with pytest.raises(ValueError):
        log_invariant(RationalSeries([2, 1], order=4))


def test_trefoil_log_values_against_series_oracle():
    # independent oracle: expand -e^{-4x} + e^{-3x} + e^{-x} directly
    jones_trefoil = Laurent1({-4: -1, -3: 1, -1: 1}, var="t")
    oracle = substitute_exponential(jones_trefoil, 6)
    w = log_invariant(oracle).coefficients
    assert (w[2], w[3]) == (Fraction(-3), Fraction(6))
    # the pipeline value matches the oracle exactly
    lw = knot_log_expansion(knot("3_1"), 2, 6, name="3_1")
    assert lw.coefficients == w
    assert lw[0] == 0 and lw[1] == 0


def test_log_linear_term_vanishes_several_slices():
    for name in ("3_1", "4_1", "5_2", "6_1"):
        for n in (2, 3):
            lw = knot_log_expansion(knot(name), n, 4)
            assert lw[0] == 0 and lw[1] == 0, (name, n)


def test_mirror_parity():
    for name in ("3_1", "5_1", "5_2"):
        w = knot_log_expansion(knot(name), 2, 6).coefficients
        wm = knot_log_expansion(knot(name + "!"), 2, 6).coefficients
        assert all(wm[i] == (-1) ** i * w[i] for i in range(7)), name


def test_granny_doubles_trefoil():
    w = knot_log_expansion(knot("3_1"), 2, 6).coefficients
    wg = knot_log_expansion(knot("granny"), 2, 6).coefficients
    assert all(wg[i] == 2 * w[i] for i in range(7))


def test_composite_identities_expected_coefficients(basis6):
    ids = derive_composite_identities(basis6, 6)
    by_components = {tuple(ci.components): ci.coefficient for ci in ids}
    assert by_components[((2, 0), (2, 0))] == Fraction(1, 2)
    assert by_components[((2, 0), (3, 0))] == 1
    assert by_components[((2, 0), (2, 0), (2, 0))] == Fraction(1, 6)
    assert by_components[((2, 0), (4, 0))] == 1
    assert by_components[((2, 0), (4, 1))] == 1
    assert by_components[((3, 0), (3, 0))] == Fraction(1, 2)
    # no extra identities, none missing: exactly the composites
    assert len(ids) == sum(len(basis6.composites(i)) for i in range(7))
    for ci in ids:
        assert ci.coefficient == ci.expected_coefficient()


def test_framing_extended_identities(basis5):
    ids = derive_composite_identities(basis5, 4, framing=True)
    by_components = {tuple(ci.components): ci.coefficient for ci in ids}
    # powers of the framing element carry 1/q!
    assert by_components[(FRAMING_LABEL, FRAMING_LABEL)] == Fraction(1, 2)
    assert by_components[(FRAMING_LABEL,) * 3] == Fraction(1, 6)
    assert by_components[(FRAMING_LABEL, (2, 0))] == 1
    for ci in ids:
        assert ci.coefficient == ci.expected_coefficient()


def test_resummation_framing_family(basis5):
    fam = resum_family(basis5, (), FRAMING_LABEL, 5, framing=True)
    assert fam.verified
    fam2 = resum_family(basis5, ((3, 0),), FRAMING_LABEL, 5, framing=True)
    assert fam2.verified


def test_resummation_degree2_family(basis6):
    assert resum_family(basis6, (), (2, 0), 6).verified
    assert resum_family(basis6, ((3, 0),), (2, 0), 5).verified


def test_resummation_errors(basis5):
    with pytest.raises(ValueError):
        resum_family(basis5, (), FRAMING_LABEL, 4)  # needs framing
    with pytest.raises(ValueError):
        resum_family(basis5, ((2, 0),), (2, 0), 5)  # base contains generator
    with pytest.raises(ValueError):
        resum_family(basis5, (), (2, 0), 9)  # members beyond the basis


def test_extract_unknot_all_zero(basis4):
    ex = extract_alphas(knot("0_1"), basis4, 4, (2, 3, 4, 5), knot_name="0_1")
    for d in ex.degrees:
        assert d.alphas is not None
        assert all(a == 0 for a in d.alphas)


def test_extract_trefoil_degree2_probe_consistency(basis4):
    # overdetermined 1x1 systems per probe must agree on one value
    ex = extract_alphas(knot("3_1"), basis4, 2, (2, 3, 4, 5))
    d2 = ex.degree(2)
    assert d2.alphas == (Fraction(4),)
    assert d2.held_out_consistent
    # solve each probe separately and compare
    from vassiliev.weights import weight_sun_deframed_at

    elem = basis4.element(2, 0)
    for n in (2, 3, 4, 5):
        c2 = ex.series_at(n)[2]
        assert c2 / weight_sun_deframed_at(elem.diagram, n) == Fraction(4)


def test_extract_probe_validation(basis4):
    with pytest.raises(ValueError):
        extract_alphas(knot("3_1"), basis4, 2, (2,))
    with pytest.raises(ValueError):
        extract_alphas(knot("3_1"), basis4, 2, (1, 2))
    with pytest.raises(ValueError):
        extract_alphas(knot("3_1"), basis4, 5, (2, 3, 4))
    with pytest.raises(ValueError):
        extract_alphas(knot("3_1"), basis4, 1, (2, 3, 4, 5))


def test_extract_granny_doubles(basis4):
    ex3 = extract_alphas(knot("3_1"), basis4, 3, (2, 3, 4, 5))
    exg = extract_alphas(knot("granny"), basis4, 3, (2, 3, 4, 5))
    for i in (2, 3):
        a, g = ex3.degree(i).alphas, exg.degree(i).alphas
        assert tuple(2 * x for x in a) == g


def test_verify_factorization_trefoil_fig8(basis4):
    for name in ("3_1", "4_1"):
        rep = verify_factorization(knot(name), basis4, 4, (2, 3, 4, 5),
                                   knot_name=name)
        assert rep.passed, name
        assert rep.reconstruction_order == 4
        ex = rep.extraction
        for d in ex.degrees:
            assert d.connected_full
            assert d.held_out_consistent
        # the pinned composite matches the derived identity exactly
        assert rep.composite_checks
        for _, comps, pinned, expected in rep.composite_checks:
            assert pinned == expected


def test_verify_unknot(basis4):
    rep = verify_factorization(knot("0_1"), basis4, 4, (2, 3, 4, 5))
    assert rep.passed
    for d in rep.extraction.degrees:
        assert all(a == 0 for a in d.alphas)


def test_verify_factorization_derives_identities_once(basis4):
    # the composite identities depend on the basis only, so a second
    # verification reuses them and reports the same
    from vassiliev.factorization import _composite_identities

    _composite_identities.cache_clear()
    reps = [verify_factorization(knot("3_1"), basis4, 4, (2, 3, 4, 5))
            for _ in range(2)]
    info = _composite_identities.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert reps[0] == reps[1]


def _verify_altered(basis4, monkeypatch, alter):
    """verify 3_1 through degree 4 on its real extraction, altered."""
    altered = alter(extract_alphas(knot("3_1"), basis4, 4))
    monkeypatch.setattr(factorization, "extract_alphas",
                        lambda *args, **kwargs: altered)
    return verify_factorization(knot("3_1"), basis4, 4)


def test_verify_fails_on_a_wrong_connected_factor(basis4, monkeypatch):
    # the degree-2 factor feeds the exponent and the degree-4 composite
    def alter(ex):
        d2 = ex.degree(2)
        wrong = dataclasses.replace(
            d2, connected_alphas=(d2.connected_alphas[0] + 1,))
        return dataclasses.replace(ex, degrees=(wrong,) + ex.degrees[1:])

    rep = _verify_altered(basis4, monkeypatch, alter)
    assert not rep.reconstruction_passed
    assert not rep.composite_check_passed
    assert rep.log_linear_vanishes and not rep.passed


def test_verify_fails_on_a_linear_log_term(basis4, monkeypatch):
    def alter(ex):
        (n, s), *rest = ex.series
        bumped = RationalSeries((s[0], s[1] + 1) + s.coeffs[2:])
        return dataclasses.replace(ex, series=((n, bumped), *rest))

    rep = _verify_altered(basis4, monkeypatch, alter)
    assert not rep.log_linear_vanishes
    assert not rep.reconstruction_passed
    assert rep.composite_check_passed and not rep.passed


def test_extraction_design_keyed_by_probes_and_normalization(basis4):
    # the knot-independent design is cached per (basis, degree, probes,
    # normalization): warm runs that follow other probe sets and
    # normalizations equal fresh ones
    runs = [((2, 3, 4, 5), WeightConfig()), ((2, 3), WeightConfig()),
            ((3, 5, 7), WeightConfig()),
            ((2, 3, 4, 5), WeightConfig(Fraction(1, 3)))]
    pd = knot("5_2")
    warm = [verify_factorization(pd, basis4, 4, probes, cfg)
            for probes, cfg in runs]
    for (probes, cfg), report in zip(runs, warm):
        clear_caches()
        assert verify_factorization(pd, basis4, 4, probes, cfg) == report
        assert report.passed


def test_loaded_basis_extracts_as_built(tmp_path, basis4):
    path = str(tmp_path / "basis-deg4.txt")
    save_basis(basis4, path)
    loaded = load_basis(path)
    for name in ("3_1", "4_1", "5_2", "8_19"):
        assert extract_alphas(knot(name), loaded, 4) == \
            extract_alphas(knot(name), basis4, 4)


def test_inconsistent_series_raises(basis4, monkeypatch):
    # degrees 2 and 3 have one element each, so four probes leave three
    # consistency rows: one perturbed series coefficient leaves the
    # column space, as the reference RREF of [W | s] confirms
    probes = (2, 3, 4, 5)
    pd = knot("3_1")
    for i in (2, 3):
        w = [weight_sun_deframed_at(basis4.element(i, 0).diagram, n)
             for n in probes]
        for k in range(len(probes)):
            series = [knot_series(pd, n, i) for n in probes]
            s = [x[i] for x in series]
            assert 1 not in _reference_rref([[a, b] for a, b in zip(w, s)])[1]
            s[k] += 1
            assert 1 in _reference_rref([[a, b] for a, b in zip(w, s)])[1]
            perturbed = iter(RationalSeries(x.coeffs[:i] + (v,))
                             for x, v in zip(series, s))
            monkeypatch.setattr(factorization, "substitute_exponential",
                                lambda *args, **kwargs: next(perturbed))
            with pytest.raises(RuntimeError,
                               match="inconsistent extraction system"):
                extract_alphas(pd, basis4, i, probes)
            monkeypatch.undo()
        assert extract_alphas(pd, basis4, i, probes).degree(i).alphas


def test_rank_report_degrees_5_6(basis6):
    ex = extract_alphas(knot("3_1"), basis6, 6, (2, 3, 4, 5))
    d5, d6 = ex.degree(5), ex.degree(6)
    # measured ranks of the su(N) fundamental design
    assert (d5.design_rank, basis6.d(5)) == (2, 4)
    assert (d5.connected_rank, basis6.d_hat(5)) == (2, 3)
    assert (d6.design_rank, basis6.d(6)) == (3, 9)
    assert (d6.connected_rank, basis6.d_hat(6)) == (3, 5)
    assert d5.alphas is None and d6.alphas is None
    # the solvable subspace is reported instead
    assert d5.solved_functionals and d6.solved_functionals
    for f in d5.solved_functionals:
        assert len(f.coefficients) == basis6.d(5)


def test_basis_change_covariance_degree4(basis4):
    rng = random.Random(61)
    ex = extract_alphas(knot("3_1"), basis4, 4, (2, 3, 4, 5))
    found = 0
    while found < 5:
        rows = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        rows[2][2] = Fraction(rng.randint(-3, 3))
        m = BasisChangeMatrix.from_rows(4, rows)
        rep = validate_basis_change(m, basis4, 4)
        if not rep.valid:
            continue
        new = reextract_under_change(ex, basis4, 4, m, rep)
        assert new == tuple(transform_alphas(rep, list(ex.degree(4).alphas)))
        found += 1


def test_factorization_report_carries_conventions(basis4):
    rep = verify_factorization(knot("3_1"), basis4, 3, (2, 3, 4, 5),
                               knot_name="3_1")
    ex = rep.extraction
    assert ex.basis_version == basis4.version
    assert ex.slice_convention
    assert ex.weight_config.normalization == Fraction(1, 2)
    assert ex.held_out == 5
