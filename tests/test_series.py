import random
from fractions import Fraction
from math import factorial

import pytest

from vassiliev.formal import MultiPoly
from vassiliev.knot_table import knot, knot_names
from vassiliev.knots import homfly, sun_slice
from vassiliev.laurent import Laurent1
from vassiliev.series import (
    RationalSeries,
    exp_series,
    log_series,
    seq_exp,
    seq_log,
    seq_mul,
    substitute_exponential,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# reference kernels: sums of powers of the series and a per-term
# substitution loop, kept as oracles for the recurrences and power sums


def _reference_exp(a, K, zero=_ZERO, one=_ONE):
    out = [zero for _ in range(K + 1)]
    out[0] = one
    term = [zero for _ in range(K + 1)]
    term[0] = one
    for k in range(1, K + 1):
        term = seq_mul(term, a, K, zero=zero)
        inv = Fraction(1, factorial(k))
        for i in range(K + 1):
            if term[i] != zero:
                out[i] = out[i] + term[i] * inv
    return out


def _reference_log(a, K, zero=_ZERO, one=_ONE):
    u = [zero if i == 0 else (a[i] if i < len(a) else zero)
         for i in range(K + 1)]
    out = [zero for _ in range(K + 1)]
    term = [zero for _ in range(K + 1)]
    term[0] = one
    for k in range(1, K + 1):
        term = seq_mul(term, u, K, zero=zero)
        coeff = Fraction((-1) ** (k + 1), k)
        for i in range(K + 1):
            if term[i] != zero:
                out[i] = out[i] + term[i] * coeff
    return out


def _reference_substitute(p, order, scale=_ONE):
    coeffs = [_ZERO] * (order + 1)
    for m, q in p.coeffs.items():
        rate = m * scale
        power = Fraction(1)
        for k in range(order + 1):
            coeffs[k] += q * power
            power = power * rate / (k + 1)
    return RationalSeries(coeffs)


def _rand_seq(rng, K, constant):
    """Seeded random Fraction coefficients, sparse or dense."""
    density = rng.choice((0.25, 1.0))
    out = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
           if rng.random() < density else _ZERO for _ in range(K + 1)]
    out[0] = constant
    return out


def rand_series(rng, order, constant=None):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
              for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return RationalSeries(coeffs)


def test_exp_examples():
    K = 8
    assert exp_series(RationalSeries.zero(K)) == RationalSeries.one(K)
    e = exp_series(RationalSeries.x(K))
    assert e.coeffs == tuple(Fraction(1, factorial(k)) for k in range(K + 1))


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        exp_series(RationalSeries.one(4))


def test_log_examples():
    K = 8
    assert log_series(RationalSeries.one(K)) == RationalSeries.zero(K)
    lg = log_series(RationalSeries.one(K) + RationalSeries.x(K))
    assert lg.coeffs == tuple(
        Fraction(0) if k == 0 else Fraction((-1) ** (k + 1), k)
        for k in range(K + 1))


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        log_series(RationalSeries.zero(4))


def test_exp_log_roundtrip_random():
    rng = random.Random(51)
    for _ in range(15):
        s = rand_series(rng, 7, constant=0)
        assert log_series(exp_series(s)) == s
        u = rand_series(rng, 7, constant=1)
        assert exp_series(log_series(u)) == u


def test_log_is_homomorphism():
    rng = random.Random(52)
    for _ in range(10):
        s = rand_series(rng, 6, constant=1)
        t = rand_series(rng, 6, constant=1)
        assert log_series(s * t) == log_series(s) + log_series(t)


def test_ring_axioms_random():
    rng = random.Random(53)
    for _ in range(10):
        a = rand_series(rng, 6)
        b = rand_series(rng, 6)
        c = rand_series(rng, 6)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_truncation_explicit():
    s = RationalSeries([1, 2, 3], order=5)
    assert s.order == 5
    assert s.coeffs[3:] == (Fraction(0),) * 3
    t = s.truncate(2)
    assert t.order == 2
    # mixed orders truncate to the smaller
    assert (s * RationalSeries([1], order=3)).order == 3


def test_substitute_exponential_examples():
    K = 8
    t = Laurent1({1: 1}, var="t")
    s = substitute_exponential(t, K)
    assert s.coeffs == tuple(Fraction(1, factorial(k)) for k in range(K + 1))

    cosh2 = Laurent1({1: 1, -1: 1, 0: -2}, var="t")  # t + 1/t - 2
    s2 = substitute_exponential(cosh2, K)
    # 2cosh(x) - 2 = x^2 + x^4/12 + x^6/360 + ...
    assert s2[0] == 0 and s2[1] == 0
    assert s2[2] == 1
    assert s2[4] == Fraction(1, 12)
    assert s2[6] == Fraction(1, 360)
    assert s2[3] == 0 and s2[5] == 0

    one = Laurent1({0: 1}, var="t")
    assert substitute_exponential(one, K) == RationalSeries.one(K)


def test_substitute_exponential_ring_map():
    rng = random.Random(54)
    K = 7
    for _ in range(10):
        p = Laurent1({rng.randint(-4, 4): Fraction(rng.randint(-3, 3))
                      for _ in range(3)}, var="t")
        q = Laurent1({rng.randint(-4, 4): Fraction(rng.randint(-3, 3))
                      for _ in range(3)}, var="t")
        assert substitute_exponential(p * q, K) == \
            substitute_exponential(p, K) * substitute_exponential(q, K)
        assert substitute_exponential(p + q, K) == \
            substitute_exponential(p, K) + substitute_exponential(q, K)


def test_substitute_exponential_scale():
    K = 4
    t = Laurent1({2: 1}, var="q")  # q^2 at q = e^{x/2} is e^x
    s = substitute_exponential(t, K, scale=Fraction(1, 2))
    assert s == substitute_exponential(Laurent1({1: 1}), K)


def test_exp_log_match_power_sum_reference():
    rng = random.Random(171)
    for _ in range(300):
        K = rng.randint(0, 10)
        a = _rand_seq(rng, K, _ZERO)
        assert seq_exp(a, K) == _reference_exp(a, K)
        u = _rand_seq(rng, K, _ONE)
        assert seq_log(u, K) == _reference_log(u, K)
    # a series shorter than the truncation order is padded with zeros
    assert seq_exp([_ZERO, _ONE], 6) == _reference_exp([_ZERO, _ONE], 6)
    assert seq_log([_ONE, _ONE], 6) == _reference_log([_ONE, _ONE], 6)


def test_log_series_matches_fraction_recurrence():
    # the integer recurrence on the lcm-scaled series against seq_log
    # over Fractions: seeded series with denominators up to 10^6, and
    # the series of the table knots' slices at q = exp(x/2)
    rng = random.Random(35)
    cases = []
    for _ in range(300):
        K = rng.randint(0, 10)
        top = rng.choice((10, 10 ** 3, 10 ** 6))
        density = rng.choice((0.25, 1.0))
        cases.append([_ONE] + [
            Fraction(rng.randint(-top, top), rng.randint(1, top))
            if rng.random() < density else _ZERO for _ in range(K)])
    for base in knot_names():
        for name in (base, base + "!"):
            h = homfly(knot(name))
            for n in range(2, 6):
                cases.append(list(substitute_exponential(
                    sun_slice(h, n), 8, Fraction(1, 2)).coeffs))
    for u in cases:
        lg = log_series(RationalSeries(u))
        assert lg.coeffs == tuple(seq_log(u, len(u) - 1)), u
        assert all(type(c) is Fraction for c in lg.coeffs), u


def test_exp_log_match_reference_over_polynomials():
    # duck-typed coefficients, as in the resummation identities
    rng = random.Random(172)
    zero, one = MultiPoly.zero(), MultiPoly.one()
    syms = [MultiPoly.sym(s) for s in ("u", "v", "w")]

    def rand_coeff():
        c = zero
        for sym in rng.sample(syms, rng.randint(0, 2)):
            c = c + sym ** rng.randint(1, 2) * Fraction(rng.randint(-4, 4),
                                                        rng.randint(1, 3))
        return c

    for _ in range(25):
        K = rng.randint(1, 6)
        a = [zero] + [rand_coeff() for _ in range(K)]
        assert [str(c) for c in seq_exp(a, K, zero=zero, one=one)] == \
            [str(c) for c in _reference_exp(a, K, zero=zero, one=one)]
        u = [one] + a[1:]
        assert [str(c) for c in seq_log(u, K, zero=zero, one=one)] == \
            [str(c) for c in _reference_log(u, K, zero=zero, one=one)]


def test_exp_log_round_trips():
    rng = random.Random(173)
    for _ in range(100):
        K = rng.randint(0, 10)
        a = _rand_seq(rng, K, _ZERO)
        assert seq_log(seq_exp(a, K), K) == a
        one_plus = _rand_seq(rng, K, _ONE)
        assert seq_exp(seq_log(one_plus, K), K) == one_plus


def test_substitute_exponential_matches_reference():
    rng = random.Random(174)
    for _ in range(60):
        terms = {rng.randint(-12, 12): rng.choice(
            (rng.randint(-9, 9),
             Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
            for _ in range(rng.randint(0, 6))}
        p = Laurent1(terms, var="q")
        order = rng.randint(0, 10)
        for scale in (_ONE, Fraction(1, 2), Fraction(-2, 3)):
            assert substitute_exponential(p, order, scale) == \
                _reference_substitute(p, order, scale)
