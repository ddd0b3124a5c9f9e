import random
from fractions import Fraction as F

import pytest

from vassiliev.formal import MultiPoly
from vassiliev.knots import sun_slice
from vassiliev.laurent import Laurent1, Laurent2

X, Y = MultiPoly.sym("x"), MultiPoly.sym("y")

# (polynomial, printed form): ±1 coefficients, constants, negative
# fractions and zero in each variant, in each variant's print order
PRINTED = [
    (Laurent1(), "0"),
    (Laurent1({0: 1}), "1"),
    (Laurent1({0: -1}), "-1"),
    (Laurent1({0: F(-2, 3)}), "-2/3"),
    (Laurent1({1: 1, -1: -1}, var="q"), "q - q^-1"),
    (Laurent1({3: -1, 1: 1, 0: 1}), "-t^3 + t + 1"),
    (Laurent1({2: F(-3, 4), -2: F(5, 2), 0: -1}, var="N"),
     "-3/4*N^2 - 1 + 5/2*N^-2"),
    (Laurent2(), "0"),
    (Laurent2({(0, 0): 1}), "1"),
    (Laurent2({(0, 0): -1}), "-1"),
    (Laurent2({(1, 0): 1, (0, 1): -1, (-1, 2): F(-2, 3), (0, 0): F(1, 2)}),
     "a - z + 1/2 - 2/3*a^-1*z^2"),
    (Laurent2({(2, -1): -1, (1, 1): 3}, vars=("u", "v")), "-u^2*v^-1 + 3*u*v"),
    (MultiPoly(), "0"),
    (MultiPoly.one(), "1"),
    (MultiPoly.const(-1), "-1"),
    (MultiPoly.const(F(-3, 7)), "-3/7"),
    (X - Y ** 2 * F(-5, 2) + 1, "1 + x + 5/2*y^2"),
    (-X * Y + F(-1, 2) * X ** 3 - 2, "-2 - x*y - 1/2*x^3"),
    (MultiPoly.sym("w:2:G") * MultiPoly.sym("w:2:G2") ** 2 - MultiPoly.sym("a"),
     "-a + w:2:G*w:2:G2^2"),
]


def test_printers():
    for poly, text in PRINTED:
        assert str(poly) == text
        assert repr(poly) == f"{type(poly).__name__}({text})"


def test_negative_powers():
    with pytest.raises(ValueError):
        X ** -1
    with pytest.raises(ValueError):
        Laurent2.term(1, 1, 0) ** -2
    with pytest.raises(ValueError):
        Laurent1({1: 1, 0: 1}) ** -1
    # a one-variable monomial has an inverse
    assert Laurent1({2: 3}, var="q") ** -2 == Laurent1({-4: F(1, 9)}, var="q")
    assert X ** 0 == 1 and Laurent2.term(5, 1, 1) ** 0 == 1


def test_cancelled_terms_are_dropped():
    one_plus, one_minus = Laurent1({0: 1, 1: 1}), Laurent1({0: 1, 1: -1})
    assert (one_plus * one_minus).coeffs == {0: 1, 2: -1}
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    assert str((X + Y) * (X - Y)) == "x^2 - y^2"


def _rand_coeffs(rng, key):
    return {key(): F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)}


def test_ring_operations_are_evaluation_homomorphisms():
    # evaluating at a point commutes with +, -, * and **: an oracle that
    # does not use the kernel's own monomial bookkeeping
    rng = random.Random(7)
    for _ in range(30):
        p, q = (Laurent1(_rand_coeffs(rng, lambda: rng.randint(-3, 3)))
                for _ in range(2))
        x = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p ** 3)(x) == p(x) ** 3
        assert (p * 0) == 0 and (p - p) == 0 and not (p - p).coeffs
        assert all((p * q).coeffs.values()) and all((p + q).coeffs.values())
        # two variables: evaluate through the ring map a = q^2,
        # z = q - q^-1 into one variable
        u, v = (Laurent2(_rand_coeffs(rng, lambda: (rng.randint(-2, 2),
                                                    rng.randint(0, 2))))
                for _ in range(2))
        assert sun_slice(u * v - u, 2)(x) == \
            sun_slice(u, 2)(x) * sun_slice(v, 2)(x) - sun_slice(u, 2)(x)
        # named symbols: substitute constants
        m, n = (MultiPoly(_rand_coeffs(rng, lambda: tuple(
            (s, rng.randint(1, 2)) for s in sorted(rng.sample("xyz", 2)))))
            for _ in range(2))
        at = {s: MultiPoly.const(rng.randint(-3, 3)) for s in "xyz"}
        assert (m * n + n).substitute(at) == \
            m.substitute(at) * n.substitute(at) + n.substitute(at)


def test_substitute_monomial_is_an_evaluation_homomorphism():
    # t -> t^0 sends every term to the constant: coefficients add up
    assert Laurent1({1: 1, 2: 1}).substitute_monomial(0) == 2
    rng = random.Random(11)
    for _ in range(20):
        p = Laurent1(_rand_coeffs(rng, lambda: rng.randint(-3, 3)))
        x = F(rng.randint(1, 5), rng.randint(1, 3))
        for k in (-2, -1, 0, 1, 2, 3):
            q = p.substitute_monomial(k, var="q")
            assert q.var == "q" and q(x) == p(x ** k)
