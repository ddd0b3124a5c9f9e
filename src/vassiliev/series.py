"""Exact truncated power series in one grading variable.

A `RationalSeries` is a truncated power series sum(c_i x^i, i <= K) with
exact rational coefficients.  The truncation order K is explicit and
arithmetic never extends it silently: combining series of different
truncations truncates to the smaller K.  No floating point anywhere.

The coefficient helpers (`seq_mul`, `seq_exp`, `seq_log`)
are duck-typed over the coefficient ring: they are reused with
polynomial-valued coefficients for formal resummation identities.
`seq_exp` and `seq_log` solve the derivative recurrences of b = exp(a)
and b = log(a), O(K^2) products and never a power of the series:

    exp:  n b_n = sum_{k=1..n} k a_k b_{n-k}
    log:  n b_n = n a_n - sum_{k=1..n-1} k b_k a_{n-k}   (a_0 = 1)

`log_series` runs the log recurrence on the integer series s(D x), D the
lcm of the denominators, and `substitute_exponential` on integer power
sums of the exponents; each builds one `Fraction` per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .laurent import Laurent1

_ZERO = Fraction(0)


def seq_mul(a: list, b: list, K: int, zero=_ZERO) -> list:
    out = [zero for _ in range(K + 1)]
    for i, ca in enumerate(a[: K + 1]):
        if ca == zero:
            continue
        for j, cb in enumerate(b[: K + 1 - i]):
            if cb == zero:
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def seq_exp(a: list, K: int, zero=_ZERO, one=Fraction(1)) -> list:
    """exp of a series with vanishing constant term.

    b = exp(a) solves b' = a' b, that is n b_n = sum_{k=1..n} k a_k b_{n-k}.
    """
    if a and a[0] != zero:
        raise ValueError("exp requires a vanishing constant term")
    da = [k * a[k] if k < len(a) else zero for k in range(K + 1)]
    out = [one] + [zero] * K
    for n in range(1, K + 1):
        acc = zero
        for k in range(1, n + 1):
            if da[k] != zero and out[n - k] != zero:
                acc = acc + da[k] * out[n - k]
        out[n] = acc * Fraction(1, n)
    return out


def seq_log(a: list, K: int, zero=_ZERO, one=Fraction(1)) -> list:
    """log of a series with constant term one.

    b = log(a) solves a b' = a', that is
    n b_n = n a_n - sum_{k=1..n-1} k b_k a_{n-k}.
    """
    if not a or a[0] != one:
        raise ValueError("log requires constant term one")
    db = _log_recurrence(a, K, zero)
    return [zero] + [db[n] * Fraction(1, n) for n in range(1, K + 1)]


def _log_recurrence(a: list, K: int, zero) -> list:
    """[k b_k, k = 0..K] for b = log(a), a_0 = 1, without a division."""
    a = [a[i] if i < len(a) else zero for i in range(K + 1)]
    db = [zero] * (K + 1)
    for n in range(1, K + 1):
        acc = zero
        for k in range(1, n):
            if db[k] != zero and a[n - k] != zero:
                acc = acc + db[k] * a[n - k]
        db[n] = n * a[n] - acc
    return db


@dataclass(frozen=True)
class RationalSeries:
    """Truncated power series in x over exact rationals."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs, order: int | None = None):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is not None:
            cs = cs[: order + 1] + [_ZERO] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "RationalSeries":
        return cls([_ZERO], order=order)

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls([Fraction(1)], order=order)

    @classmethod
    def x(cls, order: int) -> "RationalSeries":
        return cls([_ZERO, Fraction(1)], order=order)

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else _ZERO

    def _common_order(self, other: "RationalSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalSeries([other], order=self.order)
        K = self._common_order(other)
        return RationalSeries([self[i] + other[i] for i in range(K + 1)])

    __radd__ = __add__

    def __neg__(self):
        return RationalSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalSeries([other], order=self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalSeries([c * other for c in self.coeffs])
        K = self._common_order(other)
        return RationalSeries(seq_mul(list(self.coeffs), list(other.coeffs), K))

    __rmul__ = __mul__

    def truncate(self, order: int) -> "RationalSeries":
        return RationalSeries(self.coeffs, order=order)

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def exp_series(s: RationalSeries) -> RationalSeries:
    """Exponential of a series with zero constant term, exact to order K."""
    if s[0] != 0:
        raise ValueError("exp_series requires zero constant term")
    return RationalSeries(seq_exp(list(s.coeffs), s.order))


def log_series(s: RationalSeries) -> RationalSeries:
    """Logarithm of a series with constant term 1, exact to order K."""
    if s[0] != 1:
        raise ValueError("log_series requires constant term 1")
    D = lcm(*(c.denominator for c in s.coeffs))
    db = _log_recurrence([c.numerator * (D ** i // c.denominator)
                          for i, c in enumerate(s.coeffs)], s.order, 0)
    return RationalSeries([_ZERO] + [Fraction(db[k], k * D ** k)
                                     for k in range(1, s.order + 1)])


def substitute_exponential(p: Laurent1, order: int,
                           scale: Fraction = Fraction(1)) -> RationalSeries:
    """Replace the variable of a Laurent polynomial by exp(scale*x).

    Each term q*t^m contributes q*exp(m*scale*x), so with scale = u/v the
    k-th coefficient is S_k u^k / (k! v^k), where S_k = sum q*m^k is
    exact integer work for integer q; the result is the exact truncated
    series of the substituted polynomial.
    """
    scale = Fraction(scale)
    num, den = scale.numerator, scale.denominator
    rates = list(p.coeffs)
    sums = list(p.coeffs.values())  # q * m^k per term, at k = 0
    coeffs = []
    top, bottom = 1, 1  # num^k and k! den^k
    for k in range(order + 1):
        coeffs.append(Fraction(sum(sums) * top, bottom))
        sums = [s * m for s, m in zip(sums, rates)]
        top *= num
        bottom *= (k + 1) * den
    return RationalSeries(coeffs)
