"""Exact sparse polynomials: one ring kernel and its variants.

`SparsePoly` is a dict from monomial keys to nonzero exact coefficients
with the ring operations, equality, hashing and printing.  An `int`
coefficient stays an `int` (the bracket, skein and slice arithmetic is
integer throughout); any other value becomes a `Fraction`.  A subclass
supplies only its monomial product, its unit monomial, how a monomial
prints as (name, exponent) factors, and its print order.

`Laurent1` (keys: int exponents) and `Laurent2` (keys: (int, int))
carry weight-system values (variable N), bracket/Jones polynomials
(variables A, t, q) and the two-variable skein polynomial (variables
a, z).  `formal.MultiPoly` is the same ring over named symbols, and
`diagrams.DiagramSum` the same sums keyed by canonical diagrams, whose
4T and STU coefficients stay `int`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

_ONE = Fraction(1)


class SparsePoly:
    """Sparse polynomial with exact coefficients.

    `coeffs` maps each monomial key to its nonzero coefficient, kept as
    given if it is an `int` and converted to `Fraction` otherwise;
    `names` holds the variable names used by the printer.
    Subclasses set `_UNIT` (the key of the constant monomial),
    `_DESCENDING` (print order) and define `_mono_mul(m1, m2)` (the
    product of two keys) and `_factors(m)` (the (name, exponent) pairs a
    key prints as).
    """

    __slots__ = ("coeffs", "names")

    _UNIT: object = None
    _DESCENDING = False

    def __init__(self, coeffs=None, names: tuple = ()):
        self.names = names
        self.coeffs: dict = {}
        if coeffs:
            for m, c in dict(coeffs).items():
                if type(c) is not int:
                    c = Fraction(c)
                if c:
                    self.coeffs[m] = c

    def _new(self, coeffs: dict):
        """Same class and variables; `coeffs` must hold nonzero values."""
        out = object.__new__(type(self))
        out.coeffs = coeffs
        out.names = self.names
        return out

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new({self._UNIT: other} if other else {})
        return other

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._lift(other)
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in self._lift(other).coeffs.items():
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                v += c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._new({})
            return self._new({m: c * other for m, c in self.coeffs.items()})
        mono_mul = self._mono_mul
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = mono_mul(m1, m2)
                v = out.get(m)
                out[m] = c1 * c2 if v is None else v + c1 * c2
        return self._new({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self._new({self._UNIT: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        out = ""
        for m in sorted(self.coeffs, reverse=self._DESCENDING):
            c = self.coeffs[m]
            mono = "*".join(s if e == 1 else f"{s}^{e}"
                            for s, e in self._factors(m) if e)
            if not mono:
                text = str(c)
            elif c == 1:
                text = mono
            elif c == -1:
                text = f"-{mono}"
            else:
                text = f"{c}*{mono}"
            if not out:
                out = text
            elif text.startswith("-"):
                out += f" - {text[1:]}"
            else:
                out += f" + {text}"
        return out


class Laurent1(SparsePoly):
    """Sparse Laurent polynomial in a single variable."""

    __slots__ = ()

    _UNIT = 0
    _DESCENDING = True
    _mono_mul = staticmethod(operator.add)

    def __init__(self, coeffs=None, var: str = "t"):
        super().__init__(coeffs, (var,))

    @property
    def var(self) -> str:
        return self.names[0]

    def _factors(self, e):
        return ((self.names[0], e),)

    @classmethod
    def term(cls, coeff, exp: int = 0, var: str = "t") -> "Laurent1":
        return cls({exp: coeff}, var=var)

    @classmethod
    def zero(cls, var: str = "t") -> "Laurent1":
        return cls({}, var=var)

    @classmethod
    def one(cls, var: str = "t") -> "Laurent1":
        return cls({0: 1}, var=var)

    def __pow__(self, n: int) -> "Laurent1":
        if n < 0:
            if len(self.coeffs) != 1:
                raise ValueError("cannot invert a non-monomial")
            ((e, c),) = self.coeffs.items()
            # a unit is its own inverse, so an int unit stays an int
            inv = c if c == 1 or c == -1 else _ONE / c
            return self._new({-e: inv}) ** (-n)
        return super().__pow__(n)

    def substitute_monomial(self, k: int, var: str | None = None) -> "Laurent1":
        """Replace the variable by (new variable)**k."""
        out: dict = {}
        for e, c in self.coeffs.items():
            out[e * k] = out.get(e * k, 0) + c
        return Laurent1(out, var=var or self.var)

    def mirror(self) -> "Laurent1":
        """Replace the variable by its inverse."""
        return self._new({-e: c for e, c in self.coeffs.items()})

    def __call__(self, value: Fraction | int) -> Fraction:
        value = Fraction(value)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * value ** e
        return total


def _pair_add(m1: tuple[int, int], m2: tuple[int, int]) -> tuple[int, int]:
    return (m1[0] + m2[0], m1[1] + m2[1])


class Laurent2(SparsePoly):
    """Sparse Laurent polynomial in two variables (default a, z)."""

    __slots__ = ()

    _UNIT = (0, 0)
    _DESCENDING = True
    _mono_mul = staticmethod(_pair_add)

    def __init__(self, coeffs=None, vars: tuple[str, str] = ("a", "z")):
        super().__init__(coeffs, tuple(vars))

    def _factors(self, m):
        return zip(self.names, m)

    @classmethod
    def term(cls, coeff, e1: int = 0, e2: int = 0,
             vars: tuple[str, str] = ("a", "z")) -> "Laurent2":
        return cls({(e1, e2): coeff}, vars=vars)

    @classmethod
    def one(cls, vars: tuple[str, str] = ("a", "z")) -> "Laurent2":
        return cls({(0, 0): 1}, vars=vars)
