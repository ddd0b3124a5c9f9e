"""Sparse polynomials in formal symbols over exact rationals.

Used for the formal side of the engine: geometric factors attached to
basis elements, formal group weights of connected components, and the
framing variable.  Symbols are plain strings (built by `symbol`), a
monomial is a sorted tuple of (symbol, exponent) pairs.  The ring
arithmetic and printing are `laurent.SparsePoly`.
"""

from __future__ import annotations

from .laurent import SparsePoly


def symbol(*parts) -> str:
    """Build a symbol name from parts, e.g. symbol('alpha', 2, 1)."""
    return ":".join(str(p) for p in parts)


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    acc: dict[str, int] = {}
    for s, e in m1:
        acc[s] = acc.get(s, 0) + e
    for s, e in m2:
        acc[s] = acc.get(s, 0) + e
    return tuple(sorted((s, e) for s, e in acc.items() if e))


class MultiPoly(SparsePoly):
    """Polynomial in named symbols with Fraction coefficients."""

    __slots__ = ()

    _UNIT = ()
    _mono_mul = staticmethod(_mono_mul)

    def _factors(self, mono):
        return mono

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(): 1})

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def sym(cls, name: str, power: int = 1) -> "MultiPoly":
        if power == 0:
            return cls.one()
        return cls({((name, power),): 1})

    def substitute(self, mapping: dict[str, "MultiPoly"]) -> "MultiPoly":
        """Replace symbols by polynomials (symbols absent stay formal)."""
        out = MultiPoly.zero()
        for mono, c in self.coeffs.items():
            term = MultiPoly.const(c)
            for s, e in mono:
                rep = mapping.get(s)
                factor = rep ** e if rep is not None else MultiPoly.sym(s, e)
                term = term * factor
            out = out + term
        return out
