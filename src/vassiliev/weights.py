"""su(N) and gl(N) weight systems in the fundamental representation.

The group factor of a diagram is evaluated exactly as a Laurent
polynomial in N: the diagram is first reduced to chord diagrams by STU
resolutions, then every chord is contracted with the fundamental
completeness identity

    sum_a (T^a)_ij (T^a)_kl = c * (d_il d_kj - (1/N) d_ij d_kl)

(the -1/N term is dropped for gl(N)).  Values are normalized by the
trace of the identity, so the empty diagram evaluates to 1.  The trace
normalization c (fundamental trace of T^a T^b = c * delta) defaults to
1/2 and is recorded in every output.

Contracting every chord of a chord diagram D with m chords leaves closed
index loops: the cycles of the boundary walk that runs along the circle
to a leg, crosses its chord, and runs on.  Write cyc(D) for their number
(1 for the empty diagram).  Keeping the -1/N term on a set J of chords
deletes those chords (D - J), so every weight is a sum over chord subsets J:

    gl(N):          c^m N^(cyc(D) - 1)
    su(N):          c^m sum_J (-1)^|J| N^(cyc(D - J) - 1 - |J|)
    deframed:       c^m sum_J (-1)^|J| N^(cyc(D - J) - 1 + |J|)

The deframed weight is the same for su(N) and gl(N): gl(N) = su(N) + u(1),
and u(1) only ever contributes an isolated chord, which deframing kills.
All three are read off one cached table of (|J|, cyc(D - J)) counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import (
    Diagram,
    canonical_key,
    canonicalize,
    decompose,
    product,
)
from .laurent import Laurent1
from .relations import reduce_to_chords
from .formal import MultiPoly, symbol


@dataclass(frozen=True)
class WeightConfig:
    """Evaluation conventions: trace normalization and algebra family."""

    normalization: Fraction = Fraction(1, 2)
    algebra: str = "su"  # "su" (traceless) or "gl"

    def __post_init__(self):
        if self.normalization <= 0:
            raise ValueError("trace normalization must be positive")
        if self.algebra not in ("su", "gl"):
            raise ValueError("algebra must be 'su' or 'gl'")

    def describe(self) -> str:
        return f"{self.algebra}(N), tr(T^a T^b) = {self.normalization}*delta"


DEFAULT_CONFIG = WeightConfig()


@functools.cache
def _cycle_counts(d: Diagram) -> dict[tuple[int, int], int]:
    """Chord diagram D -> {(|J|, cyc(D - J)): number of chord subsets J}.

    Arc a runs from leg a to leg a + 1; the walk leaves it at leg a + 1,
    straight on if that leg's chord is in J, else across the chord.
    """
    L, partner = d.legs, d.partner
    chord_bit = [0] * L
    for k, (p, q) in enumerate(d.edges):
        chord_bit[p] = chord_bit[q] = 1 << k
    ends = [(a + 1) % L for a in range(L)]
    counts = {}
    for state in range(1 << (L // 2)):
        step = [t if chord_bit[t] & state else partner[t] for t in ends]
        seen = [False] * L
        cycles = 0 if L else 1  # the bare circle is one loop
        for start in range(L):
            if not seen[start]:
                cycles += 1
                a = start
                while not seen[a]:
                    seen[a] = True
                    a = step[a]
        key = (state.bit_count(), cycles)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _weight(d: Diagram, cfg: WeightConfig, deframed: bool) -> Laurent1:
    """Cycle-count formula summed over the chord diagrams of d."""
    sign = 1 if deframed else -1
    gl = cfg.algebra == "gl" and not deframed
    coeffs: dict[int, Fraction] = {}
    for c, coeff in reduce_to_chords(d).terms.items():
        for (j, cycles), k in _cycle_counts(c).items():
            if gl and j:
                continue
            e = cycles - 1 + sign * j
            coeffs[e] = coeffs.get(e, 0) + (-1) ** j * k * coeff
    scale = cfg.normalization ** d.degree
    return Laurent1({e: v * scale for e, v in coeffs.items()}, var="N")


def weight_sun(d: Diagram, cfg: WeightConfig = DEFAULT_CONFIG) -> Laurent1:
    """Group factor of a diagram as an exact Laurent polynomial in N.

    Computed through `reduce_to_chords` followed by chord contraction;
    multiplicative over non-overlapping components and consistent with
    the STU and IHX relations by construction.
    """
    return _weight(d, cfg, deframed=False)


def weight_sun_at(d: Diagram, n: int, cfg: WeightConfig = DEFAULT_CONFIG) -> Fraction:
    """Weight evaluated at a concrete rank N = n >= 2."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    return weight_sun(d, cfg)(Fraction(n))


def check_multiplicativity(d1: Diagram, d2: Diagram,
                           cfg: WeightConfig = DEFAULT_CONFIG) -> bool:
    """Exact test that the juxtaposed diagram's weight factorizes."""
    return weight_sun(product(d1, d2), cfg) == weight_sun(d1, cfg) * weight_sun(d2, cfg)


def weight_sun_deframed(d: Diagram, cfg: WeightConfig = DEFAULT_CONFIG) -> Laurent1:
    """Weight corrected to vanish on diagrams with isolated chords.

    On a chord diagram D with m chords this is the alternating sum over
    chord subsets J of (single-chord weight)^|J| times the plain weight
    with J removed, which comes to

        c^m sum_J (-1)^|J| N^(cyc(D - J) - 1 + |J|)

    for su(N) and gl(N) alike (see the module docstring).  It kills the
    isolated-chord ideal while still satisfying 4T, so it descends to the
    reduced quotient and matches the coefficients of unknot-normalized
    (framing-independent) knot invariants.  Memoized per diagram and
    normalization (`_deframed`; the algebra does not enter).
    """
    return _deframed(d, cfg.normalization)


@functools.cache
def _deframed(d: Diagram, normalization: Fraction) -> Laurent1:
    return _weight(d, WeightConfig(normalization), deframed=True)


def weight_sun_deframed_at(d: Diagram, n: int,
                           cfg: WeightConfig = DEFAULT_CONFIG) -> Fraction:
    """Deframed weight evaluated at a concrete rank N = n >= 2.

    Memoized per diagram, rank and normalization (`_deframed_at`; the
    algebra does not enter), so the probe ranks of every extraction
    evaluate each basis element's Laurent polynomial once per process.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    return _deframed_at(d, n, cfg.normalization)


@functools.cache
def _deframed_at(d: Diagram, n: int, normalization: Fraction) -> Fraction:
    return _deframed(d, normalization)(Fraction(n))


def weight_product_group(d: Diagram, marks: tuple[str, str] = ("G", "G'"),
                         labeler=None) -> dict[tuple[int, int], MultiPoly]:
    """Formal weight of a diagram under a product group.

    For a diagram with non-overlapping connected components p of degrees
    deg_p, returns the expansion of

        prod_p ( w_p(first mark) x^deg_p + w_p(second mark) x'^deg_p )

    as a dict (x-degree, x'-degree) -> polynomial in the formal component
    weights.  `labeler(component_diagram)` may supply the symbol label
    for a component (e.g. its basis coordinates); the default labels by
    canonical form.
    """
    report = decompose(d)
    if report.overlapping:
        raise ValueError("product-group weights need non-overlapping input")
    out: dict[tuple[int, int], MultiPoly] = {(0, 0): MultiPoly.one()}
    for comp in report.components:
        cd = canonicalize(comp.diagram).diagram
        label = labeler(cd) if labeler else canonical_key(cd)
        i = cd.degree
        g = MultiPoly.sym(symbol("w", marks[0], label))
        gp = MultiPoly.sym(symbol("w", marks[1], label))
        new: dict[tuple[int, int], MultiPoly] = {}
        for (a, b), poly in out.items():
            for key, val in (((a + i, b), poly * g), ((a, b + i), poly * gp)):
                new[key] = new.get(key, 0) + val
        out = new
    return out
