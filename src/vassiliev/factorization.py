"""Log expansions, product-group identities, and extraction of the
geometric factors of knot invariants.

The pipeline: slice a knot's two-variable skein polynomial to su(N)
ranks, substitute q = exp(x/2) (so t = q^2 = exp(x) at N = 2), and read
the exact series coefficients.  Each order-i coefficient is a rational
combination of the degree-i basis weights; the connected elements'
coefficients are the primitive geometric factors, while composites
carry no independent factor: their coefficient is the multinomial
product of their components' factors.  That identity is derived
mechanically here by expanding the product-group identity in two
grading variables and matching every monomial.

Extraction conventions are recorded in every result: su(N) fundamental
weights (deframed: isolated chords vanish), trace normalization, and
the slice substitution.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .basis import (
    BasisChangeReport,
    CanonicalBasis,
    multisets_up_to,
    transform_alphas,
)
from .diagrams import canonicalize, chord_diagram, product_all
from .formal import MultiPoly, symbol
from .knots import PlanarDiagram, homfly, sun_slice
from .linalg import matrix_rank, rref, solve_dense
from .series import (
    RationalSeries,
    log_series,
    seq_exp,
    substitute_exponential,
)
from .weights import (
    DEFAULT_CONFIG,
    WeightConfig,
    weight_product_group,
    weight_sun_deframed_at,
)

SLICE_CONVENTION = "a=q^N, z=q-1/q, q=exp(x/2)"
HALF = Fraction(1, 2)


# --------------------------------------------------------------------------
# sliced series and log expansions


def knot_series(pd: PlanarDiagram, n: int, order: int) -> RationalSeries:
    """Exact x-series of the rank-n slice of a knot's skein polynomial."""
    return substitute_exponential(sun_slice(homfly(pd), n), order, scale=HALF)


@dataclass(frozen=True)
class LogExpansion:
    """Coefficients of log of an unknot-normalized invariant series."""

    knot: str
    slice_label: str
    basis_version: str
    coefficients: tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.coefficients[i]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def log_invariant(s: RationalSeries, knot: str = "", slice_label: str = "",
                  basis_version: str = "") -> LogExpansion:
    """Log expansion of a series with constant term 1 (so w_0 = 0)."""
    if s[0] != 1:
        raise ValueError("log expansion needs an unknot-normalized series")
    return LogExpansion(knot, slice_label, basis_version,
                        log_series(s).coeffs)


def knot_log_expansion(pd: PlanarDiagram, n: int, order: int,
                       name: str = "", basis_version: str = "") -> LogExpansion:
    return log_invariant(knot_series(pd, n, order), knot=name,
                         slice_label=f"su({n}) fundamental",
                         basis_version=basis_version)


# --------------------------------------------------------------------------
# formal geometric factors


FRAMING_LABEL = (1, 0)  # the quadratic-Casimir element adjoined for framing


def alpha_symbol(label: tuple[int, int]) -> str:
    """Formal geometric factor of a connected element; the degree-1
    framing element carries the framing variable n."""
    if label == FRAMING_LABEL:
        return "n"
    return symbol("alpha", label[0], label[1] + 1)


def r_symbol(label: tuple[int, int]) -> str:
    if label == FRAMING_LABEL:
        return "C2"
    return symbol("r", label[0], label[1] + 1)


def _connected_labels(basis: CanonicalBasis, max_degree: int,
                      framing: bool) -> list[tuple[int, int]]:
    labels = [FRAMING_LABEL] if framing else []
    for i in range(2, max_degree + 1):
        labels.extend((i, j) for j in range(basis.d_hat(i)))
    return labels


def _multiset_degree(m: tuple) -> int:
    return sum(label[0] for label in m)


def _normal_forms(multisets) -> dict[tuple, MultiPoly]:
    """Solve the product-group matching triangularly: every composite's
    factor becomes a monomial in the connected factors."""
    normal: dict[tuple, MultiPoly] = {(): MultiPoly.one()}
    for m in multisets:
        if not m:
            continue
        if len(m) == 1:
            normal[m] = MultiPoly.sym(alpha_symbol(m[0]))
            continue
        first = m[0]
        p = sum(1 for label in m if label == first)
        rest = m[1:]
        normal[m] = (normal[(first,)] * normal[rest]) * Fraction(1, p)
    return normal


@dataclass(frozen=True)
class CompositeIdentity:
    """A composite element's factor as a multiple of connected factors."""

    components: tuple
    coefficient: Fraction

    @property
    def degree(self) -> int:
        return _multiset_degree(self.components)

    def render(self) -> str:
        counts = Counter(self.components)
        factors = []
        for label in sorted(counts):
            e = counts[label]
            s = alpha_symbol(label)
            factors.append(s if e == 1 else f"{s}^{e}")
        lhs = "alpha[" + " ".join(
            f"{i},{j + 1}" for i, j in self.components) + "]"
        coeff = "" if self.coefficient == 1 else f"{self.coefficient} * "
        return f"{lhs} = {coeff}" + " * ".join(factors)

    def expected_coefficient(self) -> Fraction:
        """Independent multinomial: product over types of 1/p!."""
        out = Fraction(1)
        for p in Counter(self.components).values():
            out /= factorial(p)
        return out


class MasterMatchError(RuntimeError):
    """A monomial of the product-group expansion failed to match."""


def derive_composite_identities(basis: CanonicalBasis,
                                max_degree: int | None = None,
                                framing: bool = False
                                ) -> list[CompositeIdentity]:
    """Derive the composite-factor identities from the product-group
    expansion.

    Both sides of the identity

        sum_M alpha_M prod_p (w_p(G) x^deg_p + w_p(G') x'^deg_p)
          = (sum alpha w(G) x^i) (sum alpha w(G') x'^j)

    are expanded as bivariate series with formal coefficients; the
    matching is triangular in the composite factors and every monomial
    is verified after substitution.  With framing=True the basis is
    extended by the degree-1 quadratic-Casimir element whose factor is
    the framing variable.  The identities depend on the basis only, so
    they are derived once per (basis, max_degree, framing).
    """
    K = basis.max_degree if max_degree is None else max_degree
    if K > basis.max_degree:
        raise ValueError("max_degree exceeds the basis")
    return list(_composite_identities(basis, K, framing))


@functools.cache
def _composite_identities(basis: CanonicalBasis, K: int, framing: bool
                          ) -> tuple[CompositeIdentity, ...]:
    labels = _connected_labels(basis, K, framing)
    multisets = multisets_up_to(labels, K)
    normal = _normal_forms(multisets)

    # formal component weights, labelled by basis coordinates
    diagram_of = {(i, e.index): canonicalize(e.diagram).diagram
                  for i in range(2, K + 1) for e in basis.connected(i)}
    if framing:
        diagram_of[FRAMING_LABEL] = \
            canonicalize(chord_diagram([(0, 1)])).diagram
    label_of = {d: label for label, d in diagram_of.items()}

    def g_label(label):
        return f"{label[0]}.{label[1] + 1}"

    def g_sym(label, mark):
        return symbol("w", mark, g_label(label))

    # expand the left side via the product-group weights of the basis
    # element's diagram, else of the product of the labels' diagrams
    lhs: dict[tuple[int, int], MultiPoly] = {}
    left = [MultiPoly.zero() for _ in range(K + 1)]
    right = [MultiPoly.zero() for _ in range(K + 1)]

    basis_elements_by_multiset = {}
    for i in range(K + 1):
        if i == 1:
            continue
        for e in basis.elements(i):
            basis_elements_by_multiset[tuple(sorted(e.components))] = e

    for m in multisets:
        deg = _multiset_degree(m)
        a_m = normal[m]
        elem = basis_elements_by_multiset.get(m)
        d = (elem.diagram if elem is not None
             else product_all(diagram_of[label] for label in m))
        factors = weight_product_group(
            d, marks=("G", "G2"), labeler=lambda c: g_label(label_of[c]))
        for key, poly in factors.items():
            lhs[key] = lhs.get(key, 0) + a_m * poly
        # right side: product of two single-group expansions
        g_mono = MultiPoly.one()
        gp_mono = MultiPoly.one()
        for label in m:
            g_mono = g_mono * MultiPoly.sym(g_sym(label, "G"))
            gp_mono = gp_mono * MultiPoly.sym(g_sym(label, "G2"))
        left[deg] = left[deg] + a_m * g_mono
        right[deg] = right[deg] + a_m * gp_mono
    rhs = {(i, j): left[i] * right[j]
           for i in range(K + 1) for j in range(K + 1 - i)}

    for key in sorted(set(lhs) | set(rhs)):
        diff = lhs.get(key, MultiPoly.zero()) - rhs.get(key, MultiPoly.zero())
        if diff:
            raise MasterMatchError(
                f"unmatched monomial at x^{key[0]} x'^{key[1]}: {diff}")

    out = []
    for m in multisets:
        if len(m) < 2:
            continue
        poly = normal[m]
        ((mono, coeff),) = poly.coeffs.items()
        out.append(CompositeIdentity(m, coeff))
    return tuple(out)


# --------------------------------------------------------------------------
# family resummation


@dataclass(frozen=True)
class ResummationIdentity:
    base: tuple
    generator: tuple[int, int]
    order: int
    members: int
    verified: bool

    def render(self) -> str:
        base = ("1" if not self.base else
                " * ".join(r_symbol(l) for l in self.base))
        g = self.generator
        factor = f"exp({alpha_symbol(g)} * {r_symbol(g)} * x^{g[0]})"
        return (f"family({base}; {r_symbol(g)}) to order {self.order}: "
                f"base * {factor} "
                + ("verified" if self.verified else "FAILED"))


def resum_family(basis: CanonicalBasis, base: tuple,
                 generator: tuple[int, int], order: int,
                 framing: bool = False) -> ResummationIdentity:
    """Check that a generator family resums into an exponential factor.

    The family consists of the base multiset dressed with q copies of
    the connected generator; with the derived composite factors, its
    total contribution must equal the base term times
    exp(alpha_gen * r_gen * x^deg_gen), coefficient by coefficient.
    """
    base = tuple(sorted(base))
    if generator == FRAMING_LABEL and not framing:
        raise ValueError("the framing element needs the framing-extended run")
    if generator in base:
        raise ValueError("the base must be free of the generator: families "
                         "partition the basis by their generator-free part")
    labels = _connected_labels(basis, basis.max_degree, framing)
    for label in base + (generator,):
        if label not in labels:
            raise ValueError(f"{label} is not a connected element here")
    gen_deg = generator[0]
    base_deg = _multiset_degree(base)
    members = []
    q = 0
    while base_deg + q * gen_deg <= order:
        members.append(base + (generator,) * q)
        q += 1
    if len(members) < 2:
        raise ValueError("family has no members beyond the base at this order")
    if not framing:
        # every member must exist in the basis
        present = {tuple(sorted(e.components))
                   for i in range(basis.max_degree + 1) if i != 1
                   for e in basis.elements(i)}
        for m in members:
            if tuple(sorted(m)) not in present and m:
                raise ValueError(f"family member {m} missing from the basis")
    multisets = multisets_up_to(labels, order)
    normal = _normal_forms(multisets)

    zero, one = MultiPoly.zero(), MultiPoly.one()
    lhs = [zero for _ in range(order + 1)]
    for m in members:
        deg = _multiset_degree(m)
        mono = one
        for label in sorted(m):
            mono = mono * MultiPoly.sym(r_symbol(label))
        lhs[deg] = lhs[deg] + normal[tuple(sorted(m))] * mono

    exponent = [zero for _ in range(order + 1)]
    exponent[gen_deg] = MultiPoly.sym(alpha_symbol(generator)) * \
        MultiPoly.sym(r_symbol(generator))
    exp_part = seq_exp(exponent, order, zero=zero, one=one)
    base_mono = one
    for label in sorted(base):
        base_mono = base_mono * MultiPoly.sym(r_symbol(label))
    base_poly = normal[base] * base_mono
    rhs = [zero for _ in range(order + 1)]
    for k in range(order + 1 - base_deg):
        rhs[base_deg + k] = base_poly * exp_part[k]
    verified = all(lhs[deg] == rhs[deg] for deg in range(order + 1))
    return ResummationIdentity(base, generator, order, len(members), verified)


# --------------------------------------------------------------------------
# extraction from knot polynomials


@dataclass(frozen=True)
class SolvedFunctional:
    """A determined linear functional of the degree's factors."""

    coefficients: tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class DegreeExtraction:
    degree: int
    design_rank: int
    connected_rank: int
    connected_full: bool
    connected_alphas: tuple | None
    composite_alphas: tuple | None  # pinned by the composite identities
    held_out_consistent: bool | None
    solved_functionals: tuple

    @property
    def alphas(self) -> tuple | None:
        if self.connected_alphas is None:
            return None
        return self.connected_alphas + (self.composite_alphas or ())


@dataclass(frozen=True)
class ExtractionResult:
    knot: str
    max_degree: int
    probes: tuple[int, ...]
    held_out: int
    basis_version: str
    weight_config: WeightConfig
    slice_convention: str
    series: tuple  # (probe, RationalSeries) pairs
    degrees: tuple[DegreeExtraction, ...]

    def degree(self, i: int) -> DegreeExtraction:
        return next(d for d in self.degrees if d.degree == i)

    def series_at(self, n: int) -> RationalSeries:
        return dict(self.series)[n]


@dataclass(frozen=True)
class _Design:
    """The knot-independent part of one degree's extraction."""

    weights: tuple  # probe x element weight rows, connected elements first
    rows: tuple  # rref([W | I]), one identity column per probe
    pivots: tuple
    connected_full: bool  # connected columns have full rank on training probes


@functools.cache
def _design(basis: CanonicalBasis, degree: int, probes: tuple[int, ...],
            normalization: Fraction) -> _Design:
    """Weights and reduced design of a degree, once per (basis, degree,
    probes, normalization); no knot enters.

    Reducing [W | I] gives [E W | E] with E W in RREF, so a knot's
    right-hand side s needs only E s.  Where the zero rows of E W have
    E s = 0, the other rows of [E W | E s] are in RREF with no pivot in
    the s column, so by uniqueness they are rref([W | s]); elsewhere s
    is off the column space of W.
    """
    cfg = WeightConfig(normalization)
    weights = tuple(tuple(weight_sun_deframed_at(e.diagram, n, cfg)
                          for e in basis.elements(degree)) for n in probes)
    k = len(probes)
    rows, pivots = rref([list(w) + [int(j == p) for j in range(k)]
                         for p, w in enumerate(weights)])
    dhat = basis.d_hat(degree)
    # solving uses the training probes only, so full rank must hold there
    connected_full = matrix_rank([w[:dhat] for w in weights[:-1]]) == dhat
    return _Design(weights, tuple(map(tuple, rows)), tuple(pivots),
                   connected_full)


def _solved_functionals(design: _Design, rhs) -> tuple:
    """The functionals of rref([W | s]) read from E s; raises if
    inconsistent."""
    ncols = len(design.weights[0])
    functionals = []
    for row, col in zip(design.rows, design.pivots):
        value = sum((e * v for e, v in zip(row[ncols:], rhs)), Fraction(0))
        if col < ncols:
            functionals.append(SolvedFunctional(row[:ncols], value))
        elif value:
            raise RuntimeError("inconsistent extraction system: the basis "
                               "weights cannot reproduce the knot series")
    return tuple(functionals)


def _held_out_solve(weights, targets, pinned, dhat: int):
    """Solve the connected factors on the training probes.

    `weights[k]` is probe k's weight row (connected elements first, then
    composites) and `targets[k]` its series coefficient; the pinned
    composite factors are subtracted, the last probe is held out.
    Returns (solution or None if the training system is inconsistent,
    whether the held-out probe agrees).
    """
    resid = [t - sum((v * w for v, w in zip(pinned, row[dhat:])), Fraction(0))
             for row, t in zip(weights, targets)]
    sol = solve_dense([row[:dhat] for row in weights[:-1]], resid[:-1])
    if sol is None:
        return None, False
    return sol, sum((s * w for s, w in zip(sol, weights[-1][:dhat])),
                    Fraction(0)) == resid[-1]


def extract_alphas(pd: PlanarDiagram, basis: CanonicalBasis, max_degree: int,
                   probes=(2, 3, 4, 5), cfg: WeightConfig = DEFAULT_CONFIG,
                   knot_name: str = "") -> ExtractionResult:
    """Solve for the geometric factors of a knot, degree by degree.

    Composites carry no independent factor: their values are pinned by
    the derived composite identities from lower-degree connected
    factors, and only the connected factors are solved for.  The last
    probe is held out: solutions come from the remaining probes and are
    verified against it exactly.  Degrees where the connected design is
    rank-deficient report the measured rank and the determined
    functionals instead of a factor vector.

    The weight rows depend on the basis, degree, probes and
    normalization only: `_design` builds and reduces them once per
    process, and each knot reduces just its series coefficients.
    """
    probes = tuple(sorted(set(int(p) for p in probes)))
    if len(probes) < 2 or probes[0] < 2 or probes[-1] > 9:
        raise ValueError("need at least two probe ranks within 2..9")
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2: lower degrees "
                         "carry no geometric factor to extract")
    if max_degree > basis.max_degree:
        raise ValueError("max_degree exceeds the basis")
    held_out = probes[-1]
    h = homfly(pd)
    series = {n: substitute_exponential(sun_slice(h, n), max_degree,
                                        scale=HALF)
              for n in probes}
    for n in probes:
        if series[n][0] != 1:
            raise RuntimeError("slice series is not unknot-normalized")

    connected_values: dict[tuple[int, int], Fraction] = {}
    chain_intact = True
    degrees = []
    for i in range(2, max_degree + 1):
        elems = basis.elements(i)
        conn = [e for e in elems if e.connected]
        comps = [e for e in elems if e.composite]
        design = _design(basis, i, probes, cfg.normalization)
        rhs_all = [series[n][i] for n in probes]
        functionals = _solved_functionals(design, rhs_all)
        design_rank = len(functionals)
        # pivots come in column order and connected columns come first,
        # so the pivots among them count the connected block's rank
        connected_rank = sum(1 for c in design.pivots if c < len(conn))

        connected_alphas = composite_alphas = None
        held_ok = None
        if design.connected_full and chain_intact:
            pinned = []
            for e in comps:
                val = Fraction(1)
                for label, p in Counter(e.components).items():
                    val *= connected_values[label] ** p / factorial(p)
                pinned.append(val)
            sol, held_ok = _held_out_solve(design.weights, rhs_all, pinned,
                                           len(conn))
            if sol is None:
                raise RuntimeError(
                    f"degree {i}: training probes are inconsistent")
            connected_alphas = tuple(sol)
            composite_alphas = tuple(pinned)
            for e, v in zip(conn, sol):
                connected_values[(i, e.index)] = v
        else:
            chain_intact = False
        degrees.append(DegreeExtraction(
            i, design_rank, connected_rank, design.connected_full,
            connected_alphas, composite_alphas, held_ok, functionals))
    return ExtractionResult(
        knot_name, max_degree, probes, held_out, basis.version, cfg,
        SLICE_CONVENTION, tuple(sorted(series.items())), tuple(degrees))


# --------------------------------------------------------------------------
# end-to-end factorization check


@dataclass(frozen=True)
class FactorizationReport:
    knot: str
    max_degree: int
    reconstruction_order: int
    composite_checks: tuple  # (degree, components, pinned, expected) rows
    composite_check_passed: bool
    reconstruction_passed: bool
    log_linear_vanishes: bool
    rank_report: tuple  # (degree, design_rank, d, connected_rank, d_hat)
    extraction: ExtractionResult

    @property
    def passed(self) -> bool:
        return (self.composite_check_passed and self.reconstruction_passed
                and self.log_linear_vanishes)


def verify_factorization(pd: PlanarDiagram, basis: CanonicalBasis,
                         max_degree: int, probes=(2, 3, 4, 5),
                         cfg: WeightConfig = DEFAULT_CONFIG,
                         knot_name: str = "") -> FactorizationReport:
    """Exact end-to-end check of the exponential factorization.

    (a) every composite's pinned factor agrees with the mechanically
    derived multinomial identity; (b) exp of the connected factors times
    their weights reproduces each probe's sliced series exactly, through
    every degree where the connected design has full rank (higher
    degrees only report their measured rank).
    """
    extraction = extract_alphas(pd, basis, max_degree, probes, cfg, knot_name)
    identities = {tuple(ci.components): ci
                  for ci in derive_composite_identities(basis, max_degree)}

    solved = list(itertools.takewhile(
        lambda d: d.connected_alphas is not None, extraction.degrees))
    k_rec = solved[-1].degree if solved else 1

    composite_rows = []
    comp_ok = True
    connected_values: dict[tuple[int, int], Fraction] = {}
    for d in solved:
        elems = basis.elements(d.degree)
        conn = [e for e in elems if e.connected]
        comps = [e for e in elems if e.composite]
        for e, v in zip(conn, d.connected_alphas):
            connected_values[(d.degree, e.index)] = v
        for e, pinned in zip(comps, d.composite_alphas):
            ident = identities[tuple(sorted(e.components))]
            expected = ident.coefficient
            for label, p in Counter(e.components).items():
                expected *= connected_values[label] ** p
            composite_rows.append(
                (d.degree, tuple(e.components), pinned, expected))
            if pinned != expected:
                comp_ok = False

    # s_0 = 1 and w_0 = 0, so exp(w) = s through x^k exactly when
    # w = log s through x^k: one log per probe serves both checks
    recon_ok = log_ok = True
    probes = extraction.probes
    for p, n in enumerate(probes):
        exponent = [Fraction(0)] * (k_rec + 1)
        for d in solved:
            # connected elements come first in each weight row
            design = _design(basis, d.degree, probes, cfg.normalization)
            for v, w in zip(d.connected_alphas, design.weights[p]):
                exponent[d.degree] += v * w
        lw = log_series(extraction.series_at(n))
        if any(lw[i] != exponent[i] for i in range(k_rec + 1)):
            recon_ok = False
        if lw[1] != 0:
            log_ok = False

    rank_report = tuple(
        (d.degree, d.design_rank, basis.d(d.degree), d.connected_rank,
         basis.d_hat(d.degree))
        for d in extraction.degrees)
    return FactorizationReport(
        knot_name, max_degree, k_rec, tuple(composite_rows), comp_ok,
        recon_ok, log_ok, rank_report, extraction)


# --------------------------------------------------------------------------
# covariance under changes of canonical basis


def reextract_under_change(extraction: ExtractionResult,
                           basis: CanonicalBasis, degree: int,
                           matrix, change: BasisChangeReport,
                           cfg: WeightConfig = DEFAULT_CONFIG) -> tuple:
    """Re-extract a degree's factors in a changed basis.

    The changed elements' weights are the matrix-transformed columns
    (column j of the change expands new element j in the old basis);
    composites are pinned contravariantly.  Returns the full new factor
    vector, to be compared with the contravariant transform of the old
    one.
    """
    if not change.valid:
        raise ValueError("invalid basis change")
    old = extraction.degree(degree)
    if old.alphas is None:
        raise ValueError("original extraction did not solve this degree")
    dhat = basis.d_hat(degree)
    probes = extraction.probes
    weights_old = _design(basis, degree, probes, cfg.normalization).weights
    m = matrix.entries
    size = basis.d(degree)
    new_weights = [
        [sum((m[k][j] * row[k] for k in range(size)), Fraction(0))
         for j in range(size)]
        for row in weights_old]
    # pin the new composite factors contravariantly and solve connected
    alpha_new_expected = transform_alphas(change, list(old.alphas))
    pinned = alpha_new_expected[dhat:]
    sol, held_ok = _held_out_solve(
        new_weights,
        [extraction.series_at(n)[degree] for n in probes], pinned, dhat)
    if sol is None:
        raise RuntimeError("re-extraction became inconsistent")
    if not held_ok:
        raise RuntimeError("re-extraction failed the held-out probe")
    return tuple(sol) + tuple(pinned)
