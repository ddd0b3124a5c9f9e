"""The three workloads: set-up, timed items and their oracles.

Every call into the package goes through `ctx.tr.call(<span name>, ...)`
so that the traced and the untraced child make the same calls.  Calls go
bottom-up (e.g. `one_vertex_diagrams` before `four_t_relations`), so a
span's time is its own layer's increment over the caches the earlier
calls filled.

Each workload returns the durations of its items; item 1 is the cold
one, and the rest run in a seeded order, so that items of every kind are
spread over the run rather than timed in one stretch.  With
`ctx.first_only` a workload stops after item 1 (a probe repetition).

Oracles are independent of the code path under test where possible:
published dimension tables, bracket state sum against skein recursion,
table determinants, mirror symmetry, the Conway constant term, and
weights against basis coordinates.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import golden
import inputs

# Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995):
# d_i of the reduced quotient, connected d-hat_i, and unreduced d_i.
DIMS_REDUCED = (1, 0, 1, 1, 3, 4, 9)
DIMS_CONNECTED = (0, 0, 1, 1, 2, 3, 5)
DIMS_UNREDUCED = (1, 1, 2, 3, 6, 10, 19)

PROBES = (2, 3, 4, 5)
SERIES_ORDER = 8
HALF = Fraction(1, 2)  # q = exp(x/2), the package's slice convention
POINT = Fraction(3, 2)  # q at which a link's skein and Jones values meet


@dataclass(frozen=True)
class Sizes:
    max_degree: int
    coordinate_degrees: tuple  # random diagrams for `coordinates`
    coordinates_per_cell: int
    table_names: tuple | None  # None: the whole knot table
    extract_cells: tuple  # braid strata of the factor-extract knots
    extract_per_cell: int
    weight_degrees: tuple  # random diagrams of the weight-oracle phase
    poly_knot_cells: tuple
    poly_knots_per_cell: int
    poly_link_cells: tuple
    poly_links_per_cell: int


FULL = Sizes(
    max_degree=6, coordinate_degrees=(2, 3, 4, 5, 6), coordinates_per_cell=12,
    table_names=None,
    extract_cells=tuple(inputs.CELLS), extract_per_cell=7,
    weight_degrees=(2, 3, 4, 5),
    poly_knot_cells=tuple(inputs.CELLS), poly_knots_per_cell=4,
    poly_link_cells=tuple(inputs.CELLS), poly_links_per_cell=3)

SMOKE = Sizes(
    max_degree=4, coordinate_degrees=(2, 3, 4), coordinates_per_cell=1,
    table_names=("3_1", "4_1", "5_2"),
    extract_cells=((3, 6),), extract_per_cell=1,
    weight_degrees=(2, 3),
    poly_knot_cells=((3, 6),), poly_knots_per_cell=2,
    poly_link_cells=((3, 6),), poly_links_per_cell=1)


@dataclass
class Context:
    v: object  # the imported `vassiliev` package
    tr: object  # spans.Tracer
    ck: object  # spans.Checker
    sizes: Sizes
    seed: int
    workdir: str  # scratch directory of this child
    first_only: bool = False


def _shuffled(ctx, items) -> list:
    items = list(items)
    inputs.rng_for(ctx.seed, "order").shuffle(items)
    return items


def _timed_items(ctx, items, body, first_id: int = 0) -> list[float]:
    """Run body(item) for each item under its own span; return durations."""
    if ctx.first_only:
        items = items[:1]
    out = []
    for k, item in enumerate(items, first_id):
        t0 = time.perf_counter()
        with ctx.tr.span("bench.item", item=k), ctx.ck.guard(f"item {k}"):
            body(item)
        out.append(time.perf_counter() - t0)
    return out


# --------------------------------------------------------------------------
# basis-cold


def basis_cold_setup(ctx):
    cells = inputs.diagram_cells(ctx.sizes.coordinate_degrees)
    return inputs.random_diagrams(ctx.seed, "coordinates", ctx.v.Diagram,
                                  cells, ctx.sizes.coordinates_per_cell)


def basis_cold_run(ctx, diagrams) -> list[float]:
    v, tr, ck, top = ctx.v, ctx.tr, ctx.ck, ctx.sizes.max_degree
    built = {}

    def build(_):
        for deg in range(top + 1):
            chords = tr.call("diagrams.chord_diagrams", v.chord_diagrams, deg)
            one_vertex = tr.call("diagrams.one_vertex",
                                 v.one_vertex_diagrams, deg)
            rows = tr.call("relations.four_t", v.four_t_relations, deg)
            reduced = tr.call("relations.quotient", v.quotient_space, deg,
                              True)
            unreduced = tr.call("relations.quotient", v.quotient_space, deg,
                                False)
            ck.check(reduced.dimension == DIMS_REDUCED[deg],
                     f"reduced d_{deg} = {reduced.dimension}")
            ck.check(unreduced.dimension == DIMS_UNREDUCED[deg],
                     f"unreduced d_{deg} = {unreduced.dimension}")
        rank = len(reduced.diagrams) - reduced.dimension
        ck.add("diagrams.chord_diagrams_count", len(chords))
        ck.add("diagrams.one_vertex_count", len(one_vertex))
        ck.add("relations.four_t_rows", len(rows.relations))
        ck.add("relations.quotient_rank", rank)
        ck.add("relations.four_t_useful_ratio", rank / len(rows.relations))

        basis = tr.call("basis.select", v.canonical_basis, top)
        for deg in range(top + 1):
            ck.check(basis.d(deg) == DIMS_REDUCED[deg]
                     and basis.d_hat(deg) == DIMS_CONNECTED[deg],
                     f"basis d_{deg}, d-hat_{deg}")
        path = os.path.join(ctx.workdir, f"basis-deg{top}.txt")
        tr.call("basis.save", v.save_basis, basis, path)
        ck.add("basis.cache_bytes", os.path.getsize(path))

        composites = sum(basis.d(i) - basis.d_hat(i)
                         for i in range(2, top + 1))
        for framing in (False, True):
            ids = tr.call("factorization.identities",
                          v.derive_composite_identities, basis, top,
                          framing=framing)
            if not framing:
                ck.check(len(ids) == composites, f"{len(ids)} identities")
            for ci in ids:
                ck.check(ci.coefficient == _multinomial(ci.components),
                         f"identity {ci.components}")
        family = tr.call("factorization.resum", v.resum_family, basis, (),
                         v.FRAMING_LABEL, top, framing=True)
        ck.check(family.verified, "framing family resummation")
        built["basis"] = basis

    def coordinates(d):
        basis = built["basis"]
        c = tr.call("basis.coordinates", v.coordinates, d, basis)
        ck.add("basis.coordinates_calls")
        ck.check(len(c.values) == basis.d(d.degree), f"coordinates of {d}")

    times = _timed_items(ctx, [None], build)
    if "basis" not in built or ctx.first_only:
        return times
    return times + _timed_items(ctx, _shuffled(ctx, diagrams), coordinates,
                                first_id=1)


def _multinomial(components) -> Fraction:
    out = Fraction(1)
    for label in set(components):
        out /= factorial(components.count(label))
    return out


# --------------------------------------------------------------------------
# shared by the knot workloads


def _load_table(ctx):
    """(name, diagram, determinant) of the table knots and their mirrors."""
    v = ctx.v
    table = v.knot_table.table()
    names = list(ctx.sizes.table_names or v.knot_names())
    out = []
    for name in names:
        for label in (name, name + "!"):
            out.append((label, v.knot(label), table[name].determinant))
    return out


def _closures(ctx, purpose, cells, per_cell, components):
    v = ctx.v
    words = inputs.braid_words(ctx.seed, purpose, cells, per_cell, components)
    return [(f"braid {s}:{','.join(map(str, w))}",
             v.braid_closure(v.BraidWord(s, w)), None) for s, w in words]


def _first(ctx, name, items):
    """The named item, then the others in the seeded order."""
    head = next(it for it in items if it[0] == name)
    return [head] + _shuffled(ctx, (it for it in items if it is not head))


def _eval_at(coeffs: dict, x: Fraction) -> Fraction:
    return sum((c * x ** e for e, c in coeffs.items()), Fraction(0))


# --------------------------------------------------------------------------
# factor-extract


def factor_extract_setup(ctx):
    v, tr, s = ctx.v, ctx.tr, ctx.sizes
    table = tr.call("knot_table.load", _load_table, ctx)
    braids = tr.call("knots.closure", _closures, ctx, "extract",
                     s.extract_cells, s.extract_per_cell, 1)
    cache = os.path.join(golden.CACHE_DIR, f"basis-deg{s.max_degree}.txt")
    basis = tr.call("basis.load", v.load_basis, cache)
    cells = inputs.diagram_cells(s.weight_degrees)
    singles = inputs.random_diagrams(ctx.seed, "weights", v.Diagram, cells, 1)
    # one pair of factors from each of the two lowest degrees' strata
    small = inputs.diagram_cells(s.weight_degrees[:2])
    factors = inputs.random_diagrams(ctx.seed, "products", v.Diagram, small, 2)
    pairs = [(a, b, v.product(a, b))
             for a, b in zip(factors[0::2], factors[1::2])]
    return _first(ctx, "3_1", table + braids), basis, singles, pairs


def factor_extract_run(ctx, state) -> list[float]:
    v, tr, ck, top = ctx.v, ctx.tr, ctx.ck, ctx.sizes.max_degree
    knots, basis, singles, pairs = state
    elements = [e for i in range(1, top + 1) for e in basis.elements(i)]

    def extract(item):
        name, pd, _ = item
        h = tr.call("knots.homfly", v.homfly, pd)
        ck.add("knots.homfly_calls")
        # a knot's Conway polynomial P(a=1, z) has constant term 1
        ck.check(sum(c for (_, j), c in h.coeffs.items() if j == 0) == 1,
                 f"{name}: Conway constant term")
        for e in elements:
            for n in PROBES:
                tr.call("weights.deframed", v.weight_sun_deframed_at,
                        e.diagram, n)
                ck.add("weights.deframed_calls")
        rep = tr.call("factorization.verify", v.verify_factorization, pd,
                      basis, top, PROBES)
        ck.check(rep.passed, f"{name}: verify_factorization")
        degrees = rep.extraction.degrees
        ck.add("factorization.degrees_attempted", len(degrees))
        ck.add("factorization.degrees_solved",
               sum(d.connected_alphas is not None for d in degrees))

    times = _timed_items(ctx, knots, extract)
    if ctx.first_only:
        return times
    with tr.span("bench.weight_oracles"), ck.guard("weight oracles"):
        _weight_oracles(ctx, basis, singles, pairs)
    with tr.span("bench.cli"), ck.guard("cli replay"):
        _cli_replay(ctx)
    return times


def _weight_oracles(ctx, basis, singles, pairs):
    v, tr, ck = ctx.v, ctx.tr, ctx.ck

    def deframed(d):
        ck.add("weights.deframed_calls")
        return tr.call("weights.deframed", v.weight_sun_deframed, d).coeffs

    def plain(d):
        ck.add("weights.sun_calls")
        return tr.call("weights.sun", v.weight_sun, d).coeffs

    # the deframed weight descends to the reduced quotient, so it is the
    # coordinate combination of the basis elements' weights
    for d in singles:
        got = deframed(d)
        c = tr.call("basis.coordinates", v.coordinates, d, basis)
        ck.add("basis.coordinates_calls")
        want: dict = {}
        for cj, e in zip(c.values, basis.elements(d.degree)):
            for k, w in deframed(e.diagram).items():
                want[k] = want.get(k, 0) + cj * w
        ck.check(got == {k: w for k, w in want.items() if w},
                 f"deframed weight of {d} against its coordinates")
    # the plain weight is multiplicative under the connected product
    for a, b, ab in pairs:
        wa, wb, wab = plain(a), plain(b), plain(ab)
        want = {}
        for i, x in wa.items():
            for j, y in wb.items():
                want[i + j] = want.get(i + j, 0) + x * y
        ck.check(wab == {k: w for k, w in want.items() if w},
                 f"weight of {a} # {b}")


def _cli_replay(ctx):
    from vassiliev.cli import main

    mismatches = 0
    for k, rec in golden.cases_upto(ctx.sizes.max_degree):
        code, text = ctx.tr.call("cli.main", golden.run_case, main,
                                 rec["argv"])
        ok = code == rec["exit"] and golden.mask(text) == rec["stdout"]
        ctx.ck.check(ok, f"cli case {k}: {' '.join(rec['argv'])}")
        mismatches += not ok
    ctx.ck.add("cli.golden_mismatches", mismatches)


# --------------------------------------------------------------------------
# knot-polys


def knot_polys_setup(ctx):
    s, tr = ctx.sizes, ctx.tr
    table = tr.call("knot_table.load", _load_table, ctx)
    knots = tr.call("knots.closure", _closures, ctx, "poly-knots",
                    s.poly_knot_cells, s.poly_knots_per_cell, 1)
    links = tr.call("knots.closure", _closures, ctx, "poly-links",
                    s.poly_link_cells, s.poly_links_per_cell, 3)
    # item 1 is the largest table knot (3_1 in the smoke variant), so
    # that the cold item is not lost in timer and scheduler noise
    first = "8_19" if any(n == "8_19" for n, _, _ in table) else "3_1"
    return _first(ctx, first,
                  [(n, pd, det, True) for n, pd, det in table + knots]
                  + [(n, pd, det, False) for n, pd, det in links])


def knot_polys_run(ctx, items) -> list[float]:
    v, tr, ck = ctx.v, ctx.tr, ctx.ck
    jones_of: dict[str, dict] = {}

    def polys(item):
        name, pd, det, is_knot = item
        jones = tr.call("knots.jones", v.jones, pd).coeffs
        ck.add("knots.jones_calls")
        ck.add("knots.bracket_states", 2 ** pd.n_crossings)
        h = tr.call("knots.homfly", v.homfly, pd)
        ck.add("knots.homfly_calls")
        jones_of[name] = jones
        if det is not None:
            ck.check(abs(_eval_at(jones, Fraction(-1))) == det,
                     f"{name}: |V(-1)| against the table determinant")
            mirror = name[:-1] if name.endswith("!") else name + "!"
            if mirror in jones_of:
                ck.check(jones == {-e: c for e, c in jones_of[mirror].items()},
                         f"{name}: V(mirror)(t) = V(1/t)")
        if not is_knot:
            # skein at a = q^2, z = q - 1/q against the bracket at t = q^2
            a, z = POINT ** 2, POINT - 1 / POINT
            skein = sum((c * a ** i * z ** j
                         for (i, j), c in h.coeffs.items()), Fraction(0))
            ck.check(skein == _eval_at(jones, POINT ** 2),
                     f"{name}: skein against bracket at q = {POINT}")
            return
        for n in PROBES:
            sl = tr.call("knots.slice", v.sun_slice, h, n)
            if n == 2:
                ck.check(sl.coeffs == {2 * e: c for e, c in jones.items()},
                         f"{name}: N=2 slice against Jones at t = q^2")
            series = tr.call("series.substitute", v.substitute_exponential,
                             sl, SERIES_ORDER, HALF)
            log = tr.call("series.log", v.log_series, series)
            ck.add("series.calls", 2)
            ck.check(log[0] == 0 and log[1] == 0, f"{name}: w_0 = w_1 = 0")

    return _timed_items(ctx, items, polys)


WORKLOADS = {
    "basis-cold": (basis_cold_setup, basis_cold_run),
    "factor-extract": (factor_extract_setup, factor_extract_run),
    "knot-polys": (knot_polys_setup, knot_polys_run),
}
