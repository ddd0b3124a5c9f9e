"""Command-line interface.

Subcommands: dims, basis, weight, jones, homfly, extract, verify,
identities.  Every report embeds the run configuration (conventions,
probes, cache directory) so results are reproducible; output is
deterministic for a fixed configuration and cache state.

Exit codes: 0 success, 1 check failure, 2 usage or input error (a
`ValueError` or `OSError` from the input), 3 crossing, component or
weight budget exceeded.  Any other exception is a fault of the program
and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .basis import basis_cache_path, cached_basis
from .diagrams import parse as parse_diagram
from .diagrams import serialize
from .factorization import (
    FRAMING_LABEL,
    derive_composite_identities,
    extract_alphas,
    resum_family,
    verify_factorization,
)
from .knot_table import knot
from .knots import (
    BraidWord,
    BudgetExceededError,
    PlanarDiagram,
    braid_closure,
    braid_components,
    check_component_budget,
    check_crossing_budget,
    homfly,
    jones,
    parse_pd,
    pd_to_text,
)
from .relations import dimension
from .weights import DEFAULT_CONFIG, weight_sun, weight_sun_at
from .factorization import SLICE_CONVENTION

SKEIN_CONVENTION = "a^-1 P+ - a P- = z P0, unknot = 1"
# `weight` expands up to 2^vertices chord terms and visits 2^degree chord
# subsets of each, so it is refused above this degree + vertices.  At 20,
# cold `weight --rank 3` took 5.5 s on 20 crossing chords and 3.5-5.2 s
# on seeded random diagrams of degree 12-19 with 1-8 vertices (up to
# 3.2 s with 9-13); each two more quadruple it: 22 crossing chords took
# about 22 s (Python 3.11, 2-vCPU VM).  Every degree-7 diagram is within.
WEIGHT_BUDGET = 20


def _config(args) -> dict:
    """The run configuration every report embeds, under "config"."""
    return {
        "command": args.command,
        "max_degree": args.max_degree,
        "reduced": getattr(args, "reduced", True),
        "normalization": str(DEFAULT_CONFIG.normalization),
        "algebra": DEFAULT_CONFIG.algebra,
        "skein_convention": SKEIN_CONVENTION,
        "slice_convention": SLICE_CONVENTION,
        "probes": tuple(args.probes) if getattr(args, "probes", None) else (),
        "cache_dir": args.cache_dir,
        "seed": args.seed,
        "format": args.format,
    }


def _frac(x) -> str:
    return str(Fraction(x))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    print(f"{pad}- {v}")
    walk(report)


def _resolve_knot(args) -> PlanarDiagram:
    given = [x for x in (args.knot, args.pd, args.braid) if x]
    if len(given) != 1:
        raise ValueError("specify exactly one of --knot, --pd, --braid")
    if args.knot:
        return knot(args.knot)
    if args.pd:
        return parse_pd(args.pd)
    head, colon, word = args.braid.rpartition(":")
    # commas or blanks separate letters; two adjacent commas, or one at
    # either end, leave an empty letter
    word = word.strip()
    fields = re.split(r"\s*,\s*|\s+", word) if word else []
    try:
        letters = [int(x) for x in fields if x]
        strands = int(head) if colon else None
    except ValueError:
        raise ValueError(f"malformed braid word: {args.braid!r}") from None
    if strands is None and not letters:
        raise ValueError("empty braid word: give the strand count as "
                         "'k:', e.g. '2:' for the 2-component unlink")
    if "" in fields:
        raise ValueError(f"empty letter {fields.index('') + 1} in braid "
                         f"word: {args.braid!r}")
    if strands is None:
        strands = max(abs(x) for x in letters) + 1
    word = BraidWord(strands, letters)
    # one crossing per letter: both budgets precede the closure
    check_component_budget(braid_components(word))
    check_crossing_budget(len(word.letters),
                          "bracket" if args.command == "jones" else "skein")
    return braid_closure(word)


def _knot_label(args) -> str:
    return args.knot or args.pd or f"braid {args.braid}"


def cmd_dims(args) -> int:
    report = {"config": _config(args)}
    rows = []
    if args.reduced:
        basis = cached_basis(args.max_degree, args.cache_dir)
        for i in range(args.max_degree + 1):
            rows.append({"degree": i, "d": basis.d(i),
                         "d_hat": basis.d_hat(i)})
        report["basis_version"] = basis.version
    else:
        for i in range(args.max_degree + 1):
            rows.append({"degree": i, "d": dimension(i, reduced=False)})
    report["dimensions"] = rows
    _emit(report, args.format)
    return 0


def cmd_basis(args) -> int:
    basis = cached_basis(args.max_degree, args.cache_dir)
    rows = []
    for i in range(args.max_degree + 1):
        for e in basis.elements(i):
            rows.append({
                "degree": i, "index": e.index, "kind": e.kind,
                "components": " ".join(f"{a}.{b}" for a, b in e.components),
                "diagram": serialize(e.diagram),
            })
    report = {"config": _config(args), "basis_version": basis.version,
              "elements": rows}
    if args.cache_dir:
        report["cache_file"] = basis_cache_path(args.cache_dir,
                                                args.max_degree)
    _emit(report, args.format)
    return 0


def cmd_weight(args) -> int:
    if bool(args.diagram) == bool(args.diagram_file):
        raise ValueError("specify one of --diagram, --diagram-file")
    if args.diagram:
        text = args.diagram
    else:
        with open(args.diagram_file) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"{args.diagram_file}: no diagram in the file")
        if len(lines) > 1:
            raise ValueError(f"{args.diagram_file}: {len(lines)} diagram "
                             "lines; the file must hold one diagram")
        text = lines[0]
    d = parse_diagram(text)
    if d.degree + d.vertices > WEIGHT_BUDGET:
        raise BudgetExceededError(
            f"degree {d.degree} + {d.vertices} vertices = "
            f"{d.degree + d.vertices} exceeds the weight budget of "
            f"{WEIGHT_BUDGET}")
    from .weights import weight_sun_deframed, weight_sun_deframed_at

    wfun = weight_sun_deframed if args.deframed else weight_sun
    wfun_at = weight_sun_deframed_at if args.deframed else weight_sun_at
    report = {"config": _config(args), "diagram": serialize(d),
              "degree": d.degree, "deframed": bool(args.deframed)}
    if args.rank is not None:
        report["rank"] = args.rank
        report["value"] = _frac(wfun_at(d, args.rank))
    else:
        report["weight"] = str(wfun(d))
    _emit(report, args.format)
    return 0


def cmd_jones(args) -> int:
    pd = _resolve_knot(args)
    report = {"config": _config(args), "knot": _knot_label(args),
              "pd": pd_to_text(pd), "jones": str(jones(pd))}
    _emit(report, args.format)
    return 0


def cmd_homfly(args) -> int:
    pd = _resolve_knot(args)
    report = {"config": _config(args), "knot": _knot_label(args),
              "pd": pd_to_text(pd), "homfly": str(homfly(pd))}
    _emit(report, args.format)
    return 0


def _extraction_report(ex, basis) -> list[dict]:
    rows = []
    for d in ex.degrees:
        row = {
            "degree": d.degree,
            "design_rank": d.design_rank,
            "d": basis.d(d.degree),
            "connected_rank": d.connected_rank,
            "d_hat": basis.d_hat(d.degree),
        }
        if d.alphas is not None:
            row["alphas"] = [_frac(a) for a in d.alphas]
            row["held_out_consistent"] = bool(d.held_out_consistent)
        else:
            row["solved_functionals"] = [
                {"coefficients": [_frac(c) for c in f.coefficients],
                 "value": _frac(f.value)}
                for f in d.solved_functionals]
        rows.append(row)
    return rows


def _extraction_head(args, ex) -> dict:
    """The leading keys shared by the extract and verify reports."""
    return {
        "config": _config(args),
        "knot": _knot_label(args),
        "basis_version": ex.basis_version,
        "weight_normalization": str(ex.weight_config.normalization),
        "slice_convention": ex.slice_convention,
    }


def cmd_extract(args) -> int:
    pd = _resolve_knot(args)
    basis = cached_basis(args.max_degree, args.cache_dir)
    ex = extract_alphas(pd, basis, args.max_degree, tuple(args.probes),
                        knot_name=_knot_label(args))
    report = {
        **_extraction_head(args, ex),
        "held_out_probe": ex.held_out,
        "degrees": _extraction_report(ex, basis),
        "values": "exact-rational",
    }
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    pd = _resolve_knot(args)
    basis = cached_basis(args.max_degree, args.cache_dir)
    rep = verify_factorization(pd, basis, args.max_degree,
                               tuple(args.probes),
                               knot_name=_knot_label(args))
    report = {
        **_extraction_head(args, rep.extraction),
        "reconstruction_order": rep.reconstruction_order,
        "checks": {
            "composite_factors": "pass" if rep.composite_check_passed
            else "fail",
            "exponential_reconstruction": "pass" if rep.reconstruction_passed
            else "fail",
            "log_linear_term_vanishes": "pass" if rep.log_linear_vanishes
            else "fail",
        },
        "rank_report": [
            {"degree": r[0], "design_rank": r[1], "d": r[2],
             "connected_rank": r[3], "d_hat": r[4]}
            for r in rep.rank_report],
        "degrees": _extraction_report(rep.extraction, basis),
        "passed": rep.passed,
    }
    _emit(report, args.format)
    return 0 if rep.passed else 1


def cmd_identities(args) -> int:
    basis = cached_basis(args.max_degree, args.cache_dir)
    ids = derive_composite_identities(basis, args.max_degree,
                                      framing=args.framing)
    rows = [{"degree": ci.degree, "identity": ci.render(),
             "coefficient": _frac(ci.coefficient)} for ci in ids]
    report = {"config": _config(args), "basis_version": basis.version,
              "framing_extended": bool(args.framing),
              "identities": rows}
    if args.framing:
        fam = resum_family(basis, (), FRAMING_LABEL,
                           min(args.max_degree, basis.max_degree),
                           framing=True)
        report["framing_family"] = fam.render()
    _emit(report, args.format)
    return 0


def _degree(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a nonnegative integer")
    return int(text)


def _probes(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of ranks") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vassiliev",
        description="Exact diagram algebra and finite-type knot invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, probes=False, knots=False):
        p.add_argument("--max-degree", type=_degree, default=4)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="seed echoed into reports (randomized property "
                       "tests take their seed here)")
        if probes:
            p.add_argument("--probes", type=_probes, default=[2, 3, 4, 5])
        if knots:
            p.add_argument("--knot", help="table name, e.g. 3_1 (mirror: 3_1!)")
            p.add_argument("--pd", help="inline PD code X(a,b,c,d) ...")
            p.add_argument("--braid",
                           help="braid word 'strands:i,j,...' or 'i,j,...'")

    dims = sub.add_parser("dims", help="independent structures per degree")
    common(dims)
    # only dims has an unreduced reading; the others report reduced: True
    dims.add_argument("--reduced", dest="reduced", action="store_true",
                      default=True)
    dims.add_argument("--unreduced", dest="reduced", action="store_false")
    common(sub.add_parser("basis", help="canonical basis elements"))
    w = sub.add_parser("weight", help="su(N) weight of a diagram")
    common(w)
    w.add_argument("--diagram", help="inline diagram text (L=.. T=.. edges)")
    w.add_argument("--diagram-file", help="file holding one diagram")
    w.add_argument("--rank", type=int, default=None,
                   help="evaluate at a concrete rank N")
    w.add_argument("--deframed", action="store_true",
                   help="use the framing-corrected weight")
    j = sub.add_parser("jones", help="Jones polynomial")
    common(j, knots=True)
    h = sub.add_parser("homfly", help="two-variable skein polynomial")
    common(h, knots=True)
    e = sub.add_parser("extract", help="extract geometric factors")
    common(e, probes=True, knots=True)
    v = sub.add_parser("verify", help="verify the exponential factorization")
    common(v, probes=True, knots=True)
    i = sub.add_parser("identities", help="derive composite-factor identities")
    common(i)
    i.add_argument("--framing", action="store_true",
                   help="extend the basis by the framing element")
    return parser


_COMMANDS = {
    "dims": cmd_dims,
    "basis": cmd_basis,
    "weight": cmd_weight,
    "jones": cmd_jones,
    "homfly": cmd_homfly,
    "extract": cmd_extract,
    "verify": cmd_verify,
    "identities": cmd_identities,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
