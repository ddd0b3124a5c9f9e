"""Bundled knot table.

PD codes for all prime knots up to 7 crossings (all two-bridge), four
rational 8-crossing knots, the (3,4) torus knot 8_19, and the granny
and square composites.  Every entry was generated by the constructors
in `knots` (rational tangles, braid closures, connected sums) and is
validated in the test suite against crossing number, determinant and,
where applicable, amphichirality.

Chirality convention: the bundled 3_1 is the variant with
jones = -t^-4 + t^-3 + t^-1.  A trailing '!' on a name requests the
mirror image (e.g. '3_1!').
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from .knots import PlanarDiagram, parse_pd


@dataclass(frozen=True)
class KnotRecord:
    name: str
    crossings: int
    determinant: int
    construction: str
    diagram: PlanarDiagram


@functools.cache
def table() -> dict[str, KnotRecord]:
    out: dict[str, KnotRecord] = {}
    data = resources.files("vassiliev").joinpath("data/knots.txt").read_text()
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, n, det, construction, pd = [p.strip() for p in line.split("|")]
        out[name] = KnotRecord(name, int(n), int(det), construction,
                               parse_pd(pd))
    return out


def knot_names() -> list[str]:
    return sorted(table(), key=lambda s: (len(s.split("_")[0]), s))


def knot(name: str) -> PlanarDiagram:
    """Look up a bundled knot; 'name!' gives the mirror image."""
    name = name.strip()
    if name in ("unknot",):
        name = "0_1"
    mirrored = name.endswith("!")
    rec = table().get(name[:-1] if mirrored else name)
    if rec is None:
        raise ValueError(f"unknown knot {name!r}; available: "
                         + ", ".join(knot_names()))
    return rec.diagram.mirror() if mirrored else rec.diagram
