"""Canonical bases of group factors.

A canonical basis at degree i lists first a set of connected diagrams
and then all products of connected elements of lower degrees (one per
multiset); together they are independent and span the reduced quotient.
Connected representatives are chosen deterministically: candidates are
enumerated by increasing internal-vertex count and, within one count,
by canonical code; the first diagrams independent of everything chosen
so far are taken.

Also here: coordinates in a basis, divisibility of diagrams, the valid
two-term sums of the diagram arithmetic, validation of changes of
canonical basis (block structure and non-singularity), and the basis
cache, whose loader reads only the connected choice, rebuilds the rest
with the same assembly and accepts only the text `save_basis` writes.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import diagrams as _diagrams_mod
from . import laurent as _laurent_mod
from . import linalg as _linalg_mod
from . import relations as _relations_mod
from .diagrams import (
    EMPTY,
    Diagram,
    SignedDiagram,
    _moved,
    canonicalize,
    component_multiset,
    connected_diagrams,
    decompose,
    has_isolated_chord,
    parse,
    product_all,
    serialize,
)
from .knots import _check_degree_budget
from .linalg import SparseEliminator, determinant, invert
from .relations import (
    ihx,
    internal_edges,
    quotient_space,
    reduce_to_chords,
    stu,
)


@dataclass(frozen=True)
class BasisElement:
    degree: int
    index: int
    diagram: Diagram
    components: tuple  # sorted tuple of (degree, connected_index); () = unit

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def composite(self) -> bool:
        return len(self.components) > 1

    @property
    def kind(self) -> str:
        return ("unit" if not self.components
                else "connected" if self.connected else "composite")


@dataclass(frozen=True)
class Coordinates:
    degree: int
    values: tuple[Fraction, ...]


class CanonicalBasis:
    """Per-degree ordered element lists, connected elements first.

    A basis holds only its elements; the quotient it spans is the
    degree's `quotient_space`, which `coordinates` reads on first use
    at that degree, whether the basis was built or loaded.
    """

    def __init__(self, max_degree: int, by_degree: dict[int, list[BasisElement]],
                 version: str):
        self.max_degree = max_degree
        self.by_degree = by_degree
        self.version = version

    def elements(self, degree: int) -> list[BasisElement]:
        return self.by_degree[degree]

    def connected(self, degree: int) -> list[BasisElement]:
        return [e for e in self.by_degree[degree] if e.connected]

    def composites(self, degree: int) -> list[BasisElement]:
        return [e for e in self.by_degree[degree] if e.composite]

    def d(self, degree: int) -> int:
        return len(self.by_degree[degree])

    def d_hat(self, degree: int) -> int:
        return len(self.connected(degree))

    def element(self, degree: int, index: int) -> BasisElement:
        return self.by_degree[degree][index]


def _code_version() -> str:
    """Hash of the source that decides which basis gets built."""
    h = hashlib.sha256()
    for path in (_diagrams_mod.__file__, _relations_mod.__file__,
                 _linalg_mod.__file__, _laurent_mod.__file__, __file__):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def multisets_up_to(labels, max_degree: int) -> list[tuple]:
    """All multisets of (degree, index) labels with total degree <=
    max_degree, the empty one included, sorted by (degree, multiset).

    `labels` must be sorted; each multiset is a sorted tuple.
    """
    out = [()]

    def rec(start: int, remaining: int, chosen: list):
        for k in range(start, len(labels)):
            deg = labels[k][0]
            if deg > remaining:
                continue
            chosen.append(labels[k])
            out.append(tuple(chosen))
            rec(k, remaining - deg, chosen)
            chosen.pop()

    rec(0, max_degree, [])
    return sorted(out, key=lambda m: (sum(label[0] for label in m), m))


def _composites(connected_of: dict, i: int) -> list[tuple[tuple, Diagram]]:
    """One canonical product per multiset of at least two connected
    labels of total degree i, in `multisets_up_to` order."""
    return [(m, canonicalize(product_all(connected_of[k] for k in m)).diagram)
            for m in multisets_up_to(list(connected_of), i)
            if len(m) > 1 and sum(label[0] for label in m) == i]


def _assembled(max_degree: int, choose, limit=None) -> CanonicalBasis:
    """The basis whose degree-i elements are the connected diagrams
    `choose(i, composites)` followed by the degree's composites, with
    the version hashed from its cache body and `_code_version()`;
    ValueError before composites would bring the elements past `limit`."""
    by_degree = {0: [BasisElement(0, 0, EMPTY, ())]}
    # connected labels (degree, index) in ascending order -> diagram
    connected_of: dict[tuple[int, int], Diagram] = {}
    for i in range(1, max_degree + 1):
        # label multisets by total degree: elements so far, composites at i
        ways = [1] + [0] * i
        for d, _ in connected_of:
            for total in range(d, i + 1):
                ways[total] += ways[total - d]
        if limit is not None and sum(ways) > limit:
            raise ValueError(f"degree {i}: more than {limit} elements")
        composites = _composites(connected_of, i)
        picks = choose(i, composites)
        connected = [(((i, k),), d) for k, d in enumerate(picks)]
        connected_of.update((m[0], d) for m, d in connected)
        by_degree[i] = [BasisElement(i, k, d, m) for k, (m, d)
                        in enumerate(connected + composites)]
    return CanonicalBasis(max_degree, by_degree, _digest(
        _serialize_body(max_degree, by_degree) + _code_version()))


def canonical_basis(max_degree: int) -> CanonicalBasis:
    """Build the canonical basis of the reduced quotient up to max_degree.

    Aborts with a diagnostic if the products of lower-degree connected
    elements fail to stay independent, or if connected candidates cannot
    fill the remaining dimensions -- either event would contradict the
    composition structure of the basis.  Refused above the quotient
    degree budget before any work.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    _check_degree_budget(max_degree)

    def choose(i: int, composites) -> list[Diagram]:
        space = quotient_space(i, True)
        elim = SparseEliminator()
        for multiset, diag in composites:
            if not elim.add_row(space.residual(diag)):
                raise RuntimeError(
                    f"degree {i}: composite {multiset} is linearly dependent "
                    "on earlier products; canonical-basis composition fails")
        quota = space.dimension - len(composites)
        if quota < 0:
            raise RuntimeError(
                f"degree {i}: more composites ({len(composites)}) than "
                f"dimensions ({space.dimension})")

        picks: list[Diagram] = []
        T = i - 1
        while len(picks) < quota and T <= 2 * i - 2:
            for cand in connected_diagrams(i, T):
                if elim.add_row(space.residual(cand)):
                    picks.append(cand)
                    if len(picks) == quota:
                        break
            T += 1
        if len(picks) < quota:
            raise RuntimeError(
                f"degree {i}: found only {len(picks)} independent connected "
                f"diagrams, need {quota}")
        return picks

    return _assembled(max_degree, choose)


@functools.cache
def shared_basis(max_degree: int) -> CanonicalBasis:
    return canonical_basis(max_degree)


# --------------------------------------------------------------------------
# coordinates


_OFF_SPAN = ("diagram class not in the basis span; the basis construction "
             "is inconsistent")


def coordinates(d: Diagram, basis: CanonicalBasis) -> Coordinates:
    """Exact coordinates of a diagram in the basis at its degree.

    With the degree's quotient residuals in columns below `tags`, the
    basis eliminator holds [R | -I]: row j is element j's residual with
    -1 in column tags + j.  Reducing d's residual r against it leaves
    (0 | c) exactly when r = sum(c_j * R_j), that is, when d -
    sum(c_j * element_j) lies in the span of the degree's relations; a
    surviving quotient column means d is off the basis span.
    """
    i = d.degree
    if i > basis.max_degree:
        raise ValueError(f"degree {i} exceeds basis degree {basis.max_degree}")
    if has_isolated_chord(d):
        raise ValueError("diagram has an isolated chord; it is zero in the "
                         "reduced quotient spanned by the basis")
    space = quotient_space(i, True)
    tags = len(space.diagrams)
    res = _basis_eliminator(basis, i).reduce(space.residual(d))
    if any(c < tags for c in res):
        raise RuntimeError(_OFF_SPAN)
    return Coordinates(i, tuple(res.get(tags + j, Fraction(0))
                                for j in range(basis.d(i))))


@functools.cache
def _basis_eliminator(basis: CanonicalBasis, degree: int) -> SparseEliminator:
    """Eliminator of the rows [R | -I] of a degree's basis elements,
    which must pivot on quotient columns only and fill the quotient."""
    space = quotient_space(degree, True)
    tags = len(space.diagrams)
    elim = SparseEliminator()
    for j, e in enumerate(basis.elements(degree)):
        elim.add_row({**space.residual(e.diagram), tags + j: -1})
    if any(c >= tags for c in elim.pivots) or elim.rank != space.dimension:
        raise RuntimeError(_OFF_SPAN)
    return elim


# --------------------------------------------------------------------------
# diagram arithmetic: divisibility and valid sums


def divides(d1: Diagram, d2: Diagram) -> bool:
    """True if d1's connected components embed in d2's (as multisets)."""
    from collections import Counter

    c1 = Counter(component_multiset(d1))
    c2 = Counter(component_multiset(d2))
    return all(c2[k] >= v for k, v in c1.items())


def _leg_swap(d: Diagram, p: int, q: int) -> Diagram:
    image = list(range(len(d.partner)))
    image[p], image[q] = q, p
    return Diagram(d.legs, d.vertices, _moved(d, image))


def _stu_mates(d: Diagram) -> set[Diagram]:
    """Diagrams appearing with d in some STU relation."""
    out: set[Diagram] = set()
    L = d.legs
    # resolutions of d (d as the vertex term)
    for a, b in enumerate(d.partner[:L]):
        if b >= L:
            out.update(stu(d, (b - L) // 3, a).terms)
    # adjacent-leg transpositions (d as one of the two resolved terms)
    for p in range(L):
        q = (p + 1) % L
        if p != q:
            sd = canonicalize(_leg_swap(d, p, q))
            if sd.sign != 0:
                out.add(sd.diagram)
    return out


def _ihx_mates(d: Diagram) -> set[Diagram]:
    """Diagrams appearing with d in some IHX relation."""
    out: set[Diagram] = set()
    for e in internal_edges(d):
        for term in ihx(d, e).terms:
            out.add(term)
    return out


def _valid_sum_connected(c1: Diagram, c2: Diagram) -> bool:
    if c1 == c2:
        return False
    if c2 in _stu_mates(c1) or c1 in _stu_mates(c2):
        return True
    if c2 in _ihx_mates(c1) or c1 in _ihx_mates(c2):
        return True
    return False


def is_valid_sum(d1: Diagram, d2: Diagram) -> bool:
    """Whether d1 +/- d2 is interpretable as a single diagram.

    True exactly when the two diagrams have equal degree, the same
    number of components (valid combinations conserve the component
    count, so connected and disconnected diagrams never mix), and
    either they appear together in some STU or IHX relation, or they
    are non-overlapping and differ in a single component with the
    differing components so related.
    """
    s1, s2 = canonicalize(d1), canonicalize(d2)
    if s1.diagram.degree != s2.diagram.degree:
        return False
    if s1.diagram == s2.diagram:
        return False
    r1, r2 = decompose(s1.diagram), decompose(s2.diagram)
    if len(r1.components) != len(r2.components):
        return False
    if _valid_sum_connected(s1.diagram, s2.diagram):
        return True
    if len(r1.components) == 1 or r1.overlapping or r2.overlapping:
        return False
    from collections import Counter

    m1 = Counter(canonicalize(c.diagram).diagram for c in r1.components)
    m2 = Counter(canonicalize(c.diagram).diagram for c in r2.components)
    only1 = list((m1 - m2).elements())
    only2 = list((m2 - m1).elements())
    if len(only1) != 1 or len(only2) != 1:
        return False
    return _valid_sum_connected(only1[0], only2[0])


# --------------------------------------------------------------------------
# changes of canonical basis


@dataclass(frozen=True)
class BasisChangeMatrix:
    """Change of basis at one degree, connected-first ordering.

    Column j expands the new element j in the old basis; the leading
    d-hat columns/rows are the connected block.
    """

    degree: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, degree: int, rows) -> "BasisChangeMatrix":
        return cls(degree, tuple(tuple(Fraction(v) for v in r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BasisChangeReport:
    degree: int
    valid: bool
    reasons: tuple[str, ...]
    det: Fraction
    det_connected: Fraction | None
    det_composite: Fraction | None
    alpha_transform: tuple[tuple[Fraction, ...], ...] | None


def validate_basis_change(m: BasisChangeMatrix, basis: CanonicalBasis,
                          degree: int) -> BasisChangeReport:
    """Check a proposed change of canonical basis at one degree.

    Valid changes never mix connected and composite elements (both
    off-diagonal blocks vanish) and must be non-singular; the report
    carries the contravariant transformation of the geometric factors
    (the inverse matrix) when valid.
    """
    d_i = basis.d(degree)
    dhat = basis.d_hat(degree)
    rows = [list(r) for r in m.entries]
    if len(rows) != d_i or any(len(r) != d_i for r in rows):
        raise ValueError(f"matrix must be {d_i}x{d_i} at degree {degree}")
    reasons = []
    block_b = [rows[i][j] for i in range(dhat) for j in range(dhat, d_i)]
    block_c = [rows[i][j] for i in range(dhat, d_i) for j in range(dhat)]
    if any(v != 0 for v in block_b):
        reasons.append("connected block leaks into composite columns (B != 0)")
    if any(v != 0 for v in block_c):
        reasons.append("composite block leaks into connected columns (C != 0)")
    det = determinant(rows)
    if det == 0:
        reasons.append("matrix is singular")
    det_a = det_d = None
    alpha_transform = None
    if not reasons:
        a_block = [r[:dhat] for r in rows[:dhat]]
        d_block = [r[dhat:] for r in rows[dhat:]]
        det_a = determinant(a_block) if dhat else Fraction(1)
        det_d = determinant(d_block) if d_i > dhat else Fraction(1)
        assert det == det_a * det_d
        inv = invert(rows)
        # the inverse of a valid change is block diagonal as well
        for i in range(dhat):
            for j in range(dhat, d_i):
                assert inv[i][j] == 0 and inv[j][i] == 0
        alpha_transform = tuple(tuple(r) for r in inv)
    return BasisChangeReport(degree, not reasons, tuple(reasons), det,
                             det_a, det_d, alpha_transform)


def transform_alphas(report: BasisChangeReport,
                     alphas: list[Fraction]) -> list[Fraction]:
    """Contravariant transport of geometric factors under a valid change."""
    if not report.valid:
        raise ValueError("cannot transform along an invalid basis change")
    inv = report.alpha_transform
    n = len(inv)
    if len(alphas) != n:
        raise ValueError("coefficient vector has the wrong length")
    return [sum((inv[j][k] * alphas[k] for k in range(n)), Fraction(0))
            for j in range(n)]


# --------------------------------------------------------------------------
# plain-text basis cache


def _serialize_body(max_degree: int, by_degree: dict[int, list[BasisElement]]) -> str:
    lines = [f"reduced: true", f"max-degree: {max_degree}"]
    for i in range(max_degree + 1):
        elems = by_degree[i]
        dhat = sum(1 for e in elems if e.connected)
        lines.append(f"degree {i}: d={len(elems)} dhat={dhat}")
        for e in elems:
            comps = " ".join(f"{a}.{b}" for a, b in e.components)
            lines.append(f"element {i} {e.index}: {e.kind} | {comps} | "
                         f"{serialize(e.diagram)}")
    return "\n".join(lines) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cache_text(basis: CanonicalBasis) -> str:
    body = _serialize_body(basis.max_degree, basis.by_degree)
    return (f"# canonical basis cache\nformat: 1\n"
            f"code-version: {_code_version()}\nversion: {basis.version}\n"
            f"{body}checksum: {_digest(body)}\n")


def save_basis(basis: CanonicalBasis, path: str) -> None:
    """Write the plain-text cache file (stable across runs)."""
    with open(path, "w") as fh:
        fh.write(_cache_text(basis))


# a connected element record: its degree, index and diagram
_CONNECTED = re.compile(r"element ([0-9]+) ([0-9]+): connected \| [^|]* \| (.*)")


def load_basis(path: str) -> CanonicalBasis:
    """Load and verify a cache file; stale or corrupt caches are rejected.

    After the format, code-version and checksum checks only the
    connected element records are read; each must hold a connected
    canonical diagram (sign +1) of its degree, at most max-degree, and
    the next index.  `canonical_basis`'s assembly rebuilds the rest, up
    to one element per line of the file, and the file must be the text
    `save_basis` writes for the result: the first body line that
    differs, else the version, is named.  Elements are STU-expanded
    into chord diagrams here; a degree's 4T quotient is built on its
    first `coordinates`.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["# canonical basis cache"]:
        raise ValueError(f"{path}: not a basis cache file")
    if lines[1:2] != ["format: 1"]:
        raise ValueError(f"{path}: unsupported cache format")
    if lines[2:3] != [f"code-version: {_code_version()}"]:
        raise ValueError(f"{path}: cache written by a different code version; "
                         "rebuild the basis")
    body = "".join(f"{ln}\n" for ln in lines[4:-1])
    if lines[-1] != f"checksum: {_digest(body)}":
        raise ValueError(f"{path}: checksum mismatch, cache is corrupt")

    picks: dict[int, list[Diagram]] = {}
    ln = lines[5] if len(lines) > 5 else ""
    try:
        max_degree = int(ln.removeprefix("max-degree: "))
        if not 0 <= max_degree < len(lines):
            raise ValueError
        for ln in lines[6:-1]:
            record = _CONNECTED.fullmatch(ln)
            if record:
                d = parse(record[3])
                if not (d.degree == int(record[1]) <= max_degree
                        and int(record[2]) == len(picks.get(d.degree, []))
                        and len(decompose(d).components) == 1
                        and canonicalize(d) == SignedDiagram(d, 1)):
                    raise ValueError
                picks.setdefault(d.degree, []).append(d)
            elif not ln.startswith(("element ", "degree ")):
                raise ValueError
        ln = lines[5]  # more elements than lines: max-degree is at fault
        basis = _assembled(max_degree, lambda i, _: picks.get(i, []),
                           len(lines))
        want = _cache_text(basis).splitlines()
        for ln, w in zip_longest(lines[4:] + lines[:4], want[4:] + want[:4]):
            if ln != w:
                raise ValueError
    except ValueError as exc:
        raise ValueError(f"{path}: malformed line {ln!r}") from exc
    # fills the STU-expansion cache that weights and coordinates read
    for elems in basis.by_degree.values():
        for e in elems:
            reduce_to_chords(e.diagram)
    return basis


def basis_cache_path(cache_dir: str, max_degree: int) -> str:
    return os.path.join(cache_dir, f"basis-deg{max_degree}.txt")


def cached_basis(max_degree: int, cache_dir: str | None) -> CanonicalBasis:
    """Load the basis from the cache directory, else build and store it."""
    if cache_dir is None:
        return shared_basis(max_degree)
    os.makedirs(cache_dir, exist_ok=True)
    path = basis_cache_path(cache_dir, max_degree)
    if os.path.exists(path):
        basis = load_basis(path)
        if basis.max_degree != max_degree:
            raise ValueError(f"{path}: holds a degree-{basis.max_degree} "
                             f"basis, not degree {max_degree}")
        return basis
    basis = canonical_basis(max_degree)
    save_basis(basis, path)
    return basis
