import importlib
import pathlib
import random
import re
from fractions import Fraction

import pytest

from vassiliev.basis import (
    BasisChangeMatrix,
    CanonicalBasis,
    _code_version,
    _composites,
    _digest,
    _serialize_body,
    cached_basis,
    coordinates,
    divides,
    is_valid_sum,
    load_basis,
    save_basis,
    shared_basis,
    transform_alphas,
    validate_basis_change,
)
from vassiliev.diagrams import (
    EMPTY,
    Diagram,
    canonicalize,
    chord_diagram,
    has_isolated_chord,
    product,
    random_diagram,
    serialize,
)
from vassiliev.linalg import determinant, solve_dense
from vassiliev.relations import quotient_space, stu

TRIPOD = Diagram(3, 1, [(0, 3), (1, 4), (2, 5)])


@pytest.fixture(scope="module")
def loaded5(tmp_path_factory, basis5):
    path = str(tmp_path_factory.mktemp("cache") / "basis-deg5.txt")
    save_basis(basis5, path)
    return load_basis(path)


def test_basis_counts(basis6):
    assert [basis6.d(i) for i in range(7)] == [1, 0, 1, 1, 3, 4, 9]
    assert [basis6.d_hat(i) for i in range(2, 7)] == [1, 1, 2, 3, 5]


def test_basis_degree6_elements_pinned(basis6):
    # which connected diagrams the selection picks, and in what order
    expected = pathlib.Path(__file__).parent / "data" / "basis6_body.txt"
    assert _serialize_body(6, basis6.by_degree) == expected.read_text()


def test_basis_degree7_acceptance(basis7):
    # Bar-Natan's table: d_7 = 14, d-hat_7 = 8; the degree-7 picks are
    # pinned as the degree-6 ones are, and extend them unchanged
    assert [basis7.d(i) for i in range(8)] == [1, 0, 1, 1, 3, 4, 9, 14]
    assert [basis7.d_hat(i) for i in range(2, 8)] == [1, 1, 2, 3, 5, 8]
    data = pathlib.Path(__file__).parent / "data"
    body7 = (data / "basis7_body.txt").read_text()
    assert _serialize_body(7, basis7.by_degree) == body7
    # past the two header lines, degrees 0..6 are the degree-6 body
    body6 = (data / "basis6_body.txt").read_text()
    assert body7.split("\n", 2)[2].startswith(body6.split("\n", 2)[2])


def test_basis_ordering_connected_first(basis6):
    for i in range(2, 7):
        kinds = [e.connected for e in basis6.elements(i)]
        # no connected element after a composite
        assert kinds == sorted(kinds, reverse=True)


def test_basis_composites_multiply_correctly(basis6):
    conn = {}
    for i in range(2, 7):
        for e in basis6.connected(i):
            conn[(i, e.index)] = e.diagram
    for i in range(4, 7):
        for e in basis6.composites(i):
            prod = EMPTY
            for label in e.components:
                prod = product(prod, conn[label])
            assert canonicalize(prod).diagram == e.diagram


def test_basis_degree4_structure(basis6):
    assert len(basis6.connected(4)) == 2
    comps = basis6.composites(4)
    assert len(comps) == 1
    assert comps[0].components == ((2, 0), (2, 0))


def test_basis_degree6_partition_structure(basis6):
    multisets = sorted(tuple(e.components) for e in basis6.composites(6))
    assert multisets == [
        ((2, 0), (2, 0), (2, 0)),
        ((2, 0), (4, 0)),
        ((2, 0), (4, 1)),
        ((3, 0), (3, 0)),
    ]


def test_basis_elements_independent_and_spanning(basis6):
    for i in range(2, 7):
        space = quotient_space(i, True)
        from vassiliev.linalg import SparseEliminator

        elim = SparseEliminator()
        for e in basis6.elements(i):
            assert elim.add_row(dict(space.residual(e.diagram)))
        assert elim.rank == space.dimension


def test_coordinates_unit_vectors(basis5):
    for i in (2, 3, 4, 5):
        for e in basis5.elements(i):
            c = coordinates(e.diagram, basis5)
            assert c.values == tuple(
                Fraction(int(j == e.index)) for j in range(basis5.d(i)))


def test_coordinates_tripod(basis5):
    c = coordinates(TRIPOD, basis5)
    assert c.values == (Fraction(1),)  # the tripod is the degree-2 element


def test_coordinates_reject_isolated_chord(basis5, loaded5):
    for basis in (basis5, loaded5):
        with pytest.raises(ValueError):
            coordinates(chord_diagram([(0, 1)]), basis)


def test_coordinates_random_consistency(basis5):
    # residual check: d - sum(c_j b_j) lies in the relation span
    rng = random.Random(31)
    space_cache = {}
    done = 0
    while done < 15:
        d = random_diagram(rng, rng.randint(2, 5))
        if has_isolated_chord(d):
            continue
        c = coordinates(d, basis5)
        i = d.degree
        space = space_cache.setdefault(i, quotient_space(i, True))
        vec = dict(space.residual(d))
        for val, e in zip(c.values, basis5.elements(i)):
            for col, x in space.residual(e.diagram).items():
                w = vec.get(col, Fraction(0)) - val * x
                if w:
                    vec[col] = w
                elif col in vec:
                    del vec[col]
        assert not vec
        done += 1


def test_coordinates_degree6_unit_vectors(basis6):
    for e in basis6.elements(6):
        c = coordinates(e.diagram, basis6)
        assert c.values == tuple(
            Fraction(int(j == e.index)) for j in range(basis6.d(6)))


def _dense_coordinates(d, basis):
    """Coordinates by one dense solve over the target's and the basis
    residuals' joint support, per diagram."""
    i = d.degree
    space = quotient_space(i, True)
    target = space.residual(d)
    cols = [space.residual(e.diagram) for e in basis.elements(i)]
    support = sorted(set(target) | {c for col in cols for c in col})
    matrix = [[col.get(s, Fraction(0)) for col in cols] for s in support]
    return tuple(solve_dense(
        matrix, [target.get(s, Fraction(0)) for s in support]))


def test_coordinates_degree6_match_dense_solve(basis6):
    # the per-degree inverse against a dense solve per diagram, on
    # seeded degree-6 diagrams with 0-10 vertices
    rng = random.Random(37)
    seen = set()
    done = 0
    while done < 60:
        d = random_diagram(rng, 6)
        if has_isolated_chord(d):
            continue
        assert coordinates(d, basis6).values == _dense_coordinates(d, basis6)
        seen.add(d.vertices)
        done += 1
    assert max(seen) >= 9


def test_coordinates_use_no_dense_elimination(monkeypatch):
    # coordinates are one sparse reduction: a fresh basis (no cached
    # eliminator) never reaches the dense Gauss-Jordan kernel
    from vassiliev.basis import canonical_basis

    def refuse(*args, **kwargs):
        raise AssertionError("coordinates called the dense rref")

    basis = canonical_basis(4)
    monkeypatch.setattr("vassiliev.linalg.rref", refuse)
    for i in (2, 3, 4):
        for e in basis.elements(i):
            assert coordinates(e.diagram, basis).values == tuple(
                Fraction(int(j == e.index)) for j in range(basis.d(i)))
    assert coordinates(TRIPOD, basis).values == (Fraction(1),)


def test_coordinates_degree7(basis7):
    # unit vectors for the 14 elements, and seeded degree-7 diagrams
    # with 0-11 vertices against a dense solve per diagram
    assert basis7.d(7) == 14
    for e in basis7.elements(7):
        assert coordinates(e.diagram, basis7).values == tuple(
            Fraction(int(j == e.index)) for j in range(14))
    rng = random.Random(41)
    seen = set()
    while len(seen) < 12:
        d = random_diagram(rng, 7)
        if has_isolated_chord(d) or d.vertices > 11 or d.vertices in seen:
            continue
        assert coordinates(d, basis7).values == _dense_coordinates(d, basis7)
        seen.add(d.vertices)
    assert seen == set(range(12))


def test_coordinates_dependent_basis_raises_runtime_error(basis5):
    # a degree whose elements are dependent has no inverse: the
    # coordinates fail as "not in the basis span", not with linalg's
    # ValueError
    elems = list(basis5.elements(4))
    elems[1] = elems[0]
    broken = CanonicalBasis(4, {**{i: basis5.elements(i) for i in range(4)},
                                4: elems}, "")
    with pytest.raises(RuntimeError, match="not in the basis span"):
        coordinates(basis5.element(4, 2).diagram, broken)


def test_coordinates_off_span_raises_runtime_error(basis5, monkeypatch):
    # a class holding a quotient column that the basis rows do not reach
    # (a pivot column of the 4T elimination, which no true residual
    # holds) is refused, not given coordinates
    d = basis5.element(4, 0).diagram
    coordinates(d, basis5)  # builds the degree's basis eliminator
    space = quotient_space(4, True)
    col = min(space.eliminator.pivots)
    monkeypatch.setattr(type(space), "residual",
                        lambda self, s: {col: Fraction(1)})
    with pytest.raises(RuntimeError, match="not in the basis span"):
        coordinates(d, basis5)


def test_coordinates_weight_cross_oracle(basis5):
    # two independent routes to the same value: evaluating the diagram
    # directly, and combining its coordinates with the basis elements'
    # weights (the framing-corrected evaluator descends to the quotient)
    from vassiliev.laurent import Laurent1
    from vassiliev.weights import weight_sun_deframed

    rng = random.Random(33)
    done = 0
    while done < 12:
        d = random_diagram(rng, rng.randint(2, 5))
        if has_isolated_chord(d):
            continue
        c = coordinates(d, basis5)
        combo = Laurent1.zero("N")
        for val, e in zip(c.values, basis5.elements(d.degree)):
            combo = combo + weight_sun_deframed(e.diagram) * val
        assert combo == weight_sun_deframed(d)
        done += 1


def test_divides_examples(basis6):
    g2 = basis6.element(2, 0).diagram
    g3 = basis6.element(3, 0).diagram
    square = product(g2, g2)
    assert divides(g2, square)
    assert divides(EMPTY, square)
    assert not divides(g3, square)
    assert divides(g2, product(g2, g3))
    assert not divides(square, g2)


def test_is_valid_sum_stu_pair():
    terms = list(stu(TRIPOD, 0).terms)
    assert is_valid_sum(terms[0], terms[1])
    assert is_valid_sum(terms[1], terms[0])  # symmetric


def test_is_valid_sum_resolution_pair():
    # a three-spoke wheel resolves into connected terms, so parent and
    # term share one STU relation with the component count conserved
    wheel = Diagram(3, 3, [
        (0, 3), (1, 6), (2, 9),
        (4, 8), (7, 11), (10, 5),
    ])
    terms = list(stu(wheel, 0).terms)
    from vassiliev.diagrams import decompose

    for term in terms:
        if len(decompose(term).components) == 1:
            assert is_valid_sum(wheel, term)


def test_is_valid_sum_component_count_filter():
    # parent connected, resolutions disconnected: never a valid pair
    for term in stu(TRIPOD, 0).terms:
        assert not is_valid_sum(TRIPOD, term)


def test_is_valid_sum_ihx_pair(basis6):
    from vassiliev.diagrams import decompose
    from vassiliev.relations import ihx, internal_edges

    found = 0
    for i in (3, 4):
        for elem in basis6.connected(i):
            d = elem.diagram
            for e in internal_edges(d):
                for term in ihx(d, e).terms:
                    if term != d and len(decompose(term).components) == 1:
                        assert is_valid_sum(d, term)
                        found += 1
    assert found > 0


def test_is_valid_sum_rejections(basis6):
    g2 = basis6.element(2, 0).diagram
    g3 = basis6.element(3, 0).diagram
    square = product(g2, g2)
    conn4 = basis6.element(4, 0).diagram
    assert not is_valid_sum(conn4, square)      # connected vs disconnected
    assert not is_valid_sum(g2, g3)             # different degrees
    assert not is_valid_sum(g2, g2)             # identical diagrams
    # different component counts at equal degree
    cube = product(product(g2, g2), g2)
    assert not is_valid_sum(cube, product(conn4, g2))


def test_valid_sum_component_count_conserved(basis6):
    g2 = basis6.element(2, 0).diagram
    g4a = basis6.element(4, 0).diagram
    g4b = basis6.element(4, 1).diagram
    d1 = product(g2, g4a)
    d2 = product(g2, g4b)
    if is_valid_sum(d1, d2):
        from vassiliev.diagrams import decompose

        assert len(decompose(d1).components) == len(decompose(d2).components)


def test_validate_basis_change_examples(basis6):
    ident = BasisChangeMatrix.from_rows(4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = validate_basis_change(ident, basis6, 4)
    assert rep.valid and rep.det == 1

    perm = BasisChangeMatrix.from_rows(4, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert validate_basis_change(perm, basis6, 4).valid

    mixing = BasisChangeMatrix.from_rows(4, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    rep_bad = validate_basis_change(mixing, basis6, 4)
    assert not rep_bad.valid

    mixing2 = BasisChangeMatrix.from_rows(4, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert not validate_basis_change(mixing2, basis6, 4).valid

    singular = BasisChangeMatrix.from_rows(4, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert not validate_basis_change(singular, basis6, 4).valid


def test_validate_basis_change_det_factorizes(basis6):
    rng = random.Random(32)
    for _ in range(10):
        rows = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = Fraction(rng.randint(-4, 4))
        rows[2][2] = Fraction(rng.randint(-4, 4))
        m = BasisChangeMatrix.from_rows(4, rows)
        rep = validate_basis_change(m, basis6, 4)
        if rep.valid:
            assert rep.det == rep.det_connected * rep.det_composite
            a = [r[:2] for r in rows[:2]]
            assert rep.det_connected == determinant(a)


def test_transform_alphas_contravariant(basis6):
    m = BasisChangeMatrix.from_rows(4, [[2, 0, 0], [0, 1, 0], [0, 0, 3]])
    rep = validate_basis_change(m, basis6, 4)
    out = transform_alphas(rep, [Fraction(4), Fraction(5), Fraction(6)])
    assert out == [Fraction(2), Fraction(5), Fraction(2)]


def test_basis_cache_roundtrip(tmp_path):
    # the loader rebuilds the same basis, and saving it rewrites the file
    for max_degree in range(6):
        basis = shared_basis(max_degree)
        path = tmp_path / f"basis-deg{max_degree}.txt"
        save_basis(basis, str(path))
        again = load_basis(str(path))
        assert again.by_degree == basis.by_degree, max_degree
        assert again.version == basis.version, max_degree
        resaved = tmp_path / "resaved.txt"
        save_basis(again, str(resaved))
        assert resaved.read_bytes() == path.read_bytes(), max_degree


@pytest.mark.parametrize("old, new", [
    # four crossing chords: not connected
    ("| L=5 T=3 1-V1.1 2-V1.2 3-V2.1 4-V2.2 5-V3.1 V1.3-V3.2 V2.3-V3.3",
     "| L=8 T=0 1-5 2-6 3-7 4-8"),
    # the tripod with its slots rotated: not the canonical form
    ("| L=3 T=1 1-V1.1 2-V1.2 3-V1.3", "| L=3 T=1 1-V1.2 2-V1.3 3-V1.1"),
    # the tripod with its orientation reversed: sign -1
    ("| L=3 T=1 1-V1.1 2-V1.2 3-V1.3", "| L=3 T=1 1-V1.2 2-V1.1 3-V1.3"),
])
def test_basis_cache_refuses_connected_records(tmp_path, basis4, old, new):
    # with the version and checksum recomputed, the file is the one
    # save_basis would write, but a connected record must still hold a
    # connected canonical diagram of sign +1
    path = tmp_path / "basis.txt"
    save_basis(basis4, str(path))
    lines = path.read_text().replace(old, new, 1).splitlines()
    _resealed(path, lines)
    edited = next(ln for ln in lines if new in ln)
    with pytest.raises(ValueError, match=re.escape(repr(edited))):
        load_basis(str(path))


@pytest.mark.parametrize("max_degree", ["-1", "1000000000"])
def test_basis_cache_refuses_max_degree_without_lines(tmp_path, basis4,
                                                      monkeypatch, max_degree):
    # a cache has a line per degree, so a max-degree below 0 or past the
    # end of the file is refused before anything is assembled
    path = tmp_path / "basis.txt"
    save_basis(basis4, str(path))
    lines = path.read_text().splitlines()
    _resealed(path, lines[:4] + ["reduced: true", f"max-degree: {max_degree}",
                                 lines[-1]])

    def refuse(*args):
        raise AssertionError("load_basis assembled composites")

    monkeypatch.setattr("vassiliev.basis._composites", refuse)
    with pytest.raises(ValueError, match=f"'max-degree: {max_degree}'"):
        load_basis(str(path))


def test_basis_cache_refuses_more_elements_than_lines(tmp_path, basis4,
                                                      monkeypatch):
    # 20 tripod records and max-degree 10 ask for 210 composites at
    # degree 4 alone; the 27-line file is refused before they are built
    path = tmp_path / "basis.txt"
    save_basis(basis4, str(path))
    lines = path.read_text().splitlines()
    tripod = basis4.element(2, 0).diagram
    _resealed(path, lines[:4] + ["reduced: true", "max-degree: 10"] + [
        f"element 2 {k}: connected | 2.{k} | {serialize(tripod)}"
        for k in range(20)] + [lines[-1]])
    built = []

    def counted(connected_of, i):
        built.append(i)
        return _composites(connected_of, i)

    monkeypatch.setattr("vassiliev.basis._composites", counted)
    with pytest.raises(ValueError, match="'max-degree: 10'"):
        load_basis(str(path))
    assert built == [1, 2, 3]


def _resealed(path, lines: list[str]) -> None:
    """Write cache lines with the version and checksum their body gives,
    as save_basis would for the basis the connected records describe."""
    body = "".join(f"{ln}\n" for ln in lines[4:-1])
    lines[3] = f"version: {_digest(body + _code_version())}"
    lines[-1] = f"checksum: {_digest(body)}"
    path.write_text("".join(f"{ln}\n" for ln in lines))


def test_load_basis_builds_no_quotient_space(tmp_path, basis5, monkeypatch):
    path = str(tmp_path / "basis.txt")
    save_basis(basis5, path)

    def refuse(*args):
        raise AssertionError("load_basis built a quotient space")

    monkeypatch.setattr("vassiliev.basis.quotient_space", refuse)
    loaded = load_basis(path)
    assert loaded.by_degree == basis5.by_degree


def test_loaded_basis_coordinates_match_built(loaded5, basis5):
    # the loaded basis reads a degree's quotient on its first
    # `coordinates` call there; every coordinate matches the basis
    # that `canonical_basis` built
    rng = random.Random(37)
    for i in (2, 3, 4, 5):
        done = 0
        while done < 4:
            d = random_diagram(rng, i)
            if has_isolated_chord(d):
                continue
            assert coordinates(d, loaded5) == coordinates(d, basis5)
            done += 1


def test_basis_cache_rejects_other_code_version(tmp_path, basis4):
    path = tmp_path / "basis.txt"
    save_basis(basis4, str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines = ["code-version: 0000000000000000\n"
             if ln.startswith("code-version:") else ln for ln in lines]
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="different code version"):
        load_basis(str(path))


@pytest.mark.parametrize("module", ["diagrams", "relations", "linalg",
                                    "laurent", "basis"])
def test_basis_code_version_covers_module(tmp_path, monkeypatch, module):
    mod = importlib.import_module(f"vassiliev.{module}")
    before = _code_version()
    edited = tmp_path / f"{module}.py"
    edited.write_bytes(pathlib.Path(mod.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(mod, "__file__", str(edited))
    assert _code_version() != before


def test_basis_cache_rejects_corruption(tmp_path, basis4):
    path = tmp_path / "basis.txt"
    save_basis(basis4, str(path))
    path.write_text(path.read_text().replace("degree 2: d=1", "degree 2: d=2"))
    with pytest.raises(ValueError):
        load_basis(str(path))


def test_cached_basis_rejects_other_degree(tmp_path, basis4):
    save_basis(basis4, str(tmp_path / "basis-deg6.txt"))
    with pytest.raises(ValueError, match="holds a degree-4 basis, "
                       "not degree 6"):
        cached_basis(6, str(tmp_path))
    assert cached_basis(4, str(tmp_path)).by_degree == basis4.by_degree
