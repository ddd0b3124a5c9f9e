import hashlib
import json
import pathlib
import random
import re
import subprocess
import sys

import pytest

from vassiliev.basis import save_basis, shared_basis
from vassiliev.cli import WEIGHT_BUDGET, main
from vassiliev.diagrams import (
    chord_diagram,
    connected_diagrams,
    product_all,
    random_diagram,
    serialize,
)
from vassiliev.knots import (
    BRACKET_CROSSING_BUDGET,
    COMPONENT_BUDGET,
    HOMFLY_CROSSING_BUDGET,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_text(capsys):
    code, out, _ = run_cli(capsys, "dims", "--max-degree", "3")
    assert code == 0
    assert "d: 1" in out and "degree: 3" in out


def test_dims_json_values(capsys):
    code, out, _ = run_cli(capsys, "dims", "--max-degree", "4",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    dims = {row["degree"]: (row["d"], row["d_hat"])
            for row in data["dimensions"]}
    assert dims == {0: (1, 0), 1: (0, 0), 2: (1, 1), 3: (1, 1), 4: (3, 2)}


def test_dims_unreduced(capsys):
    code, out, _ = run_cli(capsys, "dims", "--max-degree", "3",
                           "--unreduced", "--format", "json")
    assert code == 0
    data = json.loads(out)
    dims = {row["degree"]: row["d"] for row in data["dimensions"]}
    assert dims == {0: 1, 1: 1, 2: 2, 3: 3}


def test_jones_table_and_mirror(capsys):
    code, out, _ = run_cli(capsys, "jones", "--knot", "0_1")
    assert code == 0 and "jones: 1" in out
    code, out, _ = run_cli(capsys, "jones", "--knot", "3_1")
    assert code == 0 and "t^-1 + t^-3 - t^-4" in out
    code, out2, _ = run_cli(capsys, "jones", "--knot", "3_1!")
    assert code == 0 and "-t^4 + t^3 + t" in out2


def test_jones_inline_pd_and_braid(capsys):
    code, out, _ = run_cli(capsys, "jones", "--braid", "2:-1,-1,-1")
    assert code == 0 and "t^-1 + t^-3 - t^-4" in out
    pd = "X(6,3,1,4) X(2,5,3,6) X(4,1,5,2)"
    code, out2, _ = run_cli(capsys, "jones", "--pd", pd)
    assert code == 0 and "t^-1 + t^-3 - t^-4" in out2


def test_homfly_cmd(capsys):
    code, out, _ = run_cli(capsys, "homfly", "--knot", "4_1")
    assert code == 0 and "homfly:" in out


def test_weight_cmd(capsys):
    code, out, _ = run_cli(capsys, "weight",
                           "--diagram", "L=2 T=0 1-2")
    assert code == 0 and "1/2*N - 1/2*N^-1" in out
    code, out, _ = run_cli(capsys, "weight", "--diagram", "L=2 T=0 1-2",
                           "--rank", "2")
    assert code == 0 and "value: 3/4" in out


def test_weight_hostile_input_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "weight")
    assert code == 2 and not out
    assert "specify one of --diagram, --diagram-file" in err
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run_cli(capsys, "weight", "--diagram-file", str(empty))
    assert code == 2 and not out and "no diagram" in err
    # both sources given: the file would be ignored
    code, out, err = run_cli(capsys, "weight", "--diagram", "L=2 T=0 1-2",
                             "--diagram-file", str(empty))
    assert code == 2 and not out
    assert "specify one of --diagram, --diagram-file" in err
    # a second diagram line would be ignored
    two = tmp_path / "two.txt"
    two.write_text("L=2 T=0 1-2\nL=4 T=0 1-3 2-4\n")
    code, out, err = run_cli(capsys, "weight", "--diagram-file", str(two))
    assert code == 2 and not out and "one diagram" in err
    one = tmp_path / "one.txt"
    one.write_text("L=2 T=0 1-2\n")
    code, out, _ = run_cli(capsys, "weight", "--diagram-file", str(one))
    assert code == 0 and "1/2*N - 1/2*N^-1" in out
    for rank in ("0", "1", "-3"):
        code, out, err = run_cli(capsys, "weight", "--diagram", "L=2 T=0 1-2",
                                 "--rank", rank)
        assert code == 2 and not out, rank
        assert "rank must be at least 2" in err


def test_jones_even_component_link_rejected(capsys):
    code, out, err = run_cli(capsys, "jones", "--braid", "2:")
    assert code == 2 and not out
    assert "even number of components" in err and "t^(1/2)" in err


def test_basis_cmd_with_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "basis", "--max-degree", "3",
                           "--cache-dir", cache)
    assert code == 0 and "connected" in out
    # second run hits the cache and reports the same elements
    code, out2, _ = run_cli(capsys, "basis", "--max-degree", "3",
                            "--cache-dir", cache)
    assert code == 0 and out == out2


def test_extract_cmd(capsys):
    code, out, _ = run_cli(capsys, "extract", "--knot", "3_1",
                           "--max-degree", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"][0]["alphas"] == ["4"]
    assert data["degrees"][1]["alphas"] == ["8"]
    assert data["values"] == "exact-rational"


def test_verify_cmd_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--knot", "3_1",
                           "--max-degree", "3")
    assert code == 0
    assert "passed: True" in out


def test_verify_vacuous_degree_rejected(capsys):
    for max_degree in ("0", "1"):
        code, out, err = run_cli(capsys, "verify", "--knot", "3_1",
                                 "--max-degree", max_degree)
        assert code == 2, max_degree
        assert "passed" not in out
        assert "max_degree must be at least 2" in err


def test_identities_cmd(capsys):
    code, out, _ = run_cli(capsys, "identities", "--max-degree", "4")
    assert code == 0
    assert "1/2 * alpha:2:1^2" in out
    code, out2, _ = run_cli(capsys, "identities", "--max-degree", "3",
                            "--framing")
    assert code == 0
    assert "exp(n * C2 * x^1)" in out2


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "jones", "--knot", "17_99")
    assert code == 2 and err.startswith("error: unknown knot")
    code, _, _ = run_cli(capsys, "jones", "--knot", "3_1", "--pd", "X(1,2,3,4)")
    assert code == 2


@pytest.mark.parametrize("name, argv, fault", [
    ("extract_alphas", ["extract", "--knot", "3_1"],
     RuntimeError("inconsistent extraction system")),
    ("cached_basis", ["dims"], RecursionError()),
    ("homfly", ["homfly", "--knot", "3_1"], KeyError("not an input")),
])
def test_internal_faults_are_not_input_errors(capsys, monkeypatch, name,
                                              argv, fault):
    # only a ValueError or OSError is bad input (exit 2); a fault of the
    # program propagates to a traceback and prints no report
    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr(f"vassiliev.cli.{name}", fail)
    with pytest.raises(type(fault)):
        main(argv)
    assert not capsys.readouterr().out


def _rechecksummed(path, text: str, old: str | None = None) -> None:
    """Append the line `text` to the body of a basis cache file, or put
    `text` in place of the first `old` in the file, and re-checksum it,
    so that only the edit itself can be refused."""
    whole = pathlib.Path(path).read_text()
    lines = (whole.replace(old, text, 1) if old else whole).splitlines()[:-1]
    if old is None:
        lines.append(text)
    body = "\n".join(lines[4:]) + "\n"
    checksum = hashlib.sha256(body.encode()).hexdigest()
    pathlib.Path(path).write_text("\n".join(
        lines + [f"checksum: {checksum[:16]}"]) + "\n")


# a degree above the file's max-degree, no '|', a bad diagram field and
# a non-integer component label
@pytest.mark.parametrize("line", [
    "element 9 0: connected | 9.0 | L=2 T=0 1-2",
    "element 4 3: connected",
    "element 4 3: connected | 4.3 | L=2 T=0 1-2-3",
    "element 4 3: connected | x.y | L=2 T=0 1-2",
])
def test_malformed_cache_line_exit_2(tmp_path, capsys, line):
    cache = str(tmp_path)
    assert run_cli(capsys, "dims", "--cache-dir", cache)[0] == 0
    path = str(tmp_path / "basis-deg4.txt")
    _rechecksummed(path, line)
    code, out, err = run_cli(capsys, "dims", "--cache-dir", cache)
    assert code == 2 and not out
    assert err == f"error: {path}: malformed line {line!r}\n", err


@pytest.fixture(scope="module")
def cache4(tmp_path_factory):
    # the text `dims --cache-dir` writes for the default degree 4
    path = tmp_path_factory.mktemp("cache") / "basis-deg4.txt"
    save_basis(shared_basis(4), str(path))
    return path.read_text()


# the degree-4 elements 4.0 (connected) and 4.2 (composite 2.0 2.0)
_E40 = "L=5 T=3 1-V1.1 2-V1.2 3-V2.1 4-V2.2 5-V3.1 V1.3-V3.2 V2.3-V3.3"
_E42 = "L=6 T=2 1-V1.1 2-V1.2 3-V1.3 4-V2.1 5-V2.2 6-V2.3"


# each edit of the degree-4 cache is re-checksummed: (old, text) puts
# text in place of old, (None, line) appends a line
@pytest.mark.parametrize("old, text", [
    (None, "element 4 3: connected | 4.3 | L=2 T=0 1-2"),
    (None, f"element 4 3: composite | 2.5 2.5 | {_E42}"),
    ("element 2 0", "elemnt 2 0"),
    ("composite", "connected"),
    ("element 4 1", "element 4 5"),
    (f"2.0 2.0 | {_E42}", f"2.0 2.0 | {_E40}"),
    (f"4.0 | {_E40}", "4.0 | L=8 T=0 1-5 2-6 3-7 4-8"),
    ("dhat=2", "dhat=3"),
    ("\nversion: ", "\nversion: 0"),
    (f"4.0 | {_E40}\n",
     f"4.0 | {_E40}\nelement 4 0: connected | 4.0 | {_E40}\n"),
], ids=["chord-appended", "unknown-component", "elemnt", "kind", "index",
        "composite-swapped", "chord-replaced", "dhat", "version",
        "duplicated"])
@pytest.mark.parametrize("argv", [["dims"], ["basis"], ["identities"],
                                  ["extract", "--knot", "3_1"],
                                  ["verify", "--knot", "3_1"]],
                         ids=["dims", "basis", "identities", "extract",
                              "verify"])
def test_hostile_cache_exit_2(tmp_path, capsys, cache4, old, text, argv):
    # the loader accepts only the text save_basis writes for the basis
    # its connected records give
    assert old is None or old in cache4
    path = tmp_path / "basis-deg4.txt"
    path.write_text(cache4)
    _rechecksummed(path, text, old)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith(f"error: {path}: malformed line "), err


# an unread record (a damaged prefix) and a duplicated one change the
# basis the records give; the record is named, not a count or version
@pytest.mark.parametrize("old, text, named", [
    ("element 2 0", "elemnt 2 0",
     "elemnt 2 0: connected | 2.0 | L=3 T=1 1-V1.1 2-V1.2 3-V1.3"),
    (f"4.0 | {_E40}\n",
     f"4.0 | {_E40}\nelement 4 0: connected | 4.0 | {_E40}\n",
     f"element 4 0: connected | 4.0 | {_E40}"),
], ids=["elemnt", "duplicated"])
def test_hostile_cache_names_the_record(tmp_path, capsys, cache4, old, text,
                                        named):
    path = tmp_path / "basis-deg4.txt"
    path.write_text(cache4)
    _rechecksummed(path, text, old)
    code, out, err = run_cli(capsys, "dims", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: malformed line {named!r}\n", err


def test_fuzzed_cache_body_exit_2(tmp_path, capsys, cache4):
    # single-character edits of the body lines, each re-checksummed:
    # every edit that changes a line is refused, a no-op edit loads
    rng = random.Random(34)
    path = tmp_path / "basis-deg4.txt"
    body = cache4.splitlines()[4:-1]
    alphabet = sorted(set("".join(body)))
    for _ in range(150):
        line = rng.choice(body)
        k = rng.randrange(len(line))
        edited = rng.choice([line[:k] + rng.choice(alphabet) + line[k + 1:],
                             line[:k] + line[k + 1:],
                             line[:k] + rng.choice(alphabet) + line[k:]])
        path.write_text(cache4)
        _rechecksummed(path, f"\n{edited}\n", f"\n{line}\n")
        for command in ("dims", "basis", "identities"):
            code, out, err = run_cli(capsys, command,
                                     "--cache-dir", str(tmp_path))
            if edited == line:
                assert code == 0, (command, line)
            else:
                assert (code, out) == (2, ""), (command, line, edited)
                assert err.startswith(f"error: {path}: malformed line "), err


@pytest.mark.parametrize("argv", [["dims"], ["basis"], ["identities"],
                                  ["extract", "--knot", "3_1"]])
def test_cache_of_another_degree_exit_2(tmp_path, capsys, argv):
    cache = str(tmp_path)
    assert run_cli(capsys, "dims", "--cache-dir", cache)[0] == 0
    path = tmp_path / "basis-deg6.txt"
    path.write_text((tmp_path / "basis-deg4.txt").read_text())
    code, out, err = run_cli(capsys, *argv, "--max-degree", "6",
                             "--cache-dir", cache)
    assert code == 2 and not out
    assert err == f"error: {path}: holds a degree-4 basis, not degree 6\n"


def test_double_mirror_mark_is_unknown_knot(capsys):
    code, out, err = run_cli(capsys, "jones", "--knot", "3_1!!")
    assert code == 2 and not out
    assert err.startswith("error: unknown knot '3_1!!'"), err


def test_malformed_probes_exit_2(capsys):
    for command in ("extract", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--knot", "3_1", "--probes", "2,a"])
        assert exc.value.code == 2, command
        out, err = capsys.readouterr()
        assert not out and "<lambda>" not in err, err
        assert "argument --probes: '2,a' is not a comma-separated list" \
            in err, err


def test_link_extract_and_verify_exit_2(capsys):
    # a link's skein polynomial has no su(N) slice in Laurent q
    for command in ("extract", "verify"):
        code, out, err = run_cli(capsys, command, "--braid", "2:1,1",
                                 "--max-degree", "4")
        assert code == 2 and not out, command
        assert err.startswith("error: the su(N) slice needs a knot"), err


def test_pd_two_arc_component_read_from_under_strand(capsys):
    # each component's under strand orients it: the negative Hopf link
    code, out, err = run_cli(capsys, "homfly", "--pd", "X(1,4,2,3) X(3,2,4,1)")
    assert code == 0 and not err
    code, braid, _ = run_cli(capsys, "homfly", "--braid", "2:-1,-1")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("homfly:"))
    assert line == "homfly: -a^-1*z - a^-1*z^-1 + a^-3*z^-1"
    assert line in braid.splitlines()


def test_non_planar_pd_exit_2(capsys):
    # consistent labels and signs, but no planar drawing: its skein
    # value would have negative powers of z for a knot
    code, out, err = run_cli(capsys, "homfly", "--pd", "X(1,3,2,4) X(4,1,3,2)")
    assert code == 2 and not out
    assert err.startswith("error: ") and err.strip().endswith("not planar")


def test_reduced_flag_only_on_dims(capsys):
    # only `dims` has an unreduced reading; elsewhere the flag is unknown
    for argv in (["basis", "--unreduced"],
                 ["extract", "--knot", "3_1", "--unreduced"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert not out and "unrecognized arguments: --unreduced" in err


def test_negative_max_degree_exit_2(capsys):
    for command in ("dims", "basis", "identities"):
        for extra in ((), ("--unreduced",)):
            with pytest.raises(SystemExit) as exc:
                main([command, "--max-degree", "-1", *extra])
            assert exc.value.code == 2, (command, extra)
            out, err = capsys.readouterr()
            assert not out and "not a nonnegative integer" in err


def test_non_integer_labels_exit_2(capsys):
    # a label that is not an integer names the crossing or the braid
    # word, not int()'s parse error
    cases = [("homfly", "--pd", "X(a,b,c,d)",
              "error: malformed PD crossing: 'X(a,b,c,d)'"),
             ("homfly", "--pd", "X(1.5,2,3,4)",
              "error: malformed PD crossing: 'X(1.5,2,3,4)'"),
             ("jones", "--braid", "2:a", "error: malformed braid word: '2:a'"),
             ("jones", "--braid", "x:1", "error: malformed braid word: 'x:1'")]
    for command, flag, value, message in cases:
        code, out, err = run_cli(capsys, command, flag, value)
        assert (code, out, err.strip()) == (2, "", message)


def test_malformed_diagram_fields_exit_2(capsys):
    # a malformed field of --diagram is named, not int()'s parse error
    # or an unpacking error
    cases = [("L=2 T=0 1-x", "1-x"), ("L=x T=0", "L=x"),
             ("L=2 T=0 1-2-3", "1-2-3"), ("L=2 T=0 1", "1"),
             ("L=2 T=0 V1-2", "V1-2"), ("L=2 T=0 1-V1", "1-V1"),
             ("L=3 T=1 1-V1.1 2-V1.2 3-V1.4", "3-V1.4"),
             ("L=3 T=1 1-V1.1 2-V1.2 4-V1.3", "4-V1.3")]
    for text, field in cases:
        code, out, err = run_cli(capsys, "weight", "--diagram", text)
        assert (code, out, err.strip()) == \
            (2, "", f"error: malformed diagram field: {field!r}"), text


def test_empty_braid_word(capsys):
    code, out, err = run_cli(capsys, "homfly", "--braid", ",")
    assert code == 2 and not out and "strand count" in err
    code, out, _ = run_cli(capsys, "homfly", "--braid", "2:")
    assert code == 0 and "homfly: -a*z^-1 + a^-1*z^-1" in out


def test_empty_braid_letter_exit_2(capsys):
    # an empty letter is named, not dropped: '2:1,,1,1' is not the
    # trefoil '2:1,1,1'; blanks around or instead of commas still separate
    for word, k in (("2:1,,1,1", 2), ("1,,1", 2), ("2:1,1,", 3), ("2:,", 1)):
        code, out, err = run_cli(capsys, "jones", "--braid", word)
        assert (code, out, err.strip()) == \
            (2, "", f"error: empty letter {k} in braid word: {word!r}")
    for word in ("2:1,1,1", "2:1, 1 ,1", "2:1 1 1"):
        code, out, _ = run_cli(capsys, "jones", "--braid", word)
        assert code == 0 and "jones: -t^4 + t^3 + t" in out, word


def test_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "homfly", "--braid",
                           "2:" + ",".join(["1"] * 13))
    assert code == 3 and "budget" in err
    code, out, err = run_cli(capsys, "jones", "--braid", "2:" + ",".join(
        ["1"] * (BRACKET_CROSSING_BUDGET + 1)))
    assert code == 3 and not out and "budget" in err


def test_component_budget_exit_3(capsys):
    # an s:1 braid closes to s - 1 components, free loops included
    over = f"{COMPONENT_BUDGET + 2}:1"
    for command in ("homfly", "jones"):
        code, out, err = run_cli(capsys, command, "--braid", over)
        assert code == 3 and not out, command
        assert err.strip() == (f"error: {COMPONENT_BUDGET + 1} components "
                               f"exceed the component budget of "
                               f"{COMPONENT_BUDGET}")
    # at the limit: 100 components for homfly, and jones (which refuses
    # an even component count) 99
    code, out, _ = run_cli(capsys, "homfly", "--braid",
                           f"{COMPONENT_BUDGET + 1}:1")
    assert code == 0 and "homfly: " in out
    code, out, _ = run_cli(capsys, "jones", "--braid",
                           f"{COMPONENT_BUDGET}:1")
    assert code == 0 and "jones: " in out


def test_braid_budget_counted_before_closure(capsys, monkeypatch):
    # 300000 free strands exit 3 from the word alone: no closure (and so
    # no pseudo-node splice over every strand) is built
    from vassiliev import knots

    def no_closure(edges):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(knots, "_splice_pseudo", no_closure)
    code, out, err = run_cli(capsys, "jones", "--braid", "300000:")
    assert code == 3 and not out
    assert err.strip() == (f"error: 300000 components exceed the component "
                           f"budget of {COMPONENT_BUDGET}")
    # one crossing per letter: 60,000 letters exit 3 from the word alone,
    # against the bracket budget for jones and the skein budget otherwise
    ones = "2:" + ",".join(["1"] * 60000)
    for command, budget in (("jones", f"bracket budget of "
                             f"{BRACKET_CROSSING_BUDGET}"),
                            ("homfly", f"skein budget of "
                             f"{HOMFLY_CROSSING_BUDGET}")):
        code, out, err = run_cli(capsys, command, "--braid", ones)
        assert code == 3 and not out, command
        assert err.strip() == f"error: 60000 crossings exceed the {budget}"


def test_weight_budget_exit_3(capsys, monkeypatch):
    # 30 crossing chords exit 3 from the parsed diagram: no vertex is
    # resolved and no chord subset is visited
    from vassiliev import relations, weights

    def no_expansion(d):
        raise AssertionError("the diagram was expanded")

    for module, name in ((relations, "reduce_to_chords"),
                         (weights, "reduce_to_chords"),
                         (weights, "_cycle_counts")):
        monkeypatch.setattr(module, name, no_expansion)
    text = serialize(chord_diagram([(i, i + 30) for i in range(30)]))
    code, out, err = run_cli(capsys, "weight", "--diagram", text,
                             "--rank", "3")
    assert code == 3 and not out
    assert err.strip() == ("error: degree 30 + 0 vertices = 30 exceeds "
                           f"the weight budget of {WEIGHT_BUDGET}")
    monkeypatch.undo()
    # the budget is inclusive: five two-leg thetas, degree 10 with 10
    # vertices, are evaluated
    theta = connected_diagrams(2, 2)[0]
    at_limit = product_all([theta] * (WEIGHT_BUDGET // 4))
    assert at_limit.degree + at_limit.vertices == WEIGHT_BUDGET
    code, out, _ = run_cli(capsys, "weight", "--diagram",
                           serialize(at_limit), "--rank", "3")
    assert code == 0 and "value: -1024" in out


def _mutated(rng, text, alphabet):
    """text with one to three random edits: a deletion, an insertion or a
    replacement from `alphabet`, or a duplicated span."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        else:
            j = rng.randrange(i, len(text) + 1)
            text = text[:j] + text[i:j] + text[j:]
    return text


def test_fuzzed_diagram_text_and_braid_words(capsys):
    # mutated inputs exit 0, 2 or 3 and raise nothing; `--flag=value`
    # keeps a leading '-' from reading as an option
    rng = random.Random(5)
    diagrams = [serialize(random_diagram(rng, rng.randint(1, 4)))
                for _ in range(20)]
    braids = ["2:1,1,1", "3:1,-2,1,-2", "4:1,2,3,-1,2", "2:", "5:1,3",
              "3:1 2 1 2", "1,-2,1"]
    codes = set()
    for _ in range(250):
        text = _mutated(rng, rng.choice(diagrams), "0123456789VLT=.- ")
        codes.add(main(["weight", f"--diagram={text}", "--rank", "3"]))
        word = _mutated(rng, rng.choice(braids), "0123456789-,: ")
        codes.add(main(["jones", f"--braid={word}"]))
    capsys.readouterr()
    assert codes <= {0, 2, 3} and {0, 2} <= codes, codes


def _json_leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _json_leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _json_leaves(v)
    else:
        yield value


def test_json_reports_hold_no_float(capsys):
    # exact values only: no JSON number with a fraction part, and no
    # decimal point in a printed value or polynomial
    for name in ("3_1", "4_1"):
        for command, extra in (("jones", ()), ("homfly", ()),
                               ("extract", ("--max-degree", "4")),
                               ("verify", ("--max-degree", "4"))):
            code, out, _ = run_cli(capsys, command, "--knot", name, *extra,
                                   "--format", "json")
            assert code == 0, (command, name)
            for leaf in _json_leaves(json.loads(out)):
                assert not isinstance(leaf, float), (command, name, leaf)
                assert not (isinstance(leaf, str)
                            and re.search(r"\d\.\d", leaf)), (command, leaf)


def test_byte_identical_reports():
    cmd = [sys.executable, "-m", "vassiliev.cli", "dims",
           "--max-degree", "3", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
