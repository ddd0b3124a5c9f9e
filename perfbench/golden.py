"""Byte-exact CLI reports, replayed in-process through `vassiliev.cli.main`.

The cases are README examples.  Each runs with `--cache-dir` set to
CACHE_DIR, relative to the checkout root, and reports echo that string,
so capture and replay use the same one.  Before the cases run, the
cache directory holds only the degree-6 basis file.

`basis_version` is a hash over the basis and the source text of
`diagrams.py` and `relations.py`, so any edit to those files changes it
without changing a computed value; it is masked on both sides.

Capture (from the checkout root, on the commit that defines the
reference):  python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys

CACHE_DIR = ".perfbench/cache"
GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "cli.json")

# (basis degree the case needs, argv without --cache-dir)
CASES = [
    (0, ["jones", "--knot", "4_1"]),
    (0, ["jones", "--braid", "2:-1,-1,-1"]),
    (0, ["homfly", "--pd", "X(6,3,1,4) X(2,5,3,6) X(4,1,5,2)"]),
    (0, ["weight", "--diagram", "L=2 T=0 1-2", "--rank", "3"]),
    (4, ["extract", "--knot", "3_1", "--max-degree", "4",
         "--probes", "2,3,4,5", "--format", "json"]),
    (4, ["verify", "--knot", "4_1", "--max-degree", "4"]),
    (4, ["identities", "--max-degree", "4"]),
    (6, ["identities", "--max-degree", "6"]),
]

_VERSION = re.compile(r'(basis_version"?:\s*"?)[0-9a-f]{16}')


def mask(text: str) -> str:
    return _VERSION.sub(r"\1<masked>", text)


def argv_of(args: list[str]) -> list[str]:
    return args + ["--cache-dir", CACHE_DIR]


def run_case(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def load() -> list[dict]:
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)["cases"]


def cases_upto(max_degree: int) -> list[tuple[int, dict]]:
    """(index, golden record) of the cases a basis of max_degree serves."""
    golden = load()
    if len(golden) != len(CASES):
        raise ValueError("golden file does not match CASES; recapture")
    out = []
    for k, ((need, args), rec) in enumerate(zip(CASES, golden)):
        if rec["argv"] != argv_of(args):
            raise ValueError(f"golden case {k} has argv {rec['argv']}")
        if need <= max_degree:
            out.append((k, rec))
    return out


def capture() -> None:
    """Capture every case in this interpreter (cwd: checkout root)."""
    from vassiliev.cli import main

    records = []
    for _, args in CASES:
        code, text = run_case(main, argv_of(args))
        records.append({"argv": argv_of(args), "exit": code,
                        "stdout": mask(text)})
    os.makedirs(os.path.dirname(GOLDEN_FILE), exist_ok=True)
    with open(GOLDEN_FILE, "w") as fh:
        json.dump({"cases": records}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    import run

    root = run.checkout_root()
    os.chdir(root)
    sys.path.insert(0, os.path.join(root, "src"))
    run.reset_cli_cache(root, run.prepare_basis(root, 6))
    capture()
    print(f"captured {len(CASES)} cases into {GOLDEN_FILE}")
