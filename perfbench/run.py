"""Benchmark of the vassiliev package: cold-start workloads, one at a time.

    python3 perfbench/run.py --workload basis-cold|factor-extract|knot-polys
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its `src/`.  Each repetition is a fresh
interpreter (perfbench/child.py), so the package's module caches start
cold as they do for a command-line user; repetitions run one after
another until --seconds is used up (at least two).  Where the set-up
(and item 1) cost less than a second, probe repetitions that stop there,
run after each full one, add samples of `setup_s` (and `first_item_s`)
from across the run.

`setup_s` is the median over the repetitions; the other end-to-end
metrics are the mean.  On shared hosts a process tends to run at one of
two speeds, about 1.4x apart, for its whole life; with a handful of
processes the median jumps from one speed to the other, while the mean
moves with the share of each.  Per-layer metrics are medians.

With --trace 0 the last line of output carries the end-to-end metrics;
with --trace 1 repetitions alternate untraced and traced, and it
carries the per-layer metrics of the traced ones, the time no layer
span covers and the tracing overhead.  The metric names and units are
read from BENCHMARK.json.  --smoke runs a tiny variant of every
workload, untraced and traced, and exits 1 unless all of it checks out.

Scratch files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import golden

WORKLOADS = ("basis-cold", "factor-extract", "knot-polys")
WORK = ".perfbench"
MIN_REPS = 2
PROBES = 3  # probe repetitions after each full one, where they are cheap
PROBE_MAX_S = 1.0
BUDGET_S = 170  # the whole invocation ends within 180 s
PREP_TIMEOUT_S = 600  # a first run in a checkout may build for longer

# span names whose self time is a per-layer metric (<name>_s)
LAYER_SPANS = (
    "diagrams.chord_diagrams", "diagrams.one_vertex", "relations.four_t",
    "relations.quotient", "basis.select", "basis.save", "basis.load",
    "basis.coordinates", "weights.deframed", "weights.sun",
    "factorization.verify", "factorization.identities", "factorization.resum",
    "knots.jones", "knots.homfly", "knots.slice", "knots.closure",
    "series.substitute", "series.log", "knot_table.load", "cli.main")
# deterministic counts; each must repeat exactly across repetitions
COUNTS = (
    "diagrams.chord_diagrams_count", "diagrams.one_vertex_count",
    "relations.four_t_rows", "relations.quotient_rank",
    "relations.four_t_useful_ratio", "basis.cache_bytes",
    "basis.coordinates_calls", "weights.deframed_calls", "weights.sun_calls",
    "factorization.full_rank_ratio", "knots.jones_calls",
    "knots.bracket_states", "knots.homfly_calls", "series.calls",
    "cli.golden_mismatches")
TRACE_EXTRA = ("trace.unattributed_s", "trace.overhead_s")


class BenchError(Exception):
    pass


def checkout_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src(root: str) -> str:
    return os.path.join(root, "src", "vassiliev")


def _src_files(root: str) -> list[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(_src(root)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        out += [os.path.join(dirpath, f) for f in sorted(filenames)
                if not f.endswith(".pyc")]
    return out


def _child(root: str, args: list[str], timeout: float) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(root, "perfbench", "child.py")] + args
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"child {args} exceeded {timeout:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"child {args} exited {done.returncode}")
    return done.stdout


def prepare_basis(root: str, degree: int) -> str:
    """Basis cache file of the degree, rebuilt when the source changed."""
    prep = os.path.join(root, WORK, "prep")
    path = os.path.join(prep, f"basis-deg{degree}.txt")
    h = hashlib.sha256()
    for f in _src_files(root):
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp_path = path + ".src-sha256"
    if os.path.exists(path) and os.path.exists(stamp_path):
        with open(stamp_path) as fh:
            if fh.read() == h.hexdigest():
                return path
    os.makedirs(prep, exist_ok=True)
    _child(root, ["--prep", str(degree), "--out", path], PREP_TIMEOUT_S)
    with open(stamp_path, "w") as fh:
        fh.write(h.hexdigest())
    return path


def reset_cli_cache(root: str, basis_path: str) -> None:
    """Leave the CLI cache directory holding only the prepared basis."""
    cache = os.path.join(root, golden.CACHE_DIR)
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    shutil.copyfile(basis_path,
                    os.path.join(cache, os.path.basename(basis_path)))


def measure(root: str, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool, deadline: float) -> list[dict]:
    """Cold repetitions until `seconds` is used up (at least MIN_REPS),
    each followed by probe repetitions in untraced runs."""
    basis_path = None
    if workload == "factor-extract":
        basis_path = prepare_basis(root, 4 if smoke else 6)
    # an import first, so that no repetition compiles the package's .pyc
    _child(root, ["--warm"], deadline - time.monotonic())
    reps: list[dict] = []

    def repetition(traced: bool, probe: str | None) -> dict:
        if basis_path:
            reset_cli_cache(root, basis_path)
        workdir = os.path.join(root, WORK, "run", f"rep-{len(reps)}")
        os.makedirs(workdir)
        args = ["--workload", workload, "--seed", str(seed),
                "--trace", str(int(traced)), "--workdir", workdir,
                "--start-ns", str(time.time_ns())]
        if smoke:
            args.append("--smoke")
        if probe:
            args += ["--probe", probe]
        rep = json.loads(_child(root, args,
                                deadline - time.monotonic()).splitlines()[-1])
        rep.update(traced=traced, probe=probe)
        reps.append(rep)
        return rep

    started = time.monotonic()
    full = 0
    probe = None
    while True:
        rep = repetition(bool(trace) and full % 2 == 1, None)
        full += 1
        if full == 1 and not trace and rep["setup_s"] < PROBE_MAX_S:
            probe = ("first" if rep["setup_s"] + rep["items_s"][0]
                     < PROBE_MAX_S else "setup")
        for _ in range(PROBES if probe else 0):
            repetition(False, probe)
        elapsed = time.monotonic() - started
        per_rep = elapsed / full
        if full >= MIN_REPS and (elapsed + per_rep > seconds or
                                 time.monotonic() + 2 * per_rep > deadline):
            return reps


def _p(xs: list[float], q: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(rep: dict) -> dict:
    """End-to-end values of one repetition; a set-up probe has no items."""
    out = {k: rep[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
    items = rep["items_s"]
    if items:
        out.update(first_item_s=items[0], item_p50_ms=_p(items, 50) * 1e3,
                   item_p90_ms=_p(items, 90) * 1e3)
    return out


def summarize(reps: list[dict]) -> dict:
    full = [r for r in reps if not r["probe"]]
    traced = [r for r in full if r["traced"]]
    med = statistics.median
    samples: dict[str, list] = {}
    for r in reps:
        if not r["traced"]:
            values = end_to_end(r)
            # probes add samples of set-up and item 1 only
            for k in ("setup_s", "first_item_s") if r["probe"] else values:
                if k in values:
                    samples.setdefault(k, []).append(values[k])
    counts = full[0]["counts"]
    out = {"end_to_end": {k: (med if k == "setup_s" else statistics.fmean)(v)
                          for k, v in samples.items()},
           "counts": {name: counts.get(name, 0) for name in COUNTS},
           "per_layer": {}}
    if traced:
        layer = {f"{name}_s": med(r["layers"].get(name, 0.0) for r in traced)
                 for name in LAYER_SPANS}
        layer.update(out["counts"])
        layer["trace.unattributed_s"] = med(r["unattributed_s"]
                                            for r in traced)
        if "wall_s" in samples:
            layer["trace.overhead_s"] = (
                statistics.fmean(r["wall_s"] for r in traced)
                - statistics.fmean(samples["wall_s"]))
        out["per_layer"] = layer
    out["items"] = len(full[0]["items_s"])
    differ = sum(r["counts"] != counts for r in full[1:])
    out["attempted"] = sum(r["attempted"] for r in reps) + len(full) - 1
    out["failed"] = sum(r["failed"] for r in reps) + differ
    out["messages"] = [m for r in reps for m in r["messages"]]
    if differ:
        out["messages"].append("deterministic counts differ between "
                               "repetitions")
    return out


def metadata(root: str, seed: int) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for f in _src_files(root):
        if f.endswith(".py"):
            with open(f, "rb") as fh:
                lines += fh.read().count(b"\n")
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "src_lines": lines}


def declared_metrics(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    expected = ({f"{n}_s" for n in LAYER_SPANS} | set(COUNTS)
                | set(TRACE_EXTRA))
    if per_layer != expected:
        raise BenchError("BENCHMARK.json per_layer names differ from the "
                         f"benchmark's: {sorted(per_layer ^ expected)}")
    return spec


def _clean(root: str) -> None:
    shutil.rmtree(os.path.join(root, WORK, "run"), ignore_errors=True)


def _smoke(root: str, seed: int, deadline: float) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _clean(root)
            summary = summarize(measure(root, workload, seed, 0, trace, True,
                                        deadline))
            good = summary["failed"] == 0 and (
                "trace.overhead_s" in summary["per_layer"] if trace
                else len(summary["end_to_end"]) == 6)
            ok = ok and good
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"attempted={summary['attempted']} "
                  f"failed={summary['failed']} items={summary['items']}")
            for m in summary["messages"]:
                print(f"  {m}")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not (args.smoke or args.workload):
        p.error("--workload is required unless --smoke is given")
    deadline = time.monotonic() + BUDGET_S
    root = checkout_root()
    if not os.path.isfile(os.path.join(_src(root), "__init__.py")):
        print(f"perfbench: no package source at {_src(root)}", file=sys.stderr)
        return 2
    try:
        spec = declared_metrics(root)
        if args.smoke:
            return _smoke(root, args.seed, deadline)
        _clean(root)
        reps = measure(root, args.workload, args.seed, args.seconds,
                       args.trace, False, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    summary = summarize(reps)
    kind = "per_layer" if args.trace else "end_to_end"
    values = summary[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    report = {"workload": args.workload, "trace": args.trace,
              "meta": metadata(root, args.seed),
              "repetitions": [{"traced": rep["traced"], "probe": rep["probe"]}
                              | end_to_end(rep) for rep in reps],
              "items": summary["items"],
              "failed_ratio": summary["failed"] / summary["attempted"],
              "counts": summary["counts"],
              "end_to_end": summary["end_to_end"],
              "per_layer": summary["per_layer"],
              "messages": summary["messages"]}
    with open(os.path.join(root, WORK,
                           f"report-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    for key in ("meta", "repetitions", "items", "failed_ratio", "counts",
                kind, "messages"):
        print(f"{key}: {json.dumps(report[key])}")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
