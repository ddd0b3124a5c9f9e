"""One cold run of one workload in a fresh interpreter (started by run.py).

Prints one JSON line: set-up and timed seconds, item durations, peak
RSS, checks attempted and failed, deterministic counts, and, when
traced, the self time of every layer span.

    python3 perfbench/child.py --workload W --seed S --trace 0|1
        --start-ns NS --workdir DIR [--smoke] [--probe setup|first]
    python3 perfbench/child.py --prep DEGREE --out FILE
    python3 perfbench/child.py --warm
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _import_package(root: str):
    import vassiliev

    here = os.path.realpath(vassiliev.__file__)
    src = os.path.join(os.path.realpath(root), "src")
    if not here.startswith(src + os.sep):
        raise SystemExit(f"vassiliev imported from {here}, not this checkout")
    return vassiliev


def prep(root: str, degree: int, out: str) -> None:
    v = _import_package(root)
    v.save_basis(v.canonical_basis(degree), out)


def run(root: str, args) -> dict:
    import workloads
    from spans import Checker, Tracer

    tr = Tracer(bool(args.trace))
    ck = Checker()
    with tr.span("bench.setup"):
        v = _import_package(root)
        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        ctx = workloads.Context(v, tr, ck, sizes, args.seed, args.workdir,
                                first_only=args.probe == "first")
        setup, timed = workloads.WORKLOADS[args.workload]
        state = setup(ctx)
    setup_s = (time.time_ns() - args.start_ns) / 1e9

    t0 = time.perf_counter()
    with tr.span("bench.timed"):
        items = [] if args.probe == "setup" else timed(ctx, state)
    wall_s = time.perf_counter() - t0

    counts = dict(ck.counts)
    attempted = counts.pop("factorization.degrees_attempted", 0)
    solved = counts.pop("factorization.degrees_solved", 0)
    if attempted:
        counts["factorization.full_rank_ratio"] = solved / attempted
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_s": items,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "messages": ck.messages[:20],
        "counts": counts,
    }
    if tr.enabled:
        self_s = tr.self_times()
        out["layers"] = {k: s for k, s in self_s.items()
                         if not k.startswith("bench.")}
        out["unattributed_s"] = sum(s for k, s in self_s.items()
                                    if k.startswith("bench.")
                                    and k != "bench.setup")
        tr.write(os.path.join(args.workdir, "spans.jsonl"))
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--probe", choices=("setup", "first"),
                   help="stop after the set-up, or after item 1")
    p.add_argument("--start-ns", type=int, default=0)
    p.add_argument("--workdir")
    p.add_argument("--prep", type=int)
    p.add_argument("--out")
    p.add_argument("--warm", action="store_true",
                   help="only import the package (compiles its .pyc files)")
    args = p.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.warm:
        _import_package(root)
        return 0
    if args.prep is not None:
        prep(root, args.prep, args.out)
        return 0
    print(json.dumps(run(root, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
