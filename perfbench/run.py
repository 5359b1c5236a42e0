#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload <paper-cold|paper-warm|serve-sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the shipped release
binaries (`figures`, `serve`) and the benchmark's own tracer into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload for about
`--seconds`, checks every output, and prints one JSON object as the last
line of standard output. `--trace 0` reports the end-to-end metrics of an
untraced run; `--trace 1` reports the per-layer metrics of a traced run
and writes its trace to `.bench_work/traces/<workload>.json`. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pb import workloads  # noqa: E402


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the program and the tracer; returns the binary paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"{ROOT} is not a source checkout of the program (no Cargo.toml and crates/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "prem-bench", "--bin", "figures", "-p", "prem-serve", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(argv))
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name)
            for name in ("figures", "serve", "perfbench-tracer")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MEASURED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bins = build()
    bins["tracer"] = bins.pop("perfbench-tracer")
    ctx = workloads.Ctx(ROOT, bins, args.seed, args.seconds)
    if args.trace:
        values = workloads.traced(ctx, args.workload)
    else:
        values = workloads.MEASURED[args.workload](ctx)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in (values or {}).items()}
    if values is None:
        ctx.tally(1, ["workload produced no measurement"])
    for p in ctx.problems:
        print(f"# FAILED CHECK: {p}")
    frac = ctx.failed / max(1, ctx.attempted)
    print(f"# attempted={ctx.attempted} failed={ctx.failed} failed_frac={frac:.6f}")
    print(json.dumps({
        "correct": ctx.failed == 0 and not ctx.problems and values is not None,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    workloads.cleanup(ctx)


if __name__ == "__main__":
    main()
