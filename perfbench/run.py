#!/usr/bin/env python3
"""Build and run the SpaceCDN benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark package
(perfbench/Cargo.toml, its own workspace over the repository's crates)
into $CARGO_TARGET_DIR (default .bench_build), then runs one workload per
process so peak memory belongs to that workload alone. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --workload all every workload runs in turn and the final object
keys metrics as "<workload>/<metric>".
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["constellation-sweep", "fault-churn", "serve-small"]
DEFAULT_SEED = 42  # the seed whose decision digests are pinned (src/pinned.rs)
RUN_TIMEOUT_S = 170


def commit():
    """The checkout's git commit, without looking above the checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "spacecdn-perfbench")


def run_one(binary, workload, args):
    """Run one workload in its own process; return its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, "perfbench", "out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"perfbench: commit {commit()} · nproc {nproc} · seed {args.seed} · "
          f"{args.seconds} s · trace {args.trace}")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        print(f"=== {w} ===")
        result = run_one(binary, w, args)
        if result is None:
            return 1
        results[w] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
        return 0

    print("=== summary ===")
    metrics = {}
    for w, r in results.items():
        print(f"{w}: correct {r['correct']} · failed {r['failed']} of {r['attempted']}")
        for name, m in r["metrics"].items():
            print(f"  {name:<34} {m['value']:>18.6f} {m['unit']}")
            metrics[f"{w}/{name}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
