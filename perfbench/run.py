#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--mix FRESH,RESEND]

Run from the repository root. The harness (perfbench/harness) is built
in release mode into $CARGO_TARGET_DIR (default .bench_build); build
output goes to stderr so the last line of stdout stays the result JSON.
Results and spans are written under .bench_out/. The exit code is the
harness's: 0 when every output check passed, non-zero otherwise (and
non-zero without a result when the build fails). --mix overrides
service_mix's percent of fresh-seed submits and of resends (default
5,12); it exists to measure how the figures depend on that assumed mix.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("sim_migrate", "campaign_quick", "service_mix")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--mix", help="service_mix FRESH,RESEND percents (default 5,12)")
    return p.parse_args(argv)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main(argv):
    args = parse_args(argv)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    if args.mix:
        cmd += ["--mix", args.mix]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
