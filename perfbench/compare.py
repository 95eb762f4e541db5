#!/usr/bin/env python3
"""Spread and regression checks over benchmark results.

    # Run one workload over several seeds and report each end-to-end
    # metric's median and quartile spread against its bound:
    python3 perfbench/compare.py spread --workload sim_migrate --seeds 1 2 3 4 5

    # Judge a change: NEW's median may not be worse than BASE's by more
    # than the metric's bound (exit 1 when any metric regressed):
    python3 perfbench/compare.py check BASE.jsonl NEW.jsonl

A results file holds one result JSON object per line (the last stdout
line of `run.py`). Bounds and directions come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (Python's default exclusive quartiles)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def regressions(base_runs, new_runs, metrics):
    """Metrics whose median in `new_runs` is worse than in `base_runs` by
    more than their bound. Each run is a {name: value} dict; returns
    (name, worsening, bound) tuples."""
    out = []
    for m in metrics:
        name = m["name"]
        base = statistics.median(r[name] for r in base_runs)
        new = statistics.median(r[name] for r in new_runs)
        w = worsening(base, new, m["better"])
        if w > m["bound"]:
            out.append((name, w, m["bound"]))
    return out


def values_of(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def read_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_spread(args):
    spec = load_spec()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds or spec["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        runs.append(result)
        if args.save:
            with open(args.save, "a") as f:
                f.write(json.dumps(result) + "\n")
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values_of(result).items()),
              flush=True)
    worst = 0
    for m in spec["end_to_end"]:
        vals = [values_of(r)[m["name"]] for r in runs]
        s = spread(vals) if len(vals) >= 2 else 0.0
        verdict = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
        worst = max(worst, 0 if verdict == "ok" else 1)
        print(f"{m['name']:<20} median {statistics.median(vals):.6g} {m['unit']:<6} "
              f"spread {s:.4f} bound {m['bound']} -> {verdict}")
    return worst


def cmd_check(args):
    spec = load_spec()
    base = [values_of(r) for r in read_results(args.base)]
    new = [values_of(r) for r in read_results(args.new)]
    bad = regressions(base, new, spec["end_to_end"])
    for name, w, bound in bad:
        print(f"REGRESSION {name}: worse by {w:.1%} (bound {bound:.0%})")
    if not bad:
        print("no metric worse than its bound")
    return 1 if bad else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", type=int, nargs="+", required=True)
    s.add_argument("--seconds", type=float)
    s.add_argument("--save", help="append each result line to this file")
    c = sub.add_parser("check")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
