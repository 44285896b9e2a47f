#!/usr/bin/env python3
"""A/A and A/B runner for the ARTEMIS performance benchmark.

Runs one workload repeatedly in fresh processes, each run as long as
run_seconds in BENCHMARK.json, and prints, for every metric, the median,
the quartiles and the spread (interquartile distance over the median)
against the metric's bound:

    python3 perfbench/aa.py --workload serve-mix --runs 10

With two checkouts (for example a parent and a change, each made with
`git archive`), the runs alternate between them, each pair starting with
the other side. Each side gets its own table, and a last one gives the
second side's median against the first's and the share of pairs it won.
Naming one checkout twice makes two A/A sets of the same code:

    python3 perfbench/aa.py --workload tune-paper --runs 10 \\
        --checkouts ../parent ../change

"ok" applies the acceptance rule: each spread is within the metric's
bound (setup_s is exempt), and the second side's median is not worse than
the first's by more than the bound. A spread under a third of its bound
leaves room for the medians of two sets to differ.

Seeds: run i uses seed <base> + i. Base 1 is the development seed and
base 1001 the held-out seed (perfbench/seeds.json); a claimed gain must
also hold with --seed-base 1001.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_seeds():
    with open(os.path.join(HERE, "seeds.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} in {checkout} "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), wall


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int,
                    default=load_seeds()["development"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkouts", nargs="+", default=[os.path.dirname(HERE)],
                    help="one checkout (A/A) or two (parent, change)")
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("--checkouts takes one or two directories")

    with open(os.path.join(args.checkouts[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    spec = {m["name"]: m for m in metrics}

    sides = [[] for _ in args.checkouts]
    for i in range(args.runs):
        order = list(range(len(args.checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            result, wall = run_once(args.checkouts[side], args.workload,
                                    args.seed_base + i, seconds, args.trace)
            sides[side].append(result)
            print(f"run {i} side {side} seed {args.seed_base + i}: "
                  f"{wall:.1f} s, correct={result['correct']}",
                  file=sys.stderr)

    # run.py has checked that every run reports exactly these metrics.
    names = list(spec)
    values = [{n: [r["metrics"][n]["value"] for r in side] for n in names}
              for side in sides]
    print(f"{args.workload}: {args.runs} run(s) per side, {seconds} s each, "
          f"seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
    for side, vals in enumerate(values):
        if len(sides) == 2:
            print(f"side {side}: {args.checkouts[side]}")
        print(f"{'metric':34} {'unit':14} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6} {'ok':>3}")
        for name in names:
            m = spec[name]
            q1, med, q3, sp = spread(vals[name])
            bound = m.get("bound")
            if bound is None or name == "setup_s":
                ok = "-"
            else:
                ok = "yes" if sp <= bound else "NO"
            print(f"{name:34} {m['unit']:14} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {sp:7.3f} "
                  f"{'-' if bound is None else f'{bound:.3g}':>6} {ok:>3}")
    if len(sides) == 2:
        print("side 1 against side 0 (delta > 0: better)")
        print(f"{'metric':34} {'median 0':>12} {'median 1':>12} "
              f"{'delta':>7} {'wins':>5} {'bound':>6} {'ok':>3}")
        for name in names:
            m = spec[name]
            a, b = values[0][name], values[1][name]
            med, cmed = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "higher" else -1
            delta = sign * (cmed - med) / med if med else 0.0
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            bound = m.get("bound")
            ok = "-" if bound is None else ("yes" if delta >= -bound else "NO")
            print(f"{name:34} {med:12.6g} {cmed:12.6g} {delta:+7.3f} "
                  f"{wins:>2}/{len(b)} "
                  f"{'-' if bound is None else f'{bound:.3g}':>6} {ok:>3}")


if __name__ == "__main__":
    main()
