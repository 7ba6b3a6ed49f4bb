#!/usr/bin/env python3
"""Compares two sets of tinyevm_benchmark results against BENCHMARK.json.

    compare.py BASE_DIR NEW_DIR      parent commit vs change
    compare.py --aa DIR_A DIR_B      two sets of runs of the same commit

Each directory holds the result files `--result-dir` writes (one JSON per
workload run); traced runs are ignored. A run that is not correct on
either side makes its workload's row FAILED: its metrics are not
compared, since a change that breaks runs must not pass by having them
dropped. For every (workload, end-to-end metric) the table shows each
side's median and quartiles, how many runs of NEW beat their paired BASE
run, and a verdict. Runs are paired by seed: the k-th run of a seed on one
side, in the order the runs were written, with the k-th run of that seed
on the other. A run with no partner is in the quartiles but in no pair.

  improved    NEW wins at least 9 of every 10 pairs (10 pairs or more) and
              the medians differ by more than BASE's quartile distance
  regressed   NEW's median is worse than BASE's by more than the bound
  unresolved  a side's quartile distance exceeds the bound, and NEW does
              not beat every BASE run
  unchanged   otherwise

--aa instead requires every pair of medians to agree within the bound and
each side's spread to stay within it. setup_s is judged on its medians
alone in both modes: exec jitter is not a property of the code. Exits 1
when anything failed, regressed, is unresolved, or disagrees.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(directory):
    """{workload: {"runs": [correct untraced result, ...], "incorrect": n}}.

    Runs are in the order they were written, so that repeated runs of one
    seed pair up in order.
    """
    paths = glob.glob(os.path.join(directory, "*.json"))
    paths.sort(key=lambda p: (os.path.getmtime(p), p))
    out = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        if result.get("trace"):
            continue
        side = out.setdefault(result["workload"], {"runs": [], "incorrect": 0})
        if result.get("correct"):
            side["runs"].append(result)
        else:
            side["incorrect"] += 1
    return out


def pair_up(base_runs, new_runs):
    """(base, new) run pairs: the k-th run of each seed on both sides."""
    by_seed = {}
    for run in new_runs:
        by_seed.setdefault(run["seed"], []).append(run)
    taken = {}
    pairs = []
    for run in base_runs:
        k = taken.get(run["seed"], 0)
        partners = by_seed.get(run["seed"], [])
        if k < len(partners):
            pairs.append((run, partners[k]))
            taken[run["seed"]] = k + 1
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value `a` is better than `b`."""
    return a > b if direction == "higher" else a < b


def value(run, name):
    return run["end_to_end"][name]["value"]


def compare(metric, base_runs, new_runs, aa):
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    base = [value(r, name) for r in base_runs]
    new = [value(r, name) for r in new_runs]
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(new)
    spread_a = (q3a - q1a) / ma if ma else 0.0
    spread_b = (q3b - q1b) / mb if mb else 0.0
    worse_by = ((mb - ma) if direction == "lower" else (ma - mb)) / ma if ma else 0.0
    pairs = [(value(a, name), value(b, name)) for a, b in pair_up(base_runs, new_runs)]
    wins = sum(better(b, a, direction) for a, b in pairs)
    spread_ok = name == "setup_s" or max(spread_a, spread_b) <= bound
    if aa:
        verdict = "agree" if spread_ok and abs(worse_by) <= bound else "DISAGREE"
    elif not spread_ok:
        all_better = all(better(b, a, direction) for a in base for b in new)
        verdict = "improved" if all_better else "unresolved"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
          and abs(mb - ma) > q3a - q1a):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    everything = base + new
    return {
        "base": (ma, q1a, q3a), "new": (mb, q1b, q3b),
        "change": (mb - ma) / ma if ma else 0.0,
        "wins": wins, "pairs": len(pairs),
        "max_over_min": max(everything) / min(everything) - 1
        if min(everything) > 0 else float("inf"),
        "verdict": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--aa", action="store_true",
                        help="same-code agreement check")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(args.base), load(args.new)
    bad = {"regressed", "unresolved", "DISAGREE"}
    failures = 0
    print(f"{'workload':14s} {'metric':17s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'change':>8s} {'wins':>6s} "
          f"{'max/min':>8s}  verdict")
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload), new.get(workload)
        if a is None or b is None or not a["runs"] or not b["runs"]:
            print(f"{workload:14s} FAILED: no correct runs on one side")
            failures += 1
            continue
        if a["incorrect"] or b["incorrect"]:
            print(f"{workload:14s} FAILED: {a['incorrect']} incorrect base "
                  f"runs, {b['incorrect']} incorrect new runs")
            failures += 1
            continue
        for metric in metrics:
            name = metric["name"]
            if not all(name in r["end_to_end"] for r in a["runs"] + b["runs"]):
                print(f"{workload:14s} {name:17s} FAILED: missing from a run")
                failures += 1
                continue
            row = compare(metric, a["runs"], b["runs"], args.aa)
            failures += row["verdict"] in bad
            fmt = lambda m: f"{m[0]:.6g} [{m[1]:.6g}, {m[2]:.6g}]"
            print(f"{workload:14s} {name:17s} {fmt(row['base']):>30s} "
                  f"{fmt(row['new']):>30s} {row['change']:+8.1%} "
                  f"{row['wins']:>2d}/{row['pairs']:<3d} "
                  f"{row['max_over_min']:8.1%}  {row['verdict']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
