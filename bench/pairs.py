#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs.

Run from anywhere:

    python3 bench/pairs.py --parent DIR --change DIR --workload W --seed N \\
        [--pairs 10] [--seconds 30]

Each pair runs both checkouts once,

    python3 DIR/perfbench/run.py --workload W --seed N --seconds S --trace 0

the parent first in odd pairs and the change first in even ones. For
every end-to-end metric of this repository's BENCHMARK.json it prints
each side's median with its quartiles, the ratio of the medians, the
number of pairs the change won, and one verdict:

    gain        the change won at least 9 in 10 pairs, and the medians
                differ by more than the parent's interquartile range;
    worse       the change's median is worse than the parent's by more
                than the metric's bound;
    unresolved  either side's interquartile range is wider than the
                bound (relative to its median), unless every change run
                beats every parent run;
    held        none of the above.

Quartiles interpolate linearly between the sorted runs. It also prints
whether the two sides' determinism fingerprints are equal, and exits 1
as soon as a run fails or reports `correct: false`. Compare checkouts
whose paths have the same length: the path's length moves allocation.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run(tree, args):
    """One untraced run: the fingerprint line and the result object."""
    cmd = ["python3", os.path.join(tree, "perfbench", "run.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("pairs: %s exited %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("pairs: %s reported correct: false" % " ".join(cmd))
    return json.loads(lines[-2])["fingerprint"], result["metrics"]


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")


def beats(metric):
    """The metric's order: beats(metric)(a, b) when a is better than b."""
    if metric["better"] == "lower":
        return lambda a, b: a < b
    return lambda a, b: a > b


def verdict(metric, parent, change, wins):
    better = beats(metric)
    p1, p, p3 = quartiles(parent)
    c1, c, c3 = quartiles(change)
    if wins >= math.ceil(GAIN_SHARE * len(parent)) and better(c, p) and abs(c - p) > p3 - p1:
        return "gain"
    if p != 0 and better(p, c) and abs(c - p) / abs(p) > metric["bound"]:
        return "worse"
    spread = max((p3 - p1) / abs(p) if p else 0.0, (c3 - c1) / abs(c) if c else 0.0)
    separated = all(better(x, y) for x in change for y in parent)
    if spread > metric["bound"] and not separated:
        return "unresolved"
    return "held"


def cell(xs):
    q1, q2, q3 = quartiles(xs)
    if q1 == q3:
        return "%.5g" % q2
    return "%.5g [%.5g, %.5g]" % (q2, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in sides.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error("%s has no perfbench/run.py" % tree)
    runs = {"parent": [], "change": []}
    fingerprints = {"parent": set(), "change": set()}
    for i in range(1, args.pairs + 1):
        for side in ("parent", "change") if i % 2 == 1 else ("change", "parent"):
            fp, metrics = run(sides[side], args)
            fingerprints[side].add(json.dumps(fp, sort_keys=True))
            runs[side].append(metrics)
        print("pairs: %d/%d done" % (i, args.pairs), file=sys.stderr)
    print("%s, seed %d, %d pairs of %d s runs (--trace 0)" % (args.workload, args.seed, args.pairs, args.seconds))
    print()
    print("| metric | parent | change | change/parent | change better | verdict |")
    print("|---|---:|---:|---:|---:|---|")
    for m in end_to_end():
        name = m["name"]
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        wins = sum(1 for p, c in zip(parent, change) if beats(m)(c, p))
        p, c = statistics.median(parent), statistics.median(change)
        ratio = "%.3f" % (c / p) if p else "-"
        print("| `%s` | %s | %s | %s | %d/%d | %s |" % (
            name, cell(parent), cell(change), ratio, wins, args.pairs, verdict(m, parent, change, wins)))
    print()
    same = len(fingerprints["parent"]) == 1 and fingerprints["parent"] == fingerprints["change"]
    print("fingerprints: %s %s" % ("equal" if same else "DIFFER",
                                   " / ".join(sorted(fingerprints["parent"] | fingerprints["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
