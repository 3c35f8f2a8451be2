#!/usr/bin/env python3
"""Check the simulator's allocation trajectory.

Run from the repository root:

    python3 bench/trajectory.py

It runs each benchmark workload once at seed 0, with per-layer rows,

    python3 perfbench/run.py --workload W --seed 0 --seconds 0 --trace 1

and compares the deterministic rows of each run with the tracked
bench/trajectory.json: the fingerprint (sim.events, sim.clock_s,
cmb.rpc_messages), every kvs.* and net.* row, and
gc.alloc_words_per_event. Every row must be equal, except that words
per event may move by up to 2%: the figure wobbles by up to 0.1 with
the length of the checkout's path.

The fresh rows go to stdout in the tracked file's format, and every row
outside the rule is reported on stderr; the exit status is 1 then. A
change that moves a row on purpose regenerates the file and says why:

    python3 bench/trajectory.py > trajectory.new; mv trajectory.new bench/trajectory.json
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACKED = os.path.join(ROOT, "bench", "trajectory.json")
WORKLOADS = ["kap-fence", "kap-get", "sched-pilot"]
WORDS = "gc.alloc_words_per_event"
WORDS_TOLERANCE = 0.02


def tracked_row(name):
    return (
        name in ("sim.events", "sim.clock_s", "cmb.rpc_messages", WORDS)
        or name.startswith("kvs.")
        or name.startswith("net.")
    )


def fresh_rows(workload):
    run = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if run.returncode != 0:
        sys.exit("trajectory: %s pass exited %d" % (workload, run.returncode))
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("trajectory: %s pass produced incorrect output" % workload)
    return {name: m["value"] for name, m in result["metrics"].items() if tracked_row(name)}


def differences(tracked, fresh):
    for workload in WORKLOADS:
        want, got = tracked.get(workload, {}), fresh[workload]
        for name in sorted(set(want) | set(got)):
            old, new = want.get(name), got.get(name)
            if old is None or new is None:
                ok = False
            elif name == WORDS:
                ok = abs(new - old) <= WORDS_TOLERANCE * abs(old)
            else:
                ok = new == old
            if not ok:
                yield "%s %s: tracked %s, fresh %s" % (workload, name, old, new)


def main():
    fresh = {w: fresh_rows(w) for w in WORKLOADS}
    print(json.dumps(fresh, indent=2))
    with open(TRACKED) as f:
        tracked = json.load(f)
    bad = list(differences(tracked, fresh))
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        print("trajectory: rows differ from bench/trajectory.json (see bench/trajectory.py)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
