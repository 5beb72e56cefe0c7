"""Paired benchmark runs of two checkouts, summarized per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seconds S [--seed K]

Runs the unchanged ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` of each checkout, in that checkout, with
PYTHONDONTWRITEBYTECODE=1, one run at a time.  Pair i (from 0) uses seed
i + 1, or K for every pair when --seed is given; the parent runs first in
the even pairs and the change first in the odd ones.  Every run is kept.

Prints one JSON object, the per-workload block of the BENCH_*.json files:
for each end-to-end metric of the change's BENCHMARK.json, the median, q1
and q3 (statistics.quantiles, exclusive method) and the runs of each
side, and change_wins, the number of pairs in which the change reads
better (ties count for neither side).  Progress goes to stderr.  The exit
code is 0 when every run answered correctly, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    """The last-line JSON report of one untraced run in checkout root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit("%s in %s exited %d:\n%s"
                         % (" ".join(cmd), root, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs):
    """{median, q1, q3, runs}, rounded to 4 places; one run is its own quartiles."""
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in runs]}


def summary(workload, seeds, parent, change, metrics):
    """The per-workload block from the two sides' reports, pair by pair."""
    block = {"workload": workload, "seeds": seeds, "pairs": len(seeds),
             "correct_all": all(r["correct"] for r in parent + change),
             "failed": sum(r["failed"] for r in change),
             "failed_parent": sum(r["failed"] for r in parent)}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        block[name] = {"better": m["better"], "parent": spread(p), "change": spread(c),
                       "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c))}
    return block


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, help="one seed for every pair")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    seeds = [args.seed if args.seed is not None else i + 1 for i in range(args.pairs)]
    parent, change = [], []
    for i, seed in enumerate(seeds):
        sides = [(args.parent, parent), (args.change, change)]
        for root, out in sides if i % 2 == 0 else sides[::-1]:
            out.append(run_once(root, args.workload, seed, args.seconds))
        print("pair %d/%d, seed %d: throughput_vs_baseline parent %.4g, change %.4g"
              % (i + 1, len(seeds), seed,
                 parent[-1]["metrics"]["throughput_vs_baseline"]["value"],
                 change[-1]["metrics"]["throughput_vs_baseline"]["value"]),
              file=sys.stderr)
    block = summary(args.workload, seeds, parent, change, metrics)
    print(json.dumps(block, indent=1))
    return 0 if block["correct_all"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
