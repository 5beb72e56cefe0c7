"""Self-test of the benchmark: metric names, units and fault detection.

    python3 perfbench/selftest.py

For every workload, at the shortest run (``--seconds 1``: three paired
passes over the fixed items):

* an untraced run exits 0 and reports every end-to-end metric of
  ``BENCHMARK.json`` with its unit, and only those;
* a traced run does the same for every per-layer metric;
* a run with ``--inject-fault`` (a corrupted expected dimension, or a
  wrong expected cli exit code) exits 1 with ``correct`` false and the
  fault counted in ``failed``.

Exits 0 when every check holds and prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spantrace  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402


def run(workload, trace, fault=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if declared[0] != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if declared[1] != dict(spantrace.metric_names()):
        problems.append("BENCHMARK.json per_layer differs from spantrace.py")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, out = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            if code != 0 or out is None or not out["correct"]:
                problems.append("%s: exit %s, result %r" % (tag, code, out))
                continue
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metrics or units differ from "
                                "BENCHMARK.json" % tag)
            if out["attempted"] < 1 or out["failed"] != 0:
                problems.append("%s: attempted %d, failed %d"
                                % (tag, out["attempted"], out["failed"]))
        code, out = run(workload, 0, fault=True)
        if code != 1 or out is None or out["correct"] or out["failed"] < 1:
            problems.append("%s: injected fault not counted (exit %s, %r)"
                            % (workload, code, out))
        print("%-12s checked" % workload)
    for p in problems:
        print("FAIL:", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
