"""Run one digrep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: the next operation starts when the
previous one returns, the way a batch caller uses the library.  Every
run measures the workload's fixed items (``workloads.fixed_items``);
``--seed`` only shuffles the order of each pass.

Every item runs twice in each pass, back to back: once under the
checkout's digrep and once under ``perfbench/baseline/digrep``, a frozen
copy of digrep as it was when this benchmark was made.  Which of the two
goes first alternates.  The machine this benchmark was made on changes
speed by a fifth to a third over tens of seconds; back-to-back pairs see
the same speed, so the ratio of the two is steady where each time alone
is not.  The bounded metrics are those ratios, taken per pass and
reported as their median over the passes:

* ``throughput_vs_baseline``: the checkout's operations per second over
  the baseline's (higher is better);
* ``latency_p50_vs_baseline`` and ``latency_p95_vs_baseline``: the
  checkout's median and 95th-percentile operation time over the
  baseline's, both Harrell-Davis estimates over the pass's items (lower
  is better).

The checkout's own throughput and latencies are printed beside them.
Set-up (import of digrep plus building and validating the inputs) is
done ``SETUPS`` times with the checkout's digrep, each from a fresh
import, so every set-up starts with cold module caches; ``setup_s`` is
the median.  The run makes passes over the items until ``--seconds``
have gone by, and at least ``MIN_PASSES``.  Every answer of both
versions is checked against ``perfbench/reference``.

``--trace 1`` runs the checkout's digrep alone: an untraced warm-up
pass, a traced pass and an untraced pass.  It prints the per-layer
metrics of the traced pass with the tracing overhead (traced over
untraced throughput, both with warm caches); its spans go to
``perfbench/out/spans-<workload>.{bin,json}``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Known defects (cli cases whose
documented exit code still does not hold) are listed by name and counted
apart from ``failed``.  The exit code is 0 when every answer is correct,
1 when one is not and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import importlib.util
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
MIN_PASSES = 3

BASELINE = os.path.join(HERE, "baseline", "digrep")

END_TO_END = (("throughput_vs_baseline", "ratio"),
              ("latency_p50_vs_baseline", "ratio"),
              ("latency_p95_vs_baseline", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    import workloads as wl
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="order of the items in each pass; 7919 is held out "
                        "for re-checking claims")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first expected answer (self-test; "
                        "untraced runs only)")
    return p.parse_args(argv)


def import_digrep():
    """Import the checkout's digrep afresh: (package, import time in s).

    Earlier imports are dropped first, so the module caches and the
    validated-object registries start empty, as in a new process.
    """
    for name in [n for n in sys.modules
                 if n == "digrep" or n.startswith("digrep.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = time.perf_counter()
    import digrep
    import digrep.cli  # noqa: F401  (not imported by the package root)
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(digrep.__file__))) != src:
        raise ImportError("digrep was not imported from %s" % src)
    return digrep, elapsed


def import_baseline():
    """The frozen copy of digrep, as the package ``digrep_baseline``."""
    spec = importlib.util.spec_from_file_location(
        "digrep_baseline", os.path.join(BASELINE, "__init__.py"),
        submodule_search_locations=[BASELINE])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lib
    spec.loader.exec_module(lib)
    importlib.import_module("digrep_baseline.cli")
    return lib


def set_up(workload, keys, ref):
    """Import digrep and build the inputs SETUPS times.

    Returns the package, its inputs and the set-up times.
    """
    import workloads as wl
    times = []
    for _ in range(SETUPS):
        items = None
        gc.collect()
        lib, t_import = import_digrep()
        t0 = time.perf_counter()
        items = wl.build(lib, workload, keys, ref)
        times.append(t_import + time.perf_counter() - t0)
    return lib, items, times


def hd_quantile(values, p, steps=2000):
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) density over the n rank intervals.  Where a
    fixed item set has a gap at the quantile, the sample quantile jumps
    between the items on either side when one of them is slowed; this
    estimate moves by a fraction of that.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    weights = [0.0] * n
    for i in range(steps):
        x = (i + 0.5) / steps
        weights[min(n - 1, int(x * n))] += x ** (a - 1) * (1 - x) ** (b - 1)
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def inject_fault(items):
    """A wrong expected answer on the first item that is not a known defect."""
    pick = next((i for i, it in enumerate(items)
                 if not it[2].get("known_defect")), 0)
    key, inp, expected = items[pick]
    expected = {k: v for k, v in expected.items() if k != "known_defect"}
    if "accept" in expected:
        expected["accept"] = [[99, ""]]
    else:
        field = "hom" if "hom" in expected else "ext1"
        expected[field] += 1
    items[pick] = (key, inp, expected)
    return items


def run_op(op, lib, key, inp, expected):
    """One operation: (status, seconds); a crash is a failed operation."""
    t0 = time.perf_counter()
    try:
        status = op(lib, inp, expected)
    except Exception as e:
        status = "fail"
        print("operation %s raised %s: %s" % (key, type(e).__name__, e),
              file=sys.stderr)
    return status, time.perf_counter() - t0


def run_pass(items, op, lib, tracer=None):
    """One closed-loop pass: ({key: latency s}, elapsed s, outcomes)."""
    lat, outcomes = {}, []
    gc.collect()
    start = time.perf_counter()
    for i, (key, inp, expected) in enumerate(items):
        fn = op if tracer is None else functools.partial(tracer.run_op, i, op)
        status, lat[key] = run_op(fn, lib, key, inp, expected)
        outcomes.append((key, status))
    return lat, time.perf_counter() - start, outcomes


def run_paired_pass(pairs, op, lib, base, first):
    """One pass in which every item runs under ``lib`` and ``base`` back to
    back, alternating which goes first: ({key: s}, {key: s}, outcomes)."""
    lat, base_lat, outcomes = {}, {}, []
    gc.collect()
    for i, (key, item, base_item) in enumerate(pairs):
        runs = [(lib, item), (base, base_item)]
        if (i + first) % 2:
            runs.reverse()
        for pkg, (inp, expected) in runs:
            status, t = run_op(op, pkg, key, inp, expected)
            if pkg is lib:
                lat[key] = t
                outcomes.append((key, status))
            else:
                base_lat[key] = t
                if status != "ok" and not expected.get("known_defect"):
                    outcomes.append(("baseline:" + key, "fail"))
    return lat, base_lat, outcomes


def shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def report(workload, seed, outcomes, metrics, notes):
    """Print the text report and the JSON line; returns the exit code."""
    failed = sorted(set(k for k, s in outcomes if s == "fail"))
    xfail = sorted(set(k for k, s in outcomes if s == "xfail"))
    nfail = sum(1 for _, s in outcomes if s == "fail")
    nx = sum(1 for _, s in outcomes if s == "xfail")
    attempted = len(outcomes)
    print("workload %s, seed %d: %d operations attempted"
          % (workload, seed, attempted))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print("  %-40s %.6g (%d failed / %d attempted)"
          % ("failed_ratio", nfail / attempted, nfail, attempted))
    print("  %-40s %.6g (%d / %d attempted)"
          % ("known_defect_ratio", nx / attempted, nx, attempted))
    if xfail:
        print("known defects still open: %s" % ", ".join(xfail))
    if failed:
        print("FAILED: %s" % ", ".join(failed))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": nfail, "metrics": metrics}))
    return 0 if not failed else 1


def traced_run(args, lib, items, op):
    """Warm-up, traced and untraced passes; the per-layer metrics."""
    import spantrace as tr
    rng = random.Random(args.seed)
    _, _, outcomes = run_pass(shuffled(items, rng), op, lib)
    tracer = tr.Tracer()
    tracer.install()
    try:
        t_lat, t_elapsed, t_out = run_pass(shuffled(items, rng), op, lib,
                                           tracer)
    finally:
        tracer.uninstall()
    _, u_elapsed, u_out = run_pass(shuffled(items, rng), op, lib)
    outcomes += t_out + u_out
    layers = tracer.layer_metrics()
    layers["trace.overhead_ratio"] = u_elapsed / t_elapsed
    problems = tracer.check([t_lat[k] for k, _ in t_out])
    for problem in problems:
        print("trace check: %s" % problem, file=sys.stderr)
    if problems:
        outcomes.append(("trace-check", "fail"))
    spans = os.path.join(HERE, "out", "spans-" + args.workload)
    tracer.write(spans)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in tr.metric_names()}
    notes = ["warm-up, traced and untraced pass of %d operations; traced "
             "%.3f s, untraced %.3f s; %d spans written to %s.bin"
             % (len(items), t_elapsed, u_elapsed, len(tracer.span_name),
                os.path.relpath(spans, ROOT))]
    return outcomes, metrics, notes


def paired_run(args, lib, items, op, base, base_items):
    """Paired passes until --seconds; the end-to-end ratios and notes."""
    pairs = [(key, (inp, expected), base_items[key])
             for key, inp, expected in items]
    rng = random.Random(args.seed)
    ratios = {"throughput": [], "p50": [], "p95": []}
    per_pass, outcomes = [], []
    start = time.perf_counter()
    while (len(per_pass) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        lat, base_lat, out = run_paired_pass(shuffled(pairs, rng), op, lib,
                                             base, len(per_pass) % 2)
        cur, ref = list(lat.values()), list(base_lat.values())
        ratios["throughput"].append(sum(ref) / sum(cur))
        ratios["p50"].append(hd_quantile(cur, 0.50) / hd_quantile(ref, 0.50))
        ratios["p95"].append(hd_quantile(cur, 0.95) / hd_quantile(ref, 0.95))
        per_pass.append(lat)
        outcomes += out
    values = {"throughput_vs_baseline": statistics.median(ratios["throughput"]),
              "latency_p50_vs_baseline": statistics.median(ratios["p50"]),
              "latency_p95_vs_baseline": statistics.median(ratios["p95"])}
    # the checkout's own figures, for reading beside the ratios
    rate = statistics.median(len(p) / sum(p.values()) for p in per_pass)
    fastest = [min(p[k] for p in per_pass) for k in per_pass[0]]
    notes = ["closed loop, one caller, one thread; %d paired passes of %d "
             "items; ratios are medians over the passes of Harrell-Davis "
             "percentiles over each pass's items" % (len(per_pass), len(items)),
             "the checkout alone, with the machine's drift and no bound "
             "(median pass; Harrell-Davis over each item's fastest pass):",
             "  %-40s %.6g ops/s" % ("throughput_ops_per_s", rate),
             "  %-40s %.6g ms" % ("latency_p50_ms",
                                  hd_quantile(fastest, 0.50) * 1e3),
             "  %-40s %.6g ms" % ("latency_p95_ms",
                                  hd_quantile(fastest, 0.95) * 1e3)]
    return outcomes, values, notes


def main(argv=None):
    import workloads as wl
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        ref = wl.load_reference(args.workload)
        keys = wl.fixed_items(args.workload, ref)
        base = None if args.trace else import_baseline()
        # the baseline's inputs first: the cli inputs on disk are then the
        # ones the checkout's own set-up wrote
        base_items = None if args.trace else {
            key: (inp, expected)
            for key, inp, expected in wl.build(base, args.workload, keys, ref)}
        lib, items, setups = set_up(args.workload, keys, ref)
    except (ImportError, OSError) as e:
        print("cannot run the benchmark here: %s" % e, file=sys.stderr)
        return 2
    op = wl.operation(args.workload)
    if args.inject_fault:
        items = inject_fault(items)

    if args.trace:
        outcomes, metrics, notes = traced_run(args, lib, items, op)
        return report(args.workload, args.seed, outcomes, metrics, notes)

    outcomes, values, notes = paired_run(args, lib, items, op, base, base_items)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    notes.append("set-up (fresh import + build) %s s"
                 % "/".join("%.4f" % t for t in setups))
    return report(args.workload, args.seed, outcomes, metrics, notes)


if __name__ == "__main__":
    sys.exit(main())
