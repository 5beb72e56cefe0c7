"""One traced ``digrep ext1`` at ``generate``'s caps: S3, halo 3, dim 4.

    python3 perfbench/cap_note.py [--untraced]

Not a workload: one such call takes minutes.  It writes the generated
file, runs ``ext1 --json`` on it against itself under the span tracer,
and prints the wall time and the ten layers with the most self time.
With ``--untraced`` it first times the same call without the tracer.
The result is recorded once in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
os.chdir(ROOT)

import digrep  # noqa: E402
import digrep.cli  # noqa: E402,F401  (run_cli calls digrep.cli.main)
import spantrace  # noqa: E402
import workloads as wl  # noqa: E402

OUT = os.path.join("perfbench", "out", "cap")
REP = os.path.join(OUT, "gen_seed0_representation.json")
ARGV = ["ext1", "--json", REP, REP]


def main(argv):
    code, _ = wl.run_cli(digrep, ["generate", "--seed", "0", "--symmetric3",
                          "--halo-size", "3", "--dim", "4", "--out", OUT])
    if code != 0:
        raise SystemExit("generate failed with %r" % (code,))
    if "--untraced" in argv:
        t0 = time.perf_counter()
        code, out = wl.run_cli(digrep, ARGV)
        print("untraced: exit %r in %.1f s" % (code, time.perf_counter() - t0))
    tracer = spantrace.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code, out = tracer.run_op(0, wl.run_cli, digrep, ARGV)
    finally:
        tracer.uninstall()
    elapsed = time.perf_counter() - t0
    layers = tracer.layer_metrics()
    print("traced: exit %r in %.1f s, %d spans" % (code, elapsed,
                                                   len(tracer.span_name)))
    print(out.strip())
    selfs = sorted(((layers[n + ".self_s"], n) for n in spantrace.LAYERS),
                   reverse=True)
    for s, n in selfs[:10]:
        print("  %-34s self %7.2f s  calls %d" % (n, s, layers[n + ".calls"]))
    for n in ("ext.check_cocycle.distinct_ratio", "reps.require_valid.miss_ratio",
              "trace.layer_self_share"):
        print("  %-34s %.4f" % (n, layers[n]))


if __name__ == "__main__":
    main(sys.argv[1:])
