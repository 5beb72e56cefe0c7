"""Write the benchmark's reference files: the expected answers.

    python3 perfbench/make_reference.py [workload ...]

For each workload this writes ``perfbench/reference/<workload>.json``
with one record per population item:

* the expected answers, computed independently of digrep's solvers:
  - ``corpus``: Ext^1 from the full cocycle system of
    ``tests/_oracles.py`` ranked by sympy over Q, and dim Hom_rep from
    the full intertwiner system ranked by sympy;
  - ``corpus-gf7``: the same full systems ranked with sympy's
    ``DomainMatrix`` over GF(7), using dim B^1 = dim Hom_rho - dim Hom_rep;
  - ``adjunction``: dim of band-linear maps M -> N, ranked by sympy;
  - ``cli``: the exit code and stdout bytes of every case, recorded at
    the commit that made the file, except the known defects, whose
    expectation is the documented one (exit 2).

Every item is then run once through digrep, and each disagreement with
the reference is printed.

The oracles' rank is taken with ``DomainMatrix`` instead of
``sympy.Matrix.rank``: the same systems, but the largest corpus system
(8748 x 162) takes seconds instead of many minutes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
os.chdir(ROOT)

from sympy import GF, QQ as SQQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import _oracles  # noqa: E402
import digrep  # noqa: E402
import digrep.cli  # noqa: E402,F401  (run_cli calls digrep.cli.main)
import workloads as wl  # noqa: E402


def nullity(rows, ncols, p=0):
    """Nullity of a constraint matrix over Q (p = 0) or GF(p), by sympy."""
    rows = list({tuple(r) for r in rows if any(r)})
    if not rows:
        return ncols
    if p:
        dom = GF(p)
        ents = [[dom(int(x) % p) for x in r] for r in rows]
    else:
        dom = SQQ
        ents = [[SQQ(Fraction(x).numerator, Fraction(x).denominator) for x in r]
                for r in rows]
    return ncols - DomainMatrix(ents, (len(rows), ncols), dom).rank()


# the oracle module's own nullity, on the same rows, through DomainMatrix
_oracles.sympy_nullity = nullity


def intertwiner_rows(pairs, d_src, d_dst):
    """Rows of f A = B f for f : src -> dst, one per (pair, entry)."""
    nunk = d_src * d_dst
    rows = []
    for a, b in pairs:
        for i in range(d_dst):
            for j in range(d_src):
                row = [Fraction(0)] * nunk
                for k in range(d_src):
                    row[i * d_src + k] += Fraction(a[k, j])
                for k in range(d_dst):
                    row[k * d_src + j] -= Fraction(b[i, k])
                rows.append(row)
    return rows, nunk


class _IntMatrix:
    """A prime-field matrix seen through its integer residues."""

    def __init__(self, m):
        self.m = m

    def __getitem__(self, ij):
        return self.m[ij].v


class _IntRep:
    def __init__(self, r):
        self.digroup, self.dim = r.digroup, r.dim
        self.lam = {x: _IntMatrix(m) for x, m in r.lam.items()}
        self.rho = {x: _IntMatrix(m) for x, m in r.rho.items()}


def ext_and_hom(q, w, p=0):
    """(dim Ext^1, dim Hom_rep(Q, W)) from the full systems."""
    if p:
        q, w = _IntRep(q), _IntRep(w)
    elems = q.digroup.elements
    hom_rows, nunk = intertwiner_rows(
        [(q.lam[x], w.lam[x]) for x in elems]
        + [(q.rho[x], w.rho[x]) for x in elems], q.dim, w.dim)
    hom = nullity(hom_rows, nunk, p)
    rho_rows, _ = intertwiner_rows([(q.rho[x], w.rho[x]) for x in elems],
                                   q.dim, w.dim)
    zrows, znunk = _oracles.full_cocycle_rows(q, w)
    # coboundaries are delta(Hom_rho), and ker delta on Hom_rho is Hom_rep
    ext = nullity(zrows, znunk, p) - (nullity(rho_rows, nunk, p) - hom)
    if not p:
        assert ext == _oracles.ext1_dim_oracle(q, w)
    return ext, hom


def disagreements(workload, items):
    """The items on which digrep's answer differs from the reference."""
    op = wl.operation(workload)
    return [key for key, inp, expected
            in wl.build(digrep, workload, sorted(items), {"items": items})
            if op(digrep, inp, expected) == "fail"]


def corpus_reference(workload):
    field = wl.corpus_field(digrep, workload)
    p = field.char
    q_ref = wl.load_reference("corpus") if p else None
    items = {}
    for seed in wl.CORPUS_SEEDS:
        dims = None
        if p:
            r = q_ref["items"][str(seed)]
            dims = (r["dim_q"], r["dim_w"])
        d, q, w = wl.corpus_pair(digrep, seed, field, dims)
        ext, hom = ext_and_hom(q, w, p)
        items[str(seed)] = {"group_order": d.group.order,
                            "halo_size": d.halo_size, "dim_q": q.dim,
                            "dim_w": w.dim, "ext1": ext, "hom_rep": hom}
    return items


def adjunction_reference():
    items = {}
    for seed in wl.ADJUNCTION_SEEDS:
        d, a, b = wl.semilinear_pair(digrep, seed)
        rows, nunk = intertwiner_rows(
            [(a.eps[x], b.eps[x]) for x in a.eps], a.dim, b.dim)
        items[str(seed)] = {"group_order": d.group.order,
                            "halo_size": d.halo_size, "dim_a": a.dim,
                            "dim_b": b.dim,
                            "hom": nullity(rows, nunk) if nunk else 0}
    return items


def cli_reference():
    cases = wl.cli_cases()
    needs = set()
    for _, need in cases.values():
        needs.update(need)
    wl.write_cli_inputs(digrep, needs)
    items = {}
    for name, (argv, _) in sorted(cases.items()):
        got = list(wl.run_cli(digrep, argv))
        rec = {"argv": argv}
        if name in wl.KNOWN_DEFECTS:
            rec["baseline"] = got  # what the defect does at this commit
            rec["known_defect"] = wl.KNOWN_DEFECTS[name]
            rec["accept"] = [[2, ""]]
            if name == "defect-gf3-tag-ignored":
                rec["accept"].append(list(wl.run_cli(digrep,
                                                     wl.GF3_ALTERNATIVE)))
            if got in rec["accept"]:
                print("known defect %s no longer shows" % name, file=sys.stderr)
        else:
            rec["accept"] = [got]
            if name.startswith("bad-") and got[0] != 2:
                print("malformed-input case %s exits %r" % (name, got[0]),
                      file=sys.stderr)
        items[name] = rec
    return items


def main(argv):
    targets = argv or list(wl.WORKLOADS)
    os.makedirs(wl.REF_DIR, exist_ok=True)
    for workload in targets:
        t0 = time.perf_counter()
        if workload in ("corpus", "corpus-gf7"):
            items = corpus_reference(workload)
        elif workload == "adjunction":
            items = adjunction_reference()
        elif workload == "cli":
            items = cli_reference()
        else:
            raise SystemExit("unknown workload %r" % workload)
        for key in disagreements(workload, items):
            if not items[key].get("known_defect"):
                print("%s %s: digrep disagrees with the reference"
                      % (workload, key), file=sys.stderr)
        doc = {"workload": workload,
               "machine": "%s, %d cpus, Python %s" % (
                   platform.machine(), os.cpu_count() or 0,
                   platform.python_version()),
               "items": items}
        with open(os.path.join(wl.REF_DIR, workload + ".json"), "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print("%s: %d items written in %.1f s"
              % (workload, len(items), time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
