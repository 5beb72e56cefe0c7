"""Time the three Ext^1 models, the adjunction, the boundary table checks and
one splitting decision on fixed instances beyond the work caps.

    python3 tools/size_ladder.py [--rungs N]

Each rung is a group, a halo size and a dimension.  Its instance is built
in-process from seeded_rng(0): one action drawn from all_actions(group,
halo), then two random_representation calls (q, then w) of that
dimension.  For each field (Q, GF(32003)) each model is timed three
times, each time on an instance built afresh, so that it starts from cold
registries, and with the enveloping-algebra cache as the first time found
it; the best of the three walls is printed:

  cocycle     ext.ext1_dim(q, w)
  derivation  build_enveloping_algebra, rep_to_module, derivation_ext1
  collapse    halo.verify_collapse(q, w)
  adjunction  halo.verify_adjunction(underlying_module(to_semilinear(q)),
                                     to_semilinear(w))
  axioms      q.digroup.check_axioms(), the exhaustive digroup report
  rep_check   check_representation(q), the exhaustive R1-R5 report
  group       FiniteGroup(mul) on the group's table, associativity included
  action      GAction(group, halo, act) on the action's table, its law included
  algebra     build_enveloping_algebra with its cache cleared: the table and
              its exhaustive FDAlgebra.check
  relations   check_relations on the enveloping algebra the algebra model
              left in the cache
  split       ext.is_split on the direct-sum sequence W -> W + Q -> Q
              (direct_sum and short_exact included)

The last four are the table checks a document of the rung's size meets at
the boundary (the group and action of every digroup block, the algebra of
its digroup).

Prints one line per (rung, field, model): the best wall time, the rows handed
to linalg.sparse_kernel in one run and the answer: the Ext^1 dimension, the
adjunction's left_dim, or 1 when an exhaustive report or table check
passes or the sequence splits.  --rungs N runs the first N rungs only, smallest first.  A
record, not a gate: nothing is compared with a budget.
"""

import argparse
import pathlib
import sys
import time
from itertools import permutations

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from digrep import (QQ, Digroup, FiniteGroup, GAction, Matrix, PrimeField,  # noqa: E402
                    all_actions, build_enveloping_algebra, check_relations,
                    check_representation, derivation_ext1, direct_sum, ext1_dim, is_split,
                    random_representation, rep_to_module, seeded_rng, short_exact,
                    to_semilinear, underlying_module, verify_adjunction, verify_collapse)
from digrep import envalg, linalg  # noqa: E402


def symmetric4():
    """S4 from the composition table of the permutations of 4 points (q
    acts first, as in GAction.act)."""
    perms = list(permutations(range(4)))
    idx = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[idx[tuple(p[k] for k in q)] for q in perms] for p in perms], name="S4")


RUNGS = [
    ("C6", FiniteGroup.cyclic(6), 6, 6),
    ("S3xC2", FiniteGroup.direct_product(FiniteGroup.symmetric3(), FiniteGroup.cyclic(2)),
     4, 6),
    ("S3", FiniteGroup.symmetric3(), 3, 8),
    ("C12", FiniteGroup.cyclic(12), 4, 8),
    ("S4", symmetric4(), 4, 8),
]


def instance(group, halo, dim, field):
    rng = seeded_rng(0)
    action = rng.choice(all_actions(group, halo))
    d = Digroup(group, action)
    return (random_representation(d, dim, rng, field),
            random_representation(d, dim, rng, field))


def derivation(q, w):
    a = build_enveloping_algebra(q.digroup, q.field)
    return derivation_ext1(a, rep_to_module(q, a), rep_to_module(w, a))[0]


def adjunction(q, w):
    return verify_adjunction(underlying_module(to_semilinear(q)), to_semilinear(w))["left_dim"]


def algebra(q, w):
    envalg._envalg_cache.clear()
    return build_enveloping_algebra(q.digroup, q.field).check()


def action(q, w):
    act = q.digroup.action
    return GAction(act.group, act.set_size, act.act) is not None


def split(q, w):
    v = direct_sum(w, q)
    ident = Matrix.identity(v.field, v.dim)
    s = short_exact(w, v, q, ident.block(0, 0, v.dim, w.dim),
                    ident.block(w.dim, 0, q.dim, v.dim))
    return is_split(s)[0]


MODELS = [
    ("cocycle", "ext", lambda q, w: ext1_dim(q, w).dim_ext),
    ("derivation", "ext", derivation),
    ("collapse", "ext", lambda q, w: verify_collapse(q, w)["ext1_BE_invariant_dim"]),
    ("adjunction", "left_dim", adjunction),
    ("axioms", "ok", lambda q, w: q.digroup.check_axioms().ok),
    ("rep_check", "ok", lambda q, w: check_representation(q).ok),
    ("group", "ok", lambda q, w: FiniteGroup(q.digroup.group.mul) is not None),
    ("action", "ok", action),
    ("algebra", "ok", algebra),
    ("relations", "ok", lambda q, w: check_relations(
        build_enveloping_algebra(q.digroup, q.field), q.digroup).ok),
    ("split", "ok", split),
]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", type=int, default=len(RUNGS))
    args = ap.parse_args(argv)
    rows = [0]
    kernel = linalg.sparse_kernel

    def counted(ncols, eqs, field):
        rows[0] += len(eqs)
        return kernel(ncols, eqs, field)

    linalg.sparse_kernel = counted
    for name, group, halo, dim in RUNGS[:args.rungs]:
        for field in (QQ, PrimeField(32003)):
            for model, label, run in MODELS:
                cached, walls = dict(envalg._envalg_cache), []
                for _ in range(3):
                    envalg._envalg_cache.clear()
                    envalg._envalg_cache.update(cached)
                    q, w = instance(group, halo, dim, field)
                    rows[0] = 0
                    t0 = time.perf_counter()
                    answer = run(q, w)
                    walls.append(time.perf_counter() - t0)
                wall = min(walls)
                print("%-6s halo %d dim %d  %-9r %-10s %8.3f s  rows %6d  %s %d"
                      % (name, halo, dim, field, model, wall, rows[0], label, answer),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
