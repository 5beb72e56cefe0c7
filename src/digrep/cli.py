"""Command line front end.

Subcommands:

  check     validate a digroup or representation file axiom by axiom
  ext1      compute Ext^1 three independent ways and cross-check
  split     decide whether a short exact sequence splits
  collapse  compare digroup-level invariants with band-algebra invariants
  probe     search a list of representations for nonsplit extensions
  example   write the bundled nonsplit example as a set of JSON files
  generate  write a seeded random digroup + representation

Exit codes: 0 success, 1 axiom or cross-check failure, 2 unreadable or
malformed input.

One parser serves every main() call of a process: it is built on the
first call (not at import) and holds no state between calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .digroup import Digroup, FiniteGroup, GroupTableError, all_actions
from .demo import demo_digroup, demo_representation, demo_ses, demo_subspace_basis
from .envalg import build_enveloping_algebra, derivation_ext1, rep_to_module
from .ext import MaschkeError, ext1_dim, is_split, semisimplicity_probe
from .halo import verify_collapse
from .reps import (RepresentationError, check_representation,
                   random_representation, seeded_rng)
from .serialize import (WORK_CAPS, FormatError, _require_axioms, digroup_from_json,
                        digroup_to_json, dumps, field_from_name, load_path,
                        matrix_to_json, rep_from_json, rep_to_json, save_path,
                        ses_from_json, ses_to_json)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except (RepresentationError, GroupTableError, MaschkeError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


_the_parser = None


def _parser():
    """The process's one parser, built on the first main() call."""
    global _the_parser
    if _the_parser is None:
        _the_parser = build_parser()
    return _the_parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="digrep",
        description="representations of product-model digroups: "
                    "axioms, extensions, splitting, band-algebra comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
        p.add_argument("--field",
                       help="scalar field: 'rational' or a prime p (default: "
                            "each file's own field tag)")

    p = sub.add_parser("check", help="validate a digroup or representation file")
    common(p)
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ext1", help="three-way Ext^1 computation and cross-check")
    common(p)
    p.add_argument("quotient", help="representation file for the quotient")
    p.add_argument("sub", help="representation file for the subobject")
    p.set_defaults(func=cmd_ext1)

    p = sub.add_parser("split", help="decide splitness of a short exact sequence")
    common(p)
    p.add_argument("path", help="short exact sequence file")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("collapse", help="band-algebra invariant comparison report")
    common(p)
    p.add_argument("quotient")
    p.add_argument("sub")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("probe", help="scan representations for nonsplit extensions")
    common(p)
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("example", help="write the bundled example files")
    common(p)
    p.add_argument("name", choices=["nonsplit"])
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("generate", help="write a seeded random instance")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--group-order", type=int, default=2,
                   help="cyclic group order (<= %d)" % WORK_CAPS["group_order"])
    p.add_argument("--symmetric3", action="store_true",
                   help="use the symmetric group on 3 points instead")
    p.add_argument("--halo-size", type=int, default=2,
                   help="halo size (<= %d)" % WORK_CAPS["halo_size"])
    p.add_argument("--dim", type=int, default=2,
                   help="representation dimension (<= %d)" % WORK_CAPS["dim"])
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_generate)
    return parser


def emit(args, report, text_lines):
    if args.json:
        sys.stdout.write(dumps(report))
    else:
        for line in text_lines:
            print(line)


def requested_field(args):
    """The field named by --field, or None to follow each file's tag."""
    return None if args.field is None else field_from_name(args.field)


def _loader(field):
    """load(path, like=None): the representation a file holds, read and
    validated; with like, over like's digroup and field.

    Each path is read once, and each distinct document (the same parsed
    JSON, compared as its JSON text, so that 1, 1.0 and true differ) is
    validated once: a later equal document read over the same digroup
    gets the Representation already checked, which its own check would
    have rebuilt entry for entry.  The memo lives for one command, so
    each main() call reads and checks its inputs afresh.
    """
    docs, reps = {}, {}

    def load(path, like=None):
        if path not in docs:
            obj = load_path(path)
            docs[path] = (obj, json.dumps(obj))
        obj, text = docs[path]
        r = reps.get(text)
        if r is None or like is not None and r.digroup is not like.digroup:
            r = rep_from_json(obj, field=field, validate=False,
                              digroup=like.digroup if like is not None else None)
            if like is not None and r.field != like.field:
                raise FormatError("%s is over %r, not %r" % (path, r.field, like.field))
            r = reps[text] = _require_axioms(r)
        return r

    return load


def cmd_check(args):
    field = requested_field(args)
    obj = load_path(args.path)
    if isinstance(obj, dict) and "dim" in obj:
        r = rep_from_json(obj, field=field, validate=False)
        dig = r.digroup.check_axioms()
        rep = check_representation(r)
        results = {("digroup." + k): v for k, v in dig.results.items()}
        results.update({("representation." + k): v for k, v in rep.results.items()})
    else:
        d = digroup_from_json(obj)
        results = {("digroup." + k): v
                   for k, v in d.check_axioms().results.items()}
    ok = all(passed for passed, _ in results.values())
    report = {"ok": ok,
              "axioms": {k: {"ok": passed,
                             "counterexample": repr(ce) if ce is not None else None}
                         for k, (passed, ce) in sorted(results.items())}}
    lines = ["%-32s %s" % (k, "ok" if passed else "FAIL at %r" % (ce,))
             for k, (passed, ce) in sorted(results.items())]
    lines.append("all axioms pass" if ok else "axiom failure")
    emit(args, report, lines)
    return 0 if ok else 1


def _load_pair(args):
    load = _loader(requested_field(args))
    q = load(args.quotient)
    return q, load(args.sub, like=q)


def cmd_ext1(args):
    q, w = _load_pair(args)
    res = ext1_dim(q, w)
    alg = build_enveloping_algebra(q.digroup, q.field)
    der_dim, _ = derivation_ext1(alg, rep_to_module(q, alg), rep_to_module(w, alg))
    col = verify_collapse(q, w)
    agree = res.dim_ext == der_dim == col["ext1_BE_invariant_dim"]
    report = {
        "dim_Z": res.dim_Z,
        "dim_B": res.dim_B,
        "ext1_rep_dim": res.dim_ext,
        "ext1_derivation_dim": der_dim,
        "ext1_BE_invariant_dim": col["ext1_BE_invariant_dim"],
        "oracles_agree": agree,
        "collapse_ok": col["collapse_ok"],
    }
    lines = [
        "cocycle model:        dim Z = %d, dim B = %d, ext = %d"
        % (res.dim_Z, res.dim_B, res.dim_ext),
        "derivation model:     ext = %d" % der_dim,
        "band-algebra model:   invariant ext = %d" % col["ext1_BE_invariant_dim"],
        "oracles agree: %s, collapse_ok: %s" % (agree, col["collapse_ok"]),
    ]
    emit(args, report, lines)
    return 0 if agree and col["collapse_ok"] else 1


def cmd_split(args):
    s = ses_from_json(load_path(args.path), field=requested_field(args))
    res = ext1_dim(s.Q, s.W)
    flag, payload = is_split(s)
    if flag:
        certificate = None
        witness = matrix_to_json(payload)
    else:
        certificate = {("%d,%d" % x): matrix_to_json(m)
                       for x, m in sorted(payload.theta.items())}
        witness = None
    report = {"dim_Z": res.dim_Z, "dim_B": res.dim_B, "dim_ext": res.dim_ext,
              "split": flag, "certificate": certificate, "witness": witness}
    lines = ["dim Z = %d, dim B = %d, dim ext = %d"
             % (res.dim_Z, res.dim_B, res.dim_ext),
             "split" if flag else "nonsplit (nonzero class certificate attached)"]
    emit(args, report, lines)
    return 0


def cmd_collapse(args):
    q, w = _load_pair(args)
    col = verify_collapse(q, w)
    lines = ["%s: %s" % (k, v) for k, v in sorted(col.items())]
    emit(args, col, lines)
    return 0 if col["collapse_ok"] else 1


def cmd_probe(args):
    load = _loader(requested_field(args))
    reps = []
    for path in args.paths:
        reps.append(load(path, like=reps[0] if reps else None))
    probe = semisimplicity_probe(reps)
    findings = [{"source": f["source"], "target": f["target"],
                 "dim_ext": f["dim_ext"],
                 "certificate": {("%d,%d" % x): matrix_to_json(m)
                                 for x, m in sorted(f["certificate"].theta.items())}}
                for f in probe["findings"]]
    report = {"pairs_checked": probe["pairs_checked"],
              "semisimple": probe["semisimple"],
              "findings": findings}
    lines = ["checked %d ordered pairs" % probe["pairs_checked"]]
    for f in findings:
        lines.append("nonsplit extension: quotient #%d by sub #%d (dim %d)"
                     % (f["source"], f["target"], f["dim_ext"]))
    lines.append("no nonsplit extensions found" if probe["semisimple"]
                 else "category is not semisimple")
    emit(args, report, lines)
    return 0


def cmd_example(args):
    d = demo_digroup()
    v = demo_representation(d)
    s = demo_ses()
    basis = demo_subspace_basis()
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, doc in [
        ("nonsplit_digroup.json", digroup_to_json(d)),
        ("nonsplit_representation.json", rep_to_json(v)),
        ("nonsplit_subspace.json",
         {"basis": [matrix_to_json(b) for b in basis]}),
        ("nonsplit_ses.json", ses_to_json(s)),
    ]:
        path = os.path.join(args.out, name)
        save_path(path, doc)
        written.append(path)
    report = {"written": written}
    emit(args, report, ["wrote %s" % p for p in written])
    return 0


def cmd_generate(args):
    if args.field not in (None, "rational"):
        raise FormatError("generate supports the rational field only")
    n = 6 if args.symmetric3 else args.group_order
    if not 1 <= n <= WORK_CAPS["group_order"]:
        raise FormatError("group order cap exceeded (max %d)"
                          % WORK_CAPS["group_order"])
    if not 1 <= args.halo_size <= WORK_CAPS["halo_size"]:
        raise FormatError("halo size cap exceeded (max %d)"
                          % WORK_CAPS["halo_size"])
    if not 0 <= args.dim <= WORK_CAPS["dim"]:
        raise FormatError("dimension cap exceeded (max %d)" % WORK_CAPS["dim"])
    rng = seeded_rng(args.seed)
    group = FiniteGroup.symmetric3() if args.symmetric3 \
        else FiniteGroup.cyclic(n)
    actions = all_actions(group, args.halo_size)
    action = actions[rng.randrange(len(actions))]
    d = Digroup(action.group, action)
    r = random_representation(d, args.dim, rng)
    os.makedirs(args.out, exist_ok=True)
    stem = "gen_seed%d" % args.seed
    paths = []
    for name, doc in [
        (stem + "_digroup.json", digroup_to_json(d)),
        (stem + "_representation.json", rep_to_json(r)),
    ]:
        path = os.path.join(args.out, name)
        save_path(path, doc)
        paths.append(path)
    report = {"written": paths, "seed": args.seed}
    emit(args, report, ["wrote %s" % p for p in paths])
    return 0


if __name__ == "__main__":
    sys.exit(main())
