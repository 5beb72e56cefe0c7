"""The benchmark's workloads: populations, fixed items, inputs, operations.

Every workload is a fixed population of items with committed reference
answers (made by ``make_reference.py`` with sympy, not with digrep's
solvers).  A run measures the same fixed items every time: every
``STRIDE``-th seeded item of the population, plus every hand-written cli
case.  The seed only sets the order in which a pass visits them.  An operation returns
one of ``"ok"``, ``"fail"`` or ``"xfail"`` (a known, documented defect
that still shows).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# cli paths are relative to the checkout root, so golden output bytes do
# not depend on where the checkout lives
CLI_IN = os.path.join("perfbench", "out", "cli", "in")
CLI_OUT = os.path.join("perfbench", "out", "cli", "out")

CORPUS_SEEDS = range(1000, 1200)      # the acceptance corpus
ADJUNCTION_SEEDS = range(2000, 2400)  # acceptance criterion 7 starts at 2000
CLI_GEN_SEEDS = range(128)
GF_PRIME = 7                          # divides no group order used (1, 2, 3, 6)


# Every STRIDE-th seeded item is measured.  The sets are small so that a
# run makes many passes: on a shared machine an operation's fastest time
# over six or more passes varies far less from run to run than over
# three.  Each set still holds small items and a heavy tail item (order
# 6, halo 3); a pass takes 2-4 s per digrep version on a 2-core x86_64
# machine.
STRIDE = {"corpus": 32, "corpus-gf7": 16, "adjunction": 16, "cli": 32}


def load_reference(workload):
    with open(os.path.join(REF_DIR, workload + ".json")) as fh:
        return json.load(fh)


def fixed_items(workload, ref):
    """The keys a run measures: every STRIDE-th seeded item, in seed order
    (cli: in name order), then every hand-written cli case, so that each
    run covers every command, every exit-2 path and every known defect."""
    if workload == "cli":
        named = list(named_cli_cases())
        seeded = sorted(k for k in ref["items"] if k not in named)
    else:
        named, seeded = [], sorted(ref["items"], key=int)
    return seeded[::STRIDE[workload]] + named


# -- seeded instances ---------------------------------------------------------
#
# The same generator as the acceptance tests' sample_pair and
# sample_semilinear_pair, kept here so the benchmark's inputs do not move
# when the test helpers change.


def _groups(lib):
    FiniteGroup = lib.FiniteGroup
    return {
        "C1": lambda: FiniteGroup.cyclic(1),
        "C2": lambda: FiniteGroup.cyclic(2),
        "C3": lambda: FiniteGroup.cyclic(3),
        "C6": lambda: FiniteGroup.cyclic(6),
        "S3": FiniteGroup.symmetric3,
    }


def sample_digroup(lib, rng):
    groups = _groups(lib)
    group = groups[rng.choice(sorted(groups))]()
    m = rng.choice([1, 2, 3])
    actions = lib.all_actions(group, m)
    action = actions[rng.randrange(len(actions))]
    return lib.Digroup(action.group, action)


def corpus_pair(lib, seed, field=None, dims=None):
    """The acceptance-corpus pair for ``seed``; over ``field`` if given.

    With ``dims`` the two dimensions are forced (the random stream still
    draws them), so a prime-field pair has the same digroup and the same
    dimensions as the rational pair of the same seed.
    """
    field = field or lib.QQ
    rng = lib.seeded_rng(seed)
    d = sample_digroup(lib, rng)
    dq = rng.randint(1, 3)
    q = lib.random_representation(d, dims[0] if dims else dq, rng, field)
    dw = rng.randint(1, 3)
    w = lib.random_representation(d, dims[1] if dims else dw, rng, field)
    return d, q, w


def semilinear_pair(lib, seed):
    rng = lib.seeded_rng(seed)
    d = sample_digroup(lib, rng)
    a = lib.random_semilinear(d, rng.randint(0, 3), rng)
    b = lib.random_semilinear(d, rng.randint(0, 3), rng)
    return d, a, b


# -- corpus and corpus-gf7 ------------------------------------------------------


def corpus_field(lib, workload):
    return lib.PrimeField(GF_PRIME) if workload == "corpus-gf7" else lib.QQ


def build_corpus(lib, workload, keys, ref):
    field = corpus_field(lib, workload)
    out = []
    for key in keys:
        r = ref["items"][key]
        dims = (r["dim_q"], r["dim_w"]) if workload == "corpus-gf7" else None
        d, q, w = corpus_pair(lib, int(key), field, dims)
        if (q.dim, w.dim) != (r["dim_q"], r["dim_w"]):
            raise RuntimeError("corpus seed %s no longer yields the recorded "
                               "dimensions" % key)
        out.append((key, (d, q, w), r))
    return out


def corpus_op(lib, inp, expected):
    """Ext^1 three ways plus the collapse report, checked against sympy."""
    d, q, w = inp
    alg = lib.build_enveloping_algebra(d, q.field)
    der, _ = lib.derivation_ext1(alg, lib.rep_to_module(q, alg),
                                 lib.rep_to_module(w, alg))
    col = lib.halo.verify_collapse(q, w)
    ok = (der == col["ext1_rep_dim"] == col["ext1_BE_invariant_dim"]
          == expected["ext1"]
          and col["hom_rep_dim"] == expected["hom_rep"] and col["collapse_ok"])
    return "ok" if ok else "fail"


# -- adjunction ---------------------------------------------------------------


def build_adjunction(lib, keys, ref):
    return [(key, semilinear_pair(lib, int(key))[1:], ref["items"][key])
            for key in keys]


def adjunction_op(lib, inp, expected):
    a, b = inp
    rep = lib.halo.verify_adjunction(lib.halo.underlying_module(a), b)
    ok = rep["ok"] and rep["left_dim"] == rep["right_dim"] == expected["hom"]
    return "ok" if ok else "fail"


# -- cli ------------------------------------------------------------------------


def gen_params(seed):
    """Generator caps for a cli seed: cyclic order <= 3, halo <= 3, dim <= 3."""
    rng = random.Random(seed)
    return rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)


def _gen_argv(seed, out):
    n, m, k = gen_params(seed)
    return ["generate", "--json", "--seed", str(seed), "--group-order", str(n),
            "--halo-size", str(m), "--dim", str(k), "--out", out]


def _in(name):
    return os.path.join(CLI_IN, name)


def named_cli_cases():
    """The hand-written cli cases: name -> (argv, input files it needs).

    Input files are written by ``build_cli``.
    """
    rep, ses = _in("nonsplit_representation.json"), _in("nonsplit_ses.json")
    dig = _in("nonsplit_digroup.json")
    nonsplit = ("nonsplit",)
    cases = {
        "example": (["example", "nonsplit", "--json", "--out", CLI_OUT], ()),
        "check-nonsplit-rep": (["check", "--json", rep], nonsplit),
        "check-nonsplit-digroup": (["check", "--json", dig], nonsplit),
        "split-nonsplit": (["split", "--json", ses], nonsplit),
        "ext1-nonsplit": (["ext1", "--json", rep, rep], nonsplit),
        "ext1-nonsplit-text": (["ext1", rep, rep], nonsplit),
        "collapse-nonsplit": (["collapse", "--json", rep, rep], nonsplit),
        "probe-nonsplit": (["probe", "--json", rep, rep], nonsplit),
        # documented exit-2 paths: unreadable or malformed input
        "bad-missing-file": (["check", "--json", _in("absent.json")], ()),
        "bad-json-syntax": (["check", "--json", _in("bad_syntax.json")],
                            ("malformed",)),
        "bad-scalar-text": (["check", "--json", _in("bad_scalar.json")],
                            ("malformed",)),
        "bad-ragged-matrix": (["check", "--json", _in("bad_ragged.json")],
                              ("malformed",)),
        "bad-table-keys": (["ext1", "--json", _in("bad_keys.json"), rep],
                           ("malformed", "nonsplit")),
        "bad-ses-as-digroup": (["check", "--json", ses], nonsplit),
        "bad-field-name": (["ext1", "--json", "--field", "foo", rep, rep],
                           nonsplit),
        "bad-generate-dim-cap": (["generate", "--json", "--dim", "5", "--out",
                                  CLI_OUT], ()),
        "bad-generate-field": (["generate", "--json", "--field", "5", "--out",
                                CLI_OUT], ()),
        "bad-example-name": (["example", "bogus", "--out", CLI_OUT], ()),
        # known exit-code defects (ROADMAP aim 3): expected exit 2
        "defect-zero-denominator": (["check", "--json", _in("zero_den.json")],
                                    ("malformed",)),
        "defect-field-4": (["ext1", "--json", "--field", "4", rep, rep],
                           nonsplit),
        "defect-gf3-tag-ignored": (["check", "--json", _in("gf3.json")],
                                   ("gf3",)),
    }
    return cases


def cli_cases():
    """Every cli case: the hand-written ones and six per generated seed,
    whose input files come from ``digrep generate`` run at set-up."""
    cases = named_cli_cases()
    for s in CLI_GEN_SEEDS:
        grep = _in("gen_seed%d_representation.json" % s)
        gdig = _in("gen_seed%d_digroup.json" % s)
        need = ("gen%d" % s,)
        cases["generate-%d" % s] = (_gen_argv(s, CLI_OUT), ())
        cases["check-gen-%d" % s] = (["check", "--json", grep], need)
        cases["check-gen-digroup-%d" % s] = (["check", "--json", gdig], need)
        cases["ext1-gen-%d" % s] = (["ext1", "--json", grep, grep], need)
        cases["collapse-gen-%d" % s] = (["collapse", "--json", grep, grep], need)
        cases["probe-gen-%d" % s] = (["probe", "--json", grep], need)
    return cases


# The documented expectation for the known defects, and an alternative
# accepted answer: a GF(3)-tagged file may also be answered over GF(3).
KNOWN_DEFECTS = {
    "defect-zero-denominator": "a '1/0' scalar must exit 2, not raise",
    "defect-field-4": "--field 4 must exit 2 (not prime), not 1",
    "defect-gf3-tag-ignored": "a GF(3)-tagged file must be read over GF(3) "
                              "or refused with exit 2",
}
GF3_ALTERNATIVE = ["check", "--json", "--field", "3", _in("gf3.json")]


def _malformed_docs(rep_doc):
    """Malformed variants of the bundled representation document."""
    def edited(fn):
        doc = json.loads(json.dumps(rep_doc))
        fn(doc)
        return json.dumps(doc, sort_keys=True)

    def scalar(value):
        def fn(doc):
            doc["lambda"]["0,0"][0][0] = value
        return fn

    def ragged(doc):
        doc["lambda"]["0,0"] = doc["lambda"]["0,0"][:1]

    def keys(doc):
        doc["lambda"]["9,9"] = doc["lambda"].pop("1,1")

    return {
        "bad_syntax.json": json.dumps(rep_doc)[:-7],
        "bad_scalar.json": edited(scalar("abc")),
        "bad_ragged.json": edited(ragged),
        "bad_keys.json": edited(keys),
        "zero_den.json": edited(scalar("1/0")),
    }


def run_cli(lib, argv):
    """In-process ``digrep`` call: (exit code, stdout text).

    An uncaught exception is reported as ``exception:<type>`` in place of
    an exit code; stderr is captured and dropped.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the exit-code contract is what is measured
            code = "exception:%s" % type(e).__name__
    return code, out.getvalue()


def demo_representation_mod3(lib):
    Matrix, f3 = lib.Matrix, lib.PrimeField(3)
    sign = {0: f3.of(1), 1: f3.of(-1)}
    p = {0: Matrix.from_rows(f3, [[1, 0], [0, 0]]),
         1: Matrix.from_rows(f3, [[1, 0], [1, 0]])}
    lam = {(g, a): p[a].scale(sign[g]) for g in range(2) for a in range(2)}
    rho = {(g, a): Matrix.identity(f3, 2).scale(sign[g])
           for g in range(2) for a in range(2)}
    return lib.Representation(lib.demo_digroup(), 2, lam, rho)


def write_cli_inputs(lib, needs):
    """Write the input files that the given needs tags call for."""
    os.makedirs(CLI_IN, exist_ok=True)
    os.makedirs(CLI_OUT, exist_ok=True)
    needs = set(needs)
    if "nonsplit" in needs or "malformed" in needs:
        code, _ = run_cli(lib, ["example", "nonsplit", "--out", CLI_IN])
        if code != 0:
            raise RuntimeError("cannot write the bundled example")
    if "malformed" in needs:
        with open(_in("nonsplit_representation.json")) as fh:
            rep_doc = json.load(fh)
        for name, text in _malformed_docs(rep_doc).items():
            with open(_in(name), "w") as fh:
                fh.write(text)
    if "gf3" in needs:
        # the bundled example mod 3: the sign -1 is stored as "2", so a
        # rational reading of the file is a different (invalid) object
        lib.serialize.save_path(_in("gf3.json"), lib.serialize.rep_to_json(
            demo_representation_mod3(lib)))
    for tag in sorted(needs):
        if tag.startswith("gen"):
            seed = int(tag[3:])
            code, _ = run_cli(lib, _gen_argv(seed, CLI_IN))
            if code != 0:
                raise RuntimeError("cannot generate cli seed %d" % seed)


def build_cli(lib, keys, ref):
    cases = cli_cases()
    needs = set()
    for key in keys:
        needs.update(cases[key][1])
    write_cli_inputs(lib, needs)
    return [(key, cases[key][0], ref["items"][key]) for key in keys]


def cli_op(lib, argv, expected):
    """Exit code and stdout bytes against the goldens recorded at baseline."""
    if list(run_cli(lib, argv)) in expected["accept"]:
        return "ok"
    return "xfail" if expected.get("known_defect") else "fail"


WORKLOADS = ("corpus", "corpus-gf7", "adjunction", "cli")


def build(lib, workload, keys, ref):
    """Inputs for ``keys`` made with the digrep package ``lib``: a list of
    (key, input, expected answer)."""
    if workload in ("corpus", "corpus-gf7"):
        return build_corpus(lib, workload, keys, ref)
    if workload == "adjunction":
        return build_adjunction(lib, keys, ref)
    if workload == "cli":
        return build_cli(lib, keys, ref)
    raise ValueError("unknown workload %r" % (workload,))


def operation(workload):
    """The workload's operation: ``op(lib, input, expected)`` -> status."""
    return {"corpus": corpus_op, "corpus-gf7": corpus_op,
            "adjunction": adjunction_op, "cli": cli_op}[workload]
