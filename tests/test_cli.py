import json
import re
import time
from fractions import Fraction

import pytest

from digrep import Matrix, PrimeField, QQ, direct_sum, short_exact
from digrep.cli import main
from digrep.serialize import (matrix_from_json, rep_from_json, rep_to_json, save_path,
                              ses_from_json, ses_to_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_example(tmp_path, capsys):
    code, _, _ = run(capsys, "example", "nonsplit", "--out", str(tmp_path))
    assert code == 0
    return {
        "digroup": str(tmp_path / "nonsplit_digroup.json"),
        "rep": str(tmp_path / "nonsplit_representation.json"),
        "subspace": str(tmp_path / "nonsplit_subspace.json"),
        "ses": str(tmp_path / "nonsplit_ses.json"),
    }


def test_example_then_check_passes(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    code, out, _ = run(capsys, "check", paths["digroup"])
    assert code == 0
    assert "all axioms pass" in out
    code, out, _ = run(capsys, "check", "--json", paths["rep"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert all(v["ok"] for v in report["axioms"].values())


def test_check_reports_broken_axiom(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    # corrupt one right operator so R3 (identity at the bar unit) fails
    key = sorted(doc["rho"])[0]
    doc["rho"][key] = [["2", "0"], ["0", "2"]]
    bad = tmp_path / "bad_rep.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--json", str(bad))
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    assert any(not v["ok"] for v in report["axioms"].values())


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "input error" in err
    missing_fields = tmp_path / "missing.json"
    missing_fields.write_text(json.dumps({"dim": 2}))
    code, _, err = run(capsys, "check", str(missing_fields))
    assert code == 2
    # an action entry outside the halo is refused by name, wherever it sits
    for act, entry in (([[0, 1], [2, 0]], "2 at (1,0)"), ([[0, 1], [1, -1]], "-1 at (1,1)")):
        outside = tmp_path / "outside.json"
        outside.write_text(json.dumps({"group": {"cyclic": 2}, "halo_size": 2, "action": act}))
        code, _, err = run(capsys, "check", str(outside))
        assert code == 2
        assert "bad digroup document: action entry %s is outside range(2)" % entry in err


def test_split_on_the_bundled_nonsplit_sequence(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    code, out, _ = run(capsys, "split", "--json", paths["ses"])
    assert code == 0
    report = json.loads(out)
    assert (report["dim_Z"], report["dim_B"], report["dim_ext"]) == (2, 1, 1)
    assert report["split"] is False
    assert report["witness"] is None
    assert report["certificate"] is not None
    # the certificate carries a nonzero cocycle value somewhere
    assert any(x != "0" for m in report["certificate"].values()
               for row in m for x in row)


def test_split_refuses_a_sequence_whose_pi_does_not_vanish_on_iota(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    with open(paths["ses"]) as fh:
        doc = json.load(fh)
    assert doc["iota"] == [["0"], ["1"]] and doc["pi"] == [["1", "0"]]
    doc["pi"] = [["1", "1"]]
    bad = tmp_path / "bad_ses.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "split", "--json", str(bad))
    assert (code, out) == (1, "")
    assert "pi o iota != 0" in err


def split_example(tmp_path, capsys):
    """(s, paths): s = W -> W + Q -> Q, for W -> V -> Q the bundled nonsplit
    sequence, and the paths of the files of s, W and Q."""
    paths = write_example(tmp_path, capsys)
    with open(paths["ses"]) as fh:
        s = ses_from_json(json.load(fh))
    w, q = s.W, s.Q
    v = direct_sum(w, q)
    ident = Matrix.identity(QQ, v.dim)
    split = short_exact(w, v, q, ident.block(0, 0, v.dim, w.dim),
                        ident.block(w.dim, 0, q.dim, v.dim))
    paths = {}
    for name, doc in (("ses", ses_to_json(split)), ("W", rep_to_json(w)), ("Q", rep_to_json(q))):
        paths[name] = str(tmp_path / ("split_%s.json" % name))
        save_path(paths[name], doc)
    return split, paths


def test_split_returns_a_witness_for_a_direct_sum(tmp_path, capsys):
    s, paths = split_example(tmp_path, capsys)
    code, out, _ = run(capsys, "split", "--json", paths["ses"])
    assert code == 0
    report = json.loads(out)
    # Ext^1(Q, W) is not 0, but this sequence's class is
    assert (report["dim_ext"], report["split"], report["certificate"]) == (1, True, None)
    sec = matrix_from_json(report["witness"], QQ, s.V.dim, s.Q.dim)
    assert s.pi * sec == Matrix.identity(QQ, s.Q.dim)
    for x in s.V.digroup.elements:
        assert s.V.lam[x] * sec == sec * s.Q.lam[x]
        assert s.V.rho[x] * sec == sec * s.Q.rho[x]


def test_probe_prints_a_finding(tmp_path, capsys):
    _, paths = split_example(tmp_path, capsys)
    code, out, _ = run(capsys, "probe", paths["Q"], paths["W"])
    assert code == 0
    assert "nonsplit extension: quotient #0 by sub #1 (dim 1)\n" in out
    assert out.endswith("category is not semisimple\n")


def test_ext1_cross_check_agrees(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    # self-extensions of the full representation: all three methods must agree
    code, out, _ = run(capsys, "ext1", "--json", paths["rep"], paths["rep"])
    assert code == 0
    report = json.loads(out)
    assert report["oracles_agree"]
    assert report["collapse_ok"]
    assert report["ext1_rep_dim"] == report["ext1_derivation_dim"]
    assert report["ext1_rep_dim"] == report["ext1_BE_invariant_dim"]


def test_collapse_report(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    code, out, _ = run(capsys, "collapse", "--json", paths["rep"], paths["rep"])
    assert code == 0
    report = json.loads(out)
    assert report["collapse_ok"]
    for key in ("hom_BE_dim", "invariants_dim", "hom_rep_dim",
                "ext1_BE_dim", "ext1_BE_invariant_dim", "ext1_rep_dim"):
        assert key in report


def test_probe_finds_the_nonsplit_pair(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    code, out, _ = run(capsys, "probe", "--json", paths["rep"], paths["rep"])
    assert code == 0
    report = json.loads(out)
    assert report["pairs_checked"] >= 1
    assert isinstance(report["semisimple"], bool)


def test_generate_is_deterministic_per_seed(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run(capsys, "generate", "--seed", "5",
                         "--group-order", "3", "--halo-size", "2",
                         "--dim", "2", "--out", str(out))
        assert code == 0
    for name in ("gen_seed5_digroup.json", "gen_seed5_representation.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_output_is_checkable(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--seed", "3", "--symmetric3",
                     "--halo-size", "2", "--dim", "2", "--out", str(tmp_path))
    assert code == 0
    code, _, _ = run(capsys, "check",
                     str(tmp_path / "gen_seed3_representation.json"))
    assert code == 0


def test_generate_caps_are_enforced(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--group-order", "7",
                       "--out", str(tmp_path))
    assert code == 2
    code, _, err = run(capsys, "generate", "--halo-size", "4",
                       "--out", str(tmp_path))
    assert code == 2
    code, _, err = run(capsys, "generate", "--dim", "5", "--out", str(tmp_path))
    assert code == 2
    code, _, err = run(capsys, "generate", "--field", "5", "--out", str(tmp_path))
    assert code == 2


def test_json_reports_are_byte_deterministic(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    _, out1, _ = run(capsys, "split", "--json", paths["ses"])
    _, out2, _ = run(capsys, "split", "--json", paths["ses"])
    assert out1 == out2
    _, out1, _ = run(capsys, "ext1", "--json", paths["rep"], paths["rep"])
    _, out2, _ = run(capsys, "ext1", "--json", paths["rep"], paths["rep"])
    assert out1 == out2


def test_prime_field_round_trip_through_the_cli(tmp_path, capsys):
    # the bundled example stays valid after reducing mod 5
    paths = write_example(tmp_path, capsys)
    code, out, _ = run(capsys, "check", "--json", "--field", "5", paths["rep"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_zero_denominator_scalar_exits_2(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    doc["lambda"]["0,0"][0][0] = "1/0"
    bad = tmp_path / "zero_den.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--json", str(bad))
    assert (code, out) == (2, "")
    assert "input error" in err


def test_field_that_is_not_prime_exits_2(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    code, out, err = run(capsys, "ext1", "--json", "--field", "4",
                         paths["rep"], paths["rep"])
    assert (code, out) == (2, "")
    assert "input error" in err


def test_file_field_tag_is_authoritative(tmp_path, capsys):
    # the bundled example mod 3, with the sign -1 stored as "2": read over
    # Q it would be a different, invalid object (rho_g^2 = 4 I)
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        text = fh.read()
    doc = json.loads(text.replace('"-1"', '"2"'))
    doc["field"] = "3"
    gf3 = tmp_path / "gf3.json"
    gf3.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--json", str(gf3))
    assert code == 0 and json.loads(out)["ok"]
    assert run(capsys, "check", "--json", "--field", "3", str(gf3))[:2] == (0, out)
    for field in ("rational", "5"):
        code, out, err = run(capsys, "check", "--json", "--field", field, str(gf3))
        assert (code, out) == (2, "")
        assert "input error" in err
    # two files over different fields cannot be paired
    code, out, _ = run(capsys, "ext1", "--json", str(gf3), paths["rep"])
    assert (code, out) == (2, "")


def test_field_p_reduces_each_fraction_of_a_rational_file(tmp_path, capsys):
    # generate writes rational files with entries such as "-1/13"; read with
    # --field p, each n/q is n q^-1 mod p, and a q that p divides is refused
    assert run(capsys, "generate", "--seed", "3", "--group-order", "2", "--halo-size", "2",
               "--dim", "3", "--out", str(tmp_path))[0] == 0
    path = str(tmp_path / "gen_seed3_representation.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert '"-1/13"' in json.dumps(doc)
    code, out, _ = run(capsys, "check", "--json", "--field", "7", path)
    assert code == 0 and json.loads(out)["ok"]
    assert run(capsys, "ext1", "--field", "7", path, path)[0] == 0
    r = rep_from_json(doc, field=PrimeField(7))
    for name, table in (("lambda", r.lam), ("rho", r.rho)):
        for key, rows in doc[name].items():
            want = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, 7) % 7
                     for x in row] for row in rows]
            g, a = map(int, key.split(","))
            assert [[x.v for x in row] for row in table[(g, a)].to_lists()] == want
    code, out, err = run(capsys, "ext1", "--field", "13", path, path)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"input error: bad scalar '-?[0-9]+/13': 13 divides its denominator\n",
                        err), err


def test_field_p_reduces_the_maps_of_a_rational_sequence(tmp_path, capsys):
    # iota halved: still a sequence over Q, and over GF(7) once 1/2 is 4
    paths = write_example(tmp_path, capsys)
    with open(paths["ses"]) as fh:
        doc = json.load(fh)
    assert doc["iota"] == [["0"], ["1"]]
    doc["iota"] = [["0"], ["1/2"]]
    halved = str(tmp_path / "halved.json")
    save_path(halved, doc)
    for field in ([], ["--field", "7"]):
        code, out, _ = run(capsys, "split", "--json", *field, halved)
        assert code == 0 and json.loads(out)["split"] is False
    assert run(capsys, "split", "--field", "2", halved) == (
        2, "", "input error: bad scalar '1/2': 2 divides its denominator\n")


def test_a_prime_file_accepts_integer_text_only(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    doc["field"] = "7"
    doc["lambda"]["0,0"][0][0] = "1/2"
    bad = str(tmp_path / "gf7.json")
    save_path(bad, doc)
    for field in ([], ["--field", "7"]):
        assert run(capsys, "check", *field, bad) == (
            2, "", "input error: bad scalar '1/2': not a canonical scalar: '1/2'\n")


def test_non_integer_json_number_scalar_exits_2(tmp_path, capsys):
    # truncating 0.5 to 0 would turn malformed input (exit 2) into an axiom failure (exit 1)
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    doc["lambda"]["0,0"][0][0] = 0.5
    bad = tmp_path / "half.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--json", str(bad))
    assert (code, out) == (2, "")
    assert "input error" in err
    # integers given as JSON numbers are still scalars; booleans are not
    doc["lambda"]["0,0"][0][0] = 1
    good = tmp_path / "number.json"
    good.write_text(json.dumps(doc))
    assert run(capsys, "check", "--json", paths["rep"])[:2] == \
        run(capsys, "check", "--json", str(good))[:2]
    doc["lambda"]["0,0"][0][0] = True
    bad.write_text(json.dumps(doc))
    assert run(capsys, "check", "--json", str(bad))[:2] == (2, "")


@pytest.mark.parametrize("text", ["0.5", "1e30", "1_0", " 1 "])
def test_non_canonical_string_scalar_exits_2(tmp_path, capsys, text):
    # only "n" and "p/q" are scalars; Python's looser number syntax is not
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    doc["lambda"]["0,0"][0][0] = text
    bad = tmp_path / "loose.json"
    bad.write_text(json.dumps(doc))
    for field in ([], ["--field", "5"]):
        code, out, err = run(capsys, "check", "--json", *field, str(bad))
        assert (code, out) == (2, "")
        assert "input error" in err


def test_second_file_digroup_is_parsed_and_must_match(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    other = tmp_path / "other.json"
    for change in ({"group": {"cyclic": 3}},        # no valid digroup at all
                   {"action": [[0, 1], [1, 0]]}):   # valid, but not the first file's
        changed = json.loads(json.dumps(doc))
        changed["digroup"].update(change)
        other.write_text(json.dumps(changed))
        for cmd in (["ext1", "--json", paths["rep"], str(other)],
                    ["collapse", "--json", paths["rep"], str(other)],
                    ["probe", "--json", paths["rep"], str(other)]):
            code, out, err = run(capsys, *cmd)
            assert (code, out) == (2, ""), cmd
            assert "input error" in err
    # an equal digroup block still pairs
    other.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "ext1", "--json", paths["rep"], str(other))
    assert code == 0


def test_a_digroup_over_the_work_caps_exits_2_before_any_scan(tmp_path, capsys):
    # the first document took minutes of exhaustive axiom scans, then exited 0
    c7 = [[(i + j) % 7 for j in range(7)] for i in range(7)]
    doc_path = tmp_path / "big.json"
    for doc, cap in (({"group": {"cyclic": 2}, "halo_size": 150},
                      "halo size cap exceeded (max 3)"),
                     ({"group": {"cyclic": 7}, "halo_size": 1},
                      "group order cap exceeded (max 6)"),
                     ({"group": {"mul": c7}, "halo_size": 1},
                      "group order cap exceeded (max 6)")):
        for text in (json.dumps(doc),
                     json.dumps({"digroup": doc, "dim": 1, "lambda": {},
                                 "rho": {}})):
            doc_path.write_text(text)
            t0 = time.perf_counter()
            code, out, err = run(capsys, "check", "--json", str(doc_path))
            assert time.perf_counter() - t0 < 1, doc
            assert (code, out) == (2, ""), doc
            assert cap in err
    # at the caps a document still loads and is checked
    doc_path.write_text(json.dumps({"group": {"symmetric": 3}, "halo_size": 3}))
    code, out, _ = run(capsys, "check", "--json", str(doc_path))
    assert code == 0 and json.loads(out)["ok"]


def _rename_key(table, old, new):
    return {(new if k == old else k): v for k, v in table.items()}


STRUCTURE_INTEGER_EDITS = {
    "dim-float": lambda doc: doc.update(dim=2.9),
    "halo-size-padded-text": lambda doc: doc["digroup"].update(halo_size=" 2 "),
    "cyclic-float": lambda doc: doc["digroup"].update(group={"cyclic": 2.5}),
    "order-float": lambda doc: doc["digroup"]["group"].update(order=2.7),
    "field-float": lambda doc: doc.update(field=5.9),
    "field-padded-text": lambda doc: doc.update(field=" 5"),
    "mul-bools": lambda doc: doc["digroup"]["group"].update(
        mul=[[False, True], [True, False]]),
    "element-key-signed": lambda doc: doc.update(
        {"lambda": _rename_key(doc["lambda"], "0,0", "0,+0")}),
}


@pytest.mark.parametrize("edit", sorted(STRUCTURE_INTEGER_EDITS))
def test_structure_integer_that_is_not_a_json_integer_exits_2(tmp_path, capsys,
                                                              edit):
    # int() would truncate 2.9 and 5.9, strip " 2 " and " 5", and read
    # "+0" and true
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    STRUCTURE_INTEGER_EDITS[edit](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--json", str(bad))
    assert (code, out) == (2, "")
    assert "input error" in err


def test_two_keys_for_one_element_exit_2_in_either_order(tmp_path, capsys):
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    good, wrong = doc["lambda"]["0,0"], [["5", "0"], ["0", "5"]]
    rest = {k: v for k, v in doc["lambda"].items() if k != "0,0"}
    for keys in (("0,+0", "0,0"), ("0,0", "0,+0"), ("0,00", "0,0")):
        for values in ((good, wrong), (wrong, good)):
            doc["lambda"] = dict(zip(keys, values), **rest)
            bad = tmp_path / "dup.json"
            bad.write_text(json.dumps(doc))
            code, out, err = run(capsys, "check", "--json", str(bad))
            assert (code, out) == (2, ""), (keys, values)
            assert "input error" in err
    # the same key written twice, which json.load would collapse to the last
    for first, second in ((good, wrong), (wrong, good)):
        doc["lambda"] = dict(rest, **{"0,0": first})   # before "rho"
        twice = json.dumps(doc).replace(
            '"0,0": ', '"0,0": %s, "0,0": ' % json.dumps(second), 1)
        bad.write_text(twice)
        code, out, err = run(capsys, "check", "--json", str(bad))
        assert (code, out) == (2, "")
        assert "input error" in err


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    import weakref

    from digrep import Matrix, QQ, Representation, cli, demo_representation, reps
    from digrep.serialize import rep_to_json, save_path

    paths = write_example(tmp_path, capsys)
    # the bundled representation conjugated by diag(1, 7): a rational file
    # with the entry 1/7, which a --field 7 left over from a call before
    # would refuse (exit 2)
    v = demo_representation()
    s, s_inv = (Matrix.from_rows(QQ, [[1, 0], [0, c]]) for c in (7, QQ.of(1) / 7))
    seventh = Representation(v.digroup, 2, {x: s_inv * m * s for x, m in v.lam.items()},
                             {x: s_inv * m * s for x, m in v.rho.items()})
    seventh_path = str(tmp_path / "seventh.json")
    save_path(seventh_path, rep_to_json(seventh))
    calls = [["example", "nonsplit", "--out", str(tmp_path)],
             ["check", "--json", paths["rep"]],
             ["ext1", "--json", "--field", "7", paths["rep"], paths["rep"]],
             ["ext1", "--json", seventh_path, seventh_path],
             ["ext1", "--field"],
             ["generate", "--seed", "3", "--out", str(tmp_path)]]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        return code, capsys.readouterr().out

    first = []
    for argv in calls:   # each call first in its process: fresh parser and registry
        monkeypatch.setattr(cli, "_the_parser", None)
        monkeypatch.setattr(reps, "_done", weakref.WeakKeyDictionary())
        first.append(call(argv))
    assert [code for code, _ in first] == [0, 0, 0, 0, 2, 0]
    monkeypatch.setattr(cli, "_the_parser", None)
    built.clear()
    assert [call(argv) for argv in calls] == first
    assert built == [1]


def test_an_input_named_twice_is_read_and_checked_once(tmp_path, capsys, monkeypatch):
    import shutil

    from digrep import Matrix, QQ, Representation, cli, demo_representation, serialize

    paths = write_example(tmp_path, capsys)
    rep = paths["rep"]
    copy = str(tmp_path / "copy.json")   # F': a byte copy of F
    shutil.copyfile(rep, copy)
    # another document over the same digroup: F conjugated by diag(1, 2)
    v = demo_representation()
    s, s_inv = (Matrix.from_rows(QQ, [[1, 0], [0, c]]) for c in (2, QQ.of(1) / 2))
    other = str(tmp_path / "other.json")
    serialize.save_path(other, serialize.rep_to_json(Representation(
        v.digroup, 2, {x: s_inv * m * s for x, m in v.lam.items()},
        {x: s_inv * m * s for x, m in v.rho.items()})))
    # F'': F's document with its lambda table in the reverse key order: the
    # same representation, but other JSON, so it is read and checked on its own
    reordered = tmp_path / "reordered.json"
    with open(rep) as fh:
        doc = json.load(fh)
    doc["lambda"] = dict(reversed(list(doc["lambda"].items())))
    reordered.write_text(json.dumps(doc))
    checked, read = [], []
    check, load = serialize.check_representation, cli.load_path
    monkeypatch.setattr(serialize, "check_representation",
                        lambda r: checked.append(r) or check(r))
    monkeypatch.setattr(cli, "load_path", lambda p: read.append(p) or load(p))
    answers = {}
    for cmd in ("ext1", "collapse", "probe"):
        del checked[:], read[:]
        answers[cmd] = run(capsys, cmd, "--json", rep, rep)
        assert answers[cmd][0] == 0 and (len(checked), read) == (1, [rep]), cmd
        del checked[:], read[:]
        assert run(capsys, cmd, "--json", rep, copy) == answers[cmd], cmd
        assert (len(checked), read) == (1, [rep, copy]), cmd
        del checked[:]
        assert run(capsys, cmd, "--json", rep, str(reordered)) == answers[cmd], cmd
        assert len(checked) == 2, cmd
    # distinct documents are each checked once, however often they are named
    del checked[:]
    assert run(capsys, "probe", "--json", other, rep, copy, other, rep)[0] == 0
    assert len(checked) == 2
    # a second main() call reads and checks its inputs again
    del checked[:], read[:]
    assert run(capsys, "ext1", "--json", rep, rep) == answers["ext1"]
    assert (len(checked), read) == (1, [rep])


def test_an_equal_looking_document_with_other_json_types_is_refused(tmp_path, capsys):
    # 2 == 2.0 and 1 == True in Python, but not in the document's JSON text:
    # the second file is read on its own and refused
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    for edit in (lambda d: d.update(dim=2.0),
                 lambda d: d["digroup"].update(halo_size=True if d["digroup"]["halo_size"] == 1
                                               else float(d["digroup"]["halo_size"]))):
        changed = json.loads(json.dumps(doc))
        edit(changed)
        assert changed == doc
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(changed))
        for cmd in ("ext1", "collapse", "probe"):
            code, out, err = run(capsys, cmd, "--json", paths["rep"], str(bad))
            assert (code, out) == (2, ""), cmd
            assert "input error" in err


def test_dumps_writes_the_bytes_of_json_dumps(tmp_path, capsys):
    # every JSON stdout of the recorded cli runs, the example documents and
    # the cli's own --json reports, then the corner cases; a value no cli
    # report holds (a float, a non-str key, a set, bytes) raises TypeError
    import pathlib

    from digrep.serialize import dumps

    def former(obj):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    ref = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "cli.json"
    goldens = [out for item in json.loads(ref.read_text())["items"].values()
               for _, out in item["accept"] if out.startswith(("{", "["))]
    assert len(goldens) > 100
    for text in goldens:
        assert dumps(json.loads(text)) == former(json.loads(text)) == text
    paths = write_example(tmp_path, capsys)
    docs = [json.loads(pathlib.Path(p).read_text()) for p in paths.values()]
    docs.append(json.loads(run(capsys, "ext1", "--json", paths["rep"], paths["rep"])[1]))
    docs += [{}, [], {"a": [], "b": {}, "c": [[], [{}]]}, [[[]]], {"é": "ü\x00\n\"\\ ☃"},
             [True, False, None, 0, -7, 10 ** 40], ("a", ("b",)), {"k": {"j": {"i": None}}},
             "text", 3, True, None, -10 ** 40]
    for obj in docs:
        assert dumps(obj) == former(obj), obj
    for bad in (2.5, [float("nan")], {"a": [1.5]}, {1: "x"}, {1: 1, "a": 2}, {(1, 2): 3},
                [set()], {"a": b"x"}, object()):
        with pytest.raises(TypeError):
            dumps(bad)


LOADER_FIELDS = ("rational", "7", "3")


def loader_documents(tmp_path, capsys, name):
    """(document, field) pairs over the field named: the cli inputs (the
    bundled representation, the members of the bundled sequence and
    generated files), read with --field p over a prime field, and corpus
    representations written over the field itself."""
    from digrep.serialize import field_from_name, load_path
    from _instances import sample_pair
    field = field_from_name(name)
    paths = write_example(tmp_path, capsys)
    ses = load_path(paths["ses"])
    docs = [load_path(paths["rep"]), ses["W"], ses["V"], ses["Q"]]
    for seed, extra in enumerate((["--symmetric3"], ["--group-order", "3"], ["--dim", "3"])):
        out = tmp_path / ("gen%d" % seed)
        assert run(capsys, "generate", "--seed", str(seed), "--out", str(out), *extra)[0] == 0
        docs.append(load_path(str(out / ("gen_seed%d_representation.json" % seed))))
    read = [(doc, None if name == "rational" else field) for doc in docs]
    for seed in range(1000, 1200, 20):
        read += [(rep_to_json(r), None) for r in sample_pair(seed, field=field)[1:]]
    return read


@pytest.mark.parametrize("name", LOADER_FIELDS)
def test_the_loader_registers_the_view_that_require_valid_decides(tmp_path, capsys, name):
    # the view read off tables that passed the exhaustive R1-R5 report is
    # the one the generator checks of _verified_view verify and return
    from digrep import reps
    from digrep.serialize import rep_from_json
    for doc, field in loader_documents(tmp_path, capsys, name):
        r = rep_from_json(doc, field=field)
        assert reps._view(r) == reps._verified_view(r)


@pytest.mark.parametrize("name", LOADER_FIELDS)
def test_a_loaded_document_is_checked_once_exhaustively_and_not_again(tmp_path, capsys,
                                                                     monkeypatch, name):
    from digrep import hom_rep, reps, require_valid, rho_group_form, serialize
    docs = loader_documents(tmp_path, capsys, name)
    ses = serialize.load_path(write_example(tmp_path, capsys)["ses"])
    checked, decided = [], []
    check, decide = serialize.check_representation, reps.check_semilinear_on_generators
    monkeypatch.setattr(serialize, "check_representation",
                        lambda r: checked.append(r) or check(r))
    monkeypatch.setattr(reps, "check_semilinear_on_generators",
                        lambda m: decided.append(m) or decide(m))
    for doc, field in docs:
        del checked[:]
        r = serialize.rep_from_json(doc, field=field)
        require_valid(r)
        rho_group_form(r)
        hom_rep(r, r)
        assert (checked, decided) == ([r], [])
    # a sequence document: each member once, and its exactness on the views
    del checked[:]
    s = ses_from_json(ses, field=None if name == "rational" else docs[0][1])
    assert (checked, decided) == ([s.W, s.V, s.Q], [])


@pytest.mark.parametrize("field", ([], ["--field", "7"], ["--field", "3"]))
def test_a_document_that_fails_the_axioms_exits_1_naming_them(tmp_path, capsys, field):
    paths = write_example(tmp_path, capsys)
    with open(paths["rep"]) as fh:
        doc = json.load(fh)
    doc["rho"][sorted(doc["rho"])[0]] = [["2", "0"], ["0", "2"]]
    bad = str(tmp_path / "bad.json")
    save_path(bad, doc)
    err = ("error: representation axioms fail: {'R2': ((0, 0), (0, 0)), 'R3': (0, 0), "
           "'R4': ((0, 0), (0, 0)), 'R5': ((0, 0), (0, 0))}\n")
    for cmd in ("ext1", "collapse", "probe"):
        for pair in ((paths["rep"], bad), (bad, paths["rep"])):
            assert run(capsys, cmd, *field, *pair) == (1, "", err), (cmd, pair)


def test_a_sequence_builds_its_digroup_once(tmp_path, capsys, monkeypatch):
    # V and Q write the digroup block of W, so digroup_from_json hands them
    # W's digroup; any other block is read on its own and refused as before
    from digrep import digroup, serialize
    from digrep.serialize import FormatError
    paths = write_example(tmp_path, capsys)
    built = []
    init = digroup.FiniteGroup.__init__
    monkeypatch.setattr(digroup.FiniteGroup, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.setattr(serialize, "_digroups", {})
    answer = run(capsys, "split", paths["ses"])
    assert answer[0] == 0 and len(built) == 1
    assert run(capsys, "split", paths["ses"]) == answer and len(built) == 1
    with open(paths["ses"]) as fh:
        ses = json.load(fh)
    member = str(tmp_path / "w.json")
    save_path(member, ses["W"])
    for cmd in ("ext1", "collapse", "probe"):
        del built[:]
        serialize._digroups.clear()
        assert run(capsys, cmd, paths["rep"], member)[0] == 0
        assert len(built) == 1, cmd
    for who, edit, message in [
            ("V", lambda d: d.update(halo_size="x"), "halo_size must be an integer, not 'x'"),
            ("V", lambda d: d.update(halo_size=2.0), "halo_size must be an integer, not 2.0"),
            ("V", lambda d: d["group"]["mul"][0].__setitem__(0, True),
             "group table entry must be an integer, not True"),
            ("V", lambda d: d.update(group={"cyclic": 3}),
             "bad digroup document: action table shape mismatch"),
            ("V", lambda d: d.update(action=[[0, 1], [1, 0]]),
             "document's digroup differs from the one it is read with"),
            ("Q", lambda d: d.update(halo_size=4),
             "halo size cap exceeded (max 3): the document asks for 4")]:
        doc = json.loads(json.dumps(ses))
        edit(doc[who]["digroup"])
        with pytest.raises(FormatError) as err:
            ses_from_json(doc)
        assert str(err.value) == message
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))   # save_path writes no float
        assert run(capsys, "split", str(path)) == (2, "", "input error: %s\n" % message)
    # equal blocks in another form (a named group, the trivial action) still pair
    doc = json.loads(json.dumps(ses))
    doc["V"]["digroup"].update(action="trivial")
    doc["Q"]["digroup"].update(group={"cyclic": 2})
    path = str(tmp_path / "equal.json")
    save_path(path, doc)
    assert run(capsys, "split", path) == answer
