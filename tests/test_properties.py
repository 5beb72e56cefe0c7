"""Property tests of the JSON interchange and the command line.

Hypothesis runs derandomized with a bounded number of examples, so every
run draws the same inputs and the suite stays deterministic and fast.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from digrep import PrimeField, QQ, demo_ses, random_representation, seeded_rng
from digrep.cli import main
from digrep.serialize import dumps, rep_from_json, rep_to_json, ses_to_json

from _instances import sample_digroup

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

SES_DOC = ses_to_json(demo_ses())
REP_DOC = SES_DOC["V"]


def run_cli(argv, doc):
    """cli.main on argv with doc written to a file in place of "DOC"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        good = os.path.join(tmp, "good.json")
        with open(good, "w") as fh:
            json.dump(REP_DOC, fh)
        argv = [{"DOC": path, "GOOD": good}.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)


def paths_of(obj, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON value."""
    out = [prefix]
    if isinstance(obj, dict):
        for k, v in obj.items():
            out += paths_of(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out += paths_of(v, prefix + (i,))
    return out


DELETE = object()


def replaced(doc, path, value):
    """A deep copy of doc with the value at path replaced (or deleted if
    value is DELETE)."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9)
    | st.floats(-10, 10, allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6)

# (command line, document) pairs; DOC is the mutated document
TARGETS = [(["check", "--json", "DOC"], REP_DOC),
           (["ext1", "--json", "DOC", "GOOD"], REP_DOC),
           (["split", "--json", "DOC"], SES_DOC)]


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([QQ, PrimeField(7)]))
def test_rep_json_round_trip_is_byte_identical(seed, field):
    rng = seeded_rng(seed)
    d = sample_digroup(rng)
    r = random_representation(d, rng.randint(0, 3), rng, field)
    text = dumps(rep_to_json(r))
    back = rep_from_json(json.loads(text))
    assert back.field == field
    assert dumps(rep_to_json(back)) == text


@SETTINGS
@given(data=st.data())
def test_a_mutated_bundled_document_exits_0_1_or_2(data):
    argv, doc = data.draw(st.sampled_from(TARGETS))
    path = data.draw(st.sampled_from(paths_of(doc)))
    value = data.draw(JSON_VALUES if not path or isinstance(path[-1], int)
                      else JSON_VALUES | st.just(DELETE))
    assert run_cli(argv, replaced(doc, path, value)) in (0, 1, 2)


def _structure_integer_paths():
    group = REP_DOC["digroup"]["group"]
    out = [(REP_DOC, ("dim",)), (REP_DOC, ("digroup", "halo_size")),
           (REP_DOC, ("digroup", "group", "order"))]
    out += [(REP_DOC, ("digroup", "group", "mul", i, j))
            for i, row in enumerate(group["mul"]) for j in range(len(row))]
    out += [(REP_DOC, ("digroup", "action", i, j))
            for i, row in enumerate(REP_DOC["digroup"]["action"])
            for j in range(len(row))]
    out += [({"group": {"cyclic": 2}, "halo_size": 2}, ("group", "cyclic")),
            ({"group": {"symmetric": 3}, "halo_size": 1}, ("group", "symmetric"))]
    return out


STRUCTURE_INTEGERS = _structure_integer_paths()


def test_the_structure_integer_documents_are_valid():
    for doc, _ in STRUCTURE_INTEGERS:
        assert run_cli(["check", "--json", "DOC"], doc) == 0


@SETTINGS
@given(target=st.sampled_from(STRUCTURE_INTEGERS),
       value=st.floats(allow_nan=False, allow_infinity=False))
def test_a_structure_integer_replaced_by_a_non_integer_number_exits_2(target, value):
    doc, path = target
    assert run_cli(["check", "--json", "DOC"], replaced(doc, path, value)) == 2
