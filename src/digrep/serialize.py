"""JSON interchange for digroups, representations and exact sequences.

Scalars travel as canonical strings ("3", "-1/2", or a residue for prime
fields) so nothing depends on binary float behaviour, and all emitters
sort keys, so identical data produces byte-identical output.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

from .digroup import Digroup, FiniteGroup, GAction
from .linalg import Matrix, PrimeField, QQ
from .reps import (Representation, check_representation, require_ok,
                   require_valid)
from .ext import short_exact


class FormatError(ValueError):
    """Raised when an input document does not match the expected schema."""


# The largest digroup a document may describe, and the largest instance
# `digrep generate` makes (the dim cap is generate's alone).  Axiom checks
# scan every triple of the |G| * halo_size elements, so a loader applies
# the caps before any table is built or scanned.
WORK_CAPS = {"group_order": 6, "halo_size": 3, "dim": 4}

_PRIME_NAME = re.compile(r"[1-9][0-9]*")
_ELEM_KEY = re.compile(r"[0-9]+,[0-9]+")


def _json_int(x, what):
    """x if it is a JSON integer (not a bool); anything else is malformed.

    Every structure integer is read through here: no truncation of
    floats, no padded or signed text.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError("%s must be an integer, not %r" % (what, x))
    return x


def _capped(n, what):
    """n, unless it exceeds WORK_CAPS[what]: then the input is refused."""
    cap = WORK_CAPS[what]
    if n > cap:
        raise FormatError("%s cap exceeded (max %d): the document asks for %d"
                          % (what.replace("_", " "), cap, n))
    return n


def _int_table(rows, what):
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError("%s must be a list of rows" % what)
    return [[_json_int(x, what + " entry") for x in row] for row in rows]


def field_from_name(name):
    """QQ for "rational", GF(p) for a prime p written in ASCII digits."""
    if name == "rational":
        return QQ
    if not isinstance(name, str) or not _PRIME_NAME.fullmatch(name):
        raise FormatError("unknown field %r" % (name,))
    try:
        return PrimeField(int(name))
    except ValueError as e:
        raise FormatError("bad field %r: %s" % (name, e))


def field_to_name(field):
    return "rational" if field.char == 0 else str(field.char)


# -- groups and digroups --------------------------------------------------


def group_to_json(g):
    return {"order": g.order, "mul": [list(row) for row in g.mul]}


def group_from_json(obj):
    if not isinstance(obj, dict):
        raise FormatError("group must be an object")
    if "cyclic" in obj:
        return FiniteGroup.cyclic(
            _capped(_json_int(obj["cyclic"], "cyclic order"), "group_order"))
    if "symmetric" in obj:
        if _json_int(obj["symmetric"], "symmetric degree") != 3:
            raise FormatError("only the symmetric group on 3 points is built in")
        return FiniteGroup.symmetric3()
    if "mul" in obj:
        mul = _int_table(obj["mul"], "group table")
        _capped(len(mul), "group_order")
        if "order" in obj and _json_int(obj["order"], "group order") != len(mul):
            raise FormatError("declared order does not match the table")
        return FiniteGroup(mul)
    raise FormatError("group needs one of: cyclic, symmetric, mul")


def digroup_to_json(d):
    return {
        "group": group_to_json(d.group),
        "halo_size": d.halo_size,
        "action": [list(row) for row in d.action.act],
    }


def digroup_from_json(obj):
    if not isinstance(obj, dict):
        raise FormatError("digroup must be an object")
    try:
        group = group_from_json(obj["group"])
        m = _capped(_json_int(obj["halo_size"], "halo_size"), "halo_size")
        action = obj.get("action", "trivial")
        if action == "trivial":
            act = GAction.trivial(group, m)
        else:
            act = GAction(group, m, _int_table(action, "action table"))
        return Digroup(group, act)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise FormatError("bad digroup document: %s" % e)


# -- matrices and operator tables ----------------------------------------


def matrix_to_json(m):
    return [[m.field.fmt(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_json(obj, field, rows, cols, scalars=None):
    """The rows x cols matrix over field written as obj.

    scalars maps each JSON scalar read so far to its field scalar, so a
    value that repeats is parsed once; the matrices of one document share
    it (_table_from_json).
    """
    if not isinstance(obj, list) or len(obj) != rows:
        raise FormatError("expected %d matrix rows" % rows)
    if scalars is None:
        scalars = {}
    ents = []
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError("expected %d matrix columns" % cols)
        for x in row:
            # the exact types only: a bool is an int subclass, not a scalar
            v = scalars.get(x) if type(x) in (int, str) else None
            if v is None:
                v = scalars[x] = _scalar(x, field)
            ents.append(v)
    return Matrix(field, rows, cols, ents)


def _scalar(x, field):
    # a JSON number must be an integer (bool is an int subclass, not a scalar)
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise FormatError("bad scalar %r: expected an integer or a string" % (x,))
    try:
        return field.parse(x) if isinstance(x, str) else field.of(x)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError("bad scalar %r: %s" % (x, e))


def _elem_key(x):
    return "%d,%d" % x


def _elem_from_key(s):
    if not _ELEM_KEY.fullmatch(s):
        raise FormatError("bad element key %r" % (s,))
    g, a = s.split(",")
    return int(g), int(a)


def _table_to_json(table):
    return {_elem_key(x): matrix_to_json(m) for x, m in sorted(table.items())}


def _table_from_json(obj, d, field, dim, scalars):
    if not isinstance(obj, dict):
        raise FormatError("operator table must be an object")
    table = {}
    for key, mat in obj.items():
        x = _elem_from_key(key)
        if x in table:
            raise FormatError("element key %r repeats an element" % (key,))
        table[x] = matrix_from_json(mat, field, dim, dim, scalars)
    if sorted(table) != sorted(d.elements):
        raise FormatError("operator table keys do not match the digroup")
    return table


# -- representations ------------------------------------------------------


def rep_to_json(r):
    return {
        "digroup": digroup_to_json(r.digroup),
        "dim": r.dim,
        "field": field_to_name(r.field),
        "lambda": _table_to_json(r.lam),
        "rho": _table_to_json(r.rho),
    }


def rep_from_json(obj, field=None, validate=True, digroup=None):
    """Read a representation over the field its "field" tag names.

    An explicit field must match a prime tag; a rational document may be
    read over an explicit prime field, which reduces its scalars mod p.
    With digroup given, the document's own digroup block must have the
    same group table and action, and the given object is reused.
    """
    if not isinstance(obj, dict):
        raise FormatError("representation must be an object")
    try:
        own = digroup_from_json(obj["digroup"])
        if digroup is None:
            digroup = own
        elif (own.group.mul, own.action.act) != (digroup.group.mul, digroup.action.act):
            raise FormatError("document's digroup differs from the one it is read with")
        tagged = field_from_name(obj.get("field", "rational"))
        if field is None:
            field = tagged
        elif tagged not in (field, QQ):
            raise FormatError("document is over %r, not %r" % (tagged, field))
        dim = _json_int(obj["dim"], "dim")
        scalars = {}
        lam = _table_from_json(obj["lambda"], digroup, field, dim, scalars)
        rho = _table_from_json(obj["rho"], digroup, field, dim, scalars)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError("bad representation document: %s" % e)
    r = Representation(digroup, dim, lam, rho)
    return _require_axioms(r) if validate else r


def _require_axioms(r):
    """r, after the exhaustive R1-R5 report on its tables passes
    (check_representation: the error names each failing identity), with
    its semilinear form registered (require_valid)."""
    require_ok(check_representation(r), "representation axioms")
    return require_valid(r)


# -- short exact sequences ------------------------------------------------


def ses_to_json(s):
    return {
        "W": rep_to_json(s.W),
        "V": rep_to_json(s.V),
        "Q": rep_to_json(s.Q),
        "iota": matrix_to_json(s.iota),
        "pi": matrix_to_json(s.pi),
    }


def ses_from_json(obj, field=None):
    if not isinstance(obj, dict):
        raise FormatError("sequence must be an object")
    try:
        w = rep_from_json(obj["W"], field=field)
        v = rep_from_json(obj["V"], field=field, digroup=w.digroup)
        q = rep_from_json(obj["Q"], field=field, digroup=w.digroup)
        if not w.field == v.field == q.field:
            raise FormatError("sequence members are over different fields")
        iota = matrix_from_json(obj["iota"], w.field, v.dim, w.dim)
        pi = matrix_from_json(obj["pi"], w.field, q.dim, v.dim)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError("bad sequence document: %s" % e)
    return short_exact(w, v, q, iota, pi)


# -- reports and files ----------------------------------------------------


def dumps(obj):
    """Deterministic JSON text: sorted keys, two-space indent, newline.

    The bytes of json.dumps(obj, sort_keys=True, indent=2) + "\n" for the
    documents this package writes: dicts with str keys, lists, tuples,
    str, int, bool and None.  The indent turns json's C encoder off, so
    _write does the work; any other value (a float, a non-str key, a set)
    raises TypeError.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl, out):
    """Append obj to out as json.dumps writes it with indent=2, nl being the
    line break at obj's level; TypeError on any other value."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif type(obj) is int:
        out.append(repr(obj))
    elif isinstance(obj, (list, tuple)):
        inner, sep = nl + "  ", "["
        for x in obj:
            out.append(sep + inner)
            _write(x, inner, out)
            sep = ","
        out.append(nl + "]" if obj else "[]")
    elif isinstance(obj, dict):
        inner, sep = nl + "  ", "{"
        for k in sorted(obj):
            out.append(sep + inner + encode_basestring_ascii(k) + ": ")
            _write(obj[k], inner, out)
            sep = ","
        out.append(nl + "}" if obj else "{}")
    else:
        raise TypeError("not a plain JSON value: %s" % type(obj).__name__)


def load_path(path):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError("cannot read %s: %s" % (path, e))


def _unique_keys(pairs):
    # json.load keeps the last of two equal keys; a document with both
    # would read one way or the other depending only on their order
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise FormatError("a JSON object repeats a key")
    return obj


def save_path(path, obj):
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return text
