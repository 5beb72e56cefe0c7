"""Outside-in layer tracing: spans around digrep's public functions.

The tracer wraps the functions in ``LAYERS`` from outside the package.
Methods of ``Matrix`` and ``Digroup`` are patched on the class.  A
module-level function is patched in every digrep module that binds it,
because ``from .linalg import span_basis`` copies the name into the
importing module.  Each call records a span (name, start, end, parent
span, operation id) in memory; per-name call counts, self times (span
time minus the time its child spans cover) and work counts are kept as
the spans close.  Single-threaded use only, like the benchmark itself.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array


def _rep_key(r):
    return (r.dim, tuple(sorted((x, m.entries) for x, m in r.lam.items())),
            tuple(sorted((x, m.entries) for x, m in r.rho.items())))


def _family_key(theta):
    return tuple(sorted((x, m.entries) for x, m in theta.items()))


# name -> (module, class or None, attribute, work counter or None)
# A counter maps the call's (args, kwargs) to {stat: increment}; a stat
# named "distinct" is a hashable content key, counted once per value.
LAYERS = {
    "linalg.mul": ("linalg", "Matrix", "__mul__",
                   lambda a, k: {"madds": a[0].rows * a[0].cols
                                 * getattr(a[1], "cols", 0)}),
    "linalg.rref": ("linalg", "Matrix", "rref",
                    lambda a, k: {"cells": a[0].rows * a[0].cols}),
    "linalg.sparse_kernel": ("linalg", None, "sparse_kernel",
                             lambda a, k: {"rows": len(a[1]), "unknowns": a[0]}),
    "linalg.span_basis": ("linalg", None, "span_basis",
                          lambda a, k: {"vectors": len(a[0])
                                        if hasattr(a[0], "__len__") else 0}),
    "linalg.solve": ("linalg", None, "solve", None),
    "ext.check_cocycle": ("ext", None, "check_cocycle",
                          lambda a, k: {"distinct": (_family_key(a[0]),
                                                     _rep_key(a[1]),
                                                     _rep_key(a[2]))}),
    "ext.hom_rho": ("ext", None, "hom_rho",
                    lambda a, k: {"distinct": (_rep_key(a[0]), _rep_key(a[1]))}),
    "ext.cocycle_space": ("ext", None, "cocycle_space", None),
    "ext.coboundary": ("ext", None, "coboundary", None),
    "ext.ext1_dim": ("ext", None, "ext1_dim", None),
    "ext.is_split": ("ext", None, "is_split", None),
    "ext.extension_from_cocycle": ("ext", None, "extension_from_cocycle", None),
    "ext.average_section": ("ext", None, "average_section", None),
    "ext.block_decompose": ("ext", None, "block_decompose", None),
    "reps.check_representation": ("reps", None, "check_representation", None),
    "reps.hom_rep": ("reps", None, "hom_rep", None),
    "reps.rho_group_form": ("reps", None, "rho_group_form", None),
    "reps.require_valid": ("reps", None, "require_valid", None),
    "envalg.build_enveloping_algebra": ("envalg", None,
                                        "build_enveloping_algebra", None),
    "envalg.rep_to_module": ("envalg", None, "rep_to_module", None),
    "envalg.check_module": ("envalg", None, "check_module", None),
    "envalg.derivation_ext1": ("envalg", None, "derivation_ext1",
                               lambda a, k: {"unknowns": a[0].dim * a[1].dim
                                             * a[2].dim}),
    "halo.verify_collapse": ("halo", None, "verify_collapse", None),
    "halo.ext1_BE": ("halo", None, "ext1_BE", None),
    "halo.g_action_on_hom": ("halo", None, "g_action_on_hom", None),
    "halo.hom_BE": ("halo", None, "hom_BE", None),
    "halo.invariants": ("halo", None, "invariants", None),
    "halo.verify_adjunction": ("halo", None, "verify_adjunction", None),
    "halo.induction_L": ("halo", None, "induction_L", None),
    "serialize.load_path": ("serialize", None, "load_path", None),
    "serialize.rep_from_json": ("serialize", None, "rep_from_json", None),
    "serialize.ses_from_json": ("serialize", None, "ses_from_json", None),
    "serialize.dumps": ("serialize", None, "dumps", None),
    "cli.main": ("cli", None, "main", None),
    "digroup.Digroup.check_axioms": ("digroup", "Digroup", "check_axioms", None),
}

# extra stats per layer, beyond calls and self_s, in report order
EXTRA_STATS = {
    "linalg.mul": ("madds",),
    "linalg.rref": ("cells",),
    "linalg.sparse_kernel": ("rows", "unknowns"),
    "linalg.span_basis": ("vectors",),
    "ext.check_cocycle": ("distinct_ratio",),
    "ext.hom_rho": ("distinct_ratio",),
    "reps.require_valid": ("miss_ratio",),
    "envalg.derivation_ext1": ("unknowns",),
}

OP = "op"  # the benchmark's own span around one operation


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in LAYERS:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
        for stat in EXTRA_STATS.get(name, ()):
            out.append((name + "." + stat,
                        "ratio" if stat.endswith("_ratio") else "count"))
    out.append(("trace.layer_self_share", "ratio"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span recorder; ``install`` patches digrep, ``uninstall`` restores it."""

    def __init__(self):
        self.names = [OP] + list(LAYERS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {}
        self.distinct = {}
        self.op_id = -1
        self._stack = []
        self._child = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def span(self, nid, fn, counter=None):
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        stack, child = self._stack, self._child
        calls, selfs = self.calls, self.self_s
        perf = time.perf_counter
        counts, distinct = self.counts, self.distinct
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                tc = perf()
                for stat, v in counter(args, kwargs).items():
                    if stat == "distinct":
                        distinct.setdefault(nid, set()).add(v)
                    else:
                        key = (nid, stat)
                        counts[key] = counts.get(key, 0) + v
                # the counter's own time is tracing overhead: it is kept
                # out of this span and out of the caller's self time
                if child:
                    child[-1] += perf() - tc
            t0 = perf()
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(t0)
            ends.append(t0)
            stack.append(idx)
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                ends[idx] = t1
                calls[nid] += 1
                selfs[nid] += dur - inner
                if child:
                    child[-1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation inside its own root span."""
        self.op_id = op_id
        return self.span(0, fn)(*args)

    # -- patching -----------------------------------------------------------

    def install(self):
        """Patch the layers; digrep and digrep.cli must be imported first."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "digrep" or n.startswith("digrep."))]
        for name, (modname, clsname, attr, counter) in LAYERS.items():
            mod = sys.modules["digrep." + modname]
            nid = self.ids[name]
            if clsname is not None:
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.span(nid, orig, counter))
                self._patches.append((cls, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(nid, orig, counter)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)
                        self._patches.append((m, k, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """calls, self_s and work stats for every layer, zeros if unused."""
        op_total = sum(self.span_end[i] - self.span_start[i]
                       for i in range(len(self.span_name))
                       if self.span_name[i] == 0)
        rv, cr = self.ids["reps.require_valid"], self.ids["reps.check_representation"]
        misses = sum(1 for i in range(len(self.span_name))
                     if self.span_name[i] == cr and self.span_parent[i] >= 0
                     and self.span_name[self.span_parent[i]] == rv)
        out = {}
        layer_self = 0.0
        for name in LAYERS:
            nid = self.ids[name]
            calls = self.calls[nid]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self.self_s[nid]
            layer_self += self.self_s[nid]
            for stat in EXTRA_STATS.get(name, ()):
                if stat == "distinct_ratio":
                    v = len(self.distinct.get(nid, ())) / calls if calls else 0.0
                elif stat == "miss_ratio":
                    v = misses / calls if calls else 0.0
                else:
                    v = self.counts.get((nid, stat), 0)
                out[name + "." + stat] = v
        out["trace.layer_self_share"] = layer_self / op_total if op_total else 0.0
        return out

    def check(self, latencies):
        """Problems with the recorded spans; ``latencies`` are the loop's own
        wall times of operations 0, 1, ... of the traced pass.

        Every layer span must lie inside a parent span of the same
        operation, and every operation span inside the loop's timing of
        that operation.
        """
        problems = []
        op_dur = {}
        for i in range(len(self.span_name)):
            start, end = self.span_start[i], self.span_end[i]
            if end < start:
                problems.append("span %d ends before it starts" % i)
            if self.span_name[i] == 0:
                op_dur[self.span_op[i]] = end - start
                continue
            parent = self.span_parent[i]
            if (parent < 0 or self.span_op[parent] != self.span_op[i]
                    or start < self.span_start[parent]
                    or end > self.span_end[parent]):
                problems.append("span %d (%s) is not inside a span of its "
                                "operation" % (i, self.names[self.span_name[i]]))
        for op_id, lat in enumerate(latencies):
            if op_id not in op_dur:
                problems.append("operation %d has no span" % op_id)
            elif op_dur[op_id] > lat:
                problems.append("operation %d: span %.6f s exceeds the loop's "
                                "%.6f s" % (op_id, op_dur[op_id], lat))
        return problems[:20]

    def write(self, path):
        """Spans as five little-endian columns plus a JSON index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                col.tofile(fh)
        index = {"names": self.names, "spans": len(self.span_name),
                 "columns": [["name", "H"], ["parent", "q"], ["op", "q"],
                             ["start", "d"], ["end", "d"]],
                 "byteorder": sys.byteorder}
        with open(path + ".json", "w") as fh:
            json.dump(index, fh, indent=1)
            fh.write("\n")
