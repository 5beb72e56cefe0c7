"""Finite-dimensional algebras attached to a digroup.

Two algebras are realized with explicit structure constants:

* the enveloping algebra of a digroup, on the monomial basis
  {R_g} u {M_(a,g)} with products

      R_g  R_h      = R_(gh)
      R_g  M_(a,h)  = M_(g.a, gh)
      M_(a,g) R_h   = M_(a, gh)
      M_(a,g) M_(b,h) = M_(a, gh)

  where M_(a,g) stands for the class of L_(1,a) R_g and R_1 is the unit;

* the halo band algebra on {1} u {eps_a} with eps_a eps_b = eps_a.

Modules over these algebras are square-matrix actions per basis element,
and first extension groups of modules are computed directly from the
derivation / inner-derivation linear system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .digroup import AxiomReport, first_failure
from .linalg import (ContentMemo, Matrix, QQ, block_image, block_kernel,
                     devectorize, quotient)
from .reps import Representation, once, require_valid


class AlgebraError(ValueError):
    pass


def _nonzero_pairs(vec):
    return tuple((k, c) for k, c in enumerate(vec) if c)


@dataclass(frozen=True)
class FDAlgebra:
    """Associative unital algebra given by basis labels + structure constants.

    structure[i][j] is the coefficient vector of e_i e_j in the basis;
    unit is the coefficient vector of 1.
    """

    field: object
    basis_labels: tuple
    structure: tuple
    unit: tuple

    @property
    def dim(self):
        return len(self.basis_labels)

    def index(self, label):
        return self.basis_labels.index(label)

    @cached_property
    def sparse_structure(self):
        """structure[i][j] as the tuple of its nonzero (k, coefficient) pairs."""
        return tuple(tuple(_nonzero_pairs(vec) for vec in row) for row in self.structure)

    def basis_vector(self, i):
        z, o = self.field.of(0), self.field.of(1)
        return tuple(o if j == i else z for j in range(self.dim))

    def multiply(self, u, v):
        """Product of two coefficient vectors, expanded bilinearly."""
        z = self.field.of(0)
        out = [z] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(self.structure[i][j]):
                    if c:
                        out[k] = out[k] + ab * c
        return tuple(out)

    def check(self):
        """Exhaustive associativity and unit check; raises on failure.

        Runs on a sparse view of the structure constants, so monomial
        algebras (one term per product) check in linear-ish time.
        """
        n = self.dim
        for i in range(n):
            ei = self.basis_vector(i)
            if self.multiply(self.unit, ei) != ei or self.multiply(ei, self.unit) != ei:
                raise AlgebraError("unit fails at basis element %d" % i)
        sc = [[dict(pairs) for pairs in row] for row in self.sparse_structure]
        for i in range(n):
            sci = sc[i]
            for j in range(n):
                scij = sci[j]
                scj = sc[j]
                for k in range(n):
                    lhs = {}
                    for l, c in scij.items():
                        for t, c2 in sc[l][k].items():
                            v = lhs.get(t)
                            v = c * c2 if v is None else v + c * c2
                            if v:
                                lhs[t] = v
                            elif t in lhs:
                                del lhs[t]
                    rhs = {}
                    for l, c in scj[k].items():
                        for t, c2 in sci[l].items():
                            v = rhs.get(t)
                            v = c * c2 if v is None else v + c * c2
                            if v:
                                rhs[t] = v
                            elif t in rhs:
                                del rhs[t]
                    if lhs != rhs:
                        raise AlgebraError("associativity fails at (%d,%d,%d)" % (i, j, k))
        return True


_envalg_cache = {}


def build_enveloping_algebra(d, field=QQ):
    """The enveloping algebra of a digroup on its monomial basis.

    Cached per (group table, action table, field): the construction and
    its exhaustive associativity check are deterministic in those inputs.
    """
    cache_key = (d.group.mul, d.action.act, field)
    hit = _envalg_cache.get(cache_key)
    if hit is not None:
        return hit
    n = d.group.order
    m = d.halo_size
    labels = [("R", g) for g in range(n)]
    labels += [("M", a, g) for a in range(m) for g in range(n)]
    idx = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    z, o = field.of(0), field.of(1)

    def unitvec(label):
        v = [z] * dim
        v[idx[label]] = o
        return tuple(v)

    structure = []
    for la in labels:
        row = []
        for lb in labels:
            if la[0] == "R" and lb[0] == "R":
                lab = ("R", d.group.mul[la[1]][lb[1]])
            elif la[0] == "R":
                _, b, h = lb
                lab = ("M", d.action.apply(la[1], b), d.group.mul[la[1]][h])
            elif lb[0] == "R":
                _, a, g = la
                lab = ("M", a, d.group.mul[g][lb[1]])
            else:
                _, a, g = la
                lab = ("M", a, d.group.mul[g][lb[2]])
            row.append(unitvec(lab))
        structure.append(tuple(row))
    alg = FDAlgebra(field, tuple(labels), tuple(structure),
                    unitvec(("R", d.group.identity)))
    alg.check()
    _envalg_cache[cache_key] = alg
    return alg


_halo_cache = {}


def build_halo_algebra(halo_size, field=QQ):
    """The band algebra on idempotents eps_a with eps_a eps_b = eps_a."""
    if halo_size < 1:
        raise AlgebraError("halo must be nonempty")
    hit = _halo_cache.get((halo_size, field))
    if hit is not None:
        return hit
    labels = ["1"] + [("eps", a) for a in range(halo_size)]
    idx = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    z, o = field.of(0), field.of(1)

    def unitvec(label):
        v = [z] * dim
        v[idx[label]] = o
        return tuple(v)

    structure = []
    for la in labels:
        row = []
        for lb in labels:
            if la == "1":
                row.append(unitvec(lb))
            elif lb == "1":
                row.append(unitvec(la))
            else:
                row.append(unitvec(la))  # eps_a eps_b = eps_a
        structure.append(tuple(row))
    alg = FDAlgebra(field, tuple(labels), tuple(structure), unitvec("1"))
    alg.check()
    _halo_cache[(halo_size, field)] = alg
    return alg


def tau_automorphism(g, action, field=QQ):
    """The permutation matrix of eps_a -> eps_(g.a) on the halo algebra basis."""
    m = action.set_size
    dim = 1 + m
    z, o = field.of(0), field.of(1)
    ents = [[z] * dim for _ in range(dim)]
    ents[0][0] = o
    for a in range(m):
        ents[1 + action.apply(g, a)][1 + a] = o
    return Matrix.from_rows(field, ents)


def check_relations(a, d):
    """Evaluate the five defining relation families on the embedded elements.

    ell_x and r_x are the images of the digroup element x among the
    monomials; every relation is checked for every pair of elements.
    """
    results = {}

    def ell(x):
        g, al = x
        return a.basis_vector(a.index(("M", al, g)))

    def r(x):
        g, _al = x
        return a.basis_vector(a.index(("R", g)))

    elems = d.elements

    pairs = [(x, y) for x in elems for y in elems]
    results["ell_dashv"] = first_failure(
        lambda x, y: ell(d.dashv(x, y)) == a.multiply(ell(x), ell(y)), pairs)
    results["r_vdash"] = first_failure(
        lambda x, y: r(d.vdash(x, y)) == a.multiply(r(x), r(y)), pairs)
    bad = next((e for e in d.halo() if r(e) != a.unit), None)
    results["r_unit"] = (bad is None, bad)
    results["r_ell"] = first_failure(
        lambda x, y: a.multiply(r(x), ell(y)) == ell(d.vdash(x, y)), pairs)
    results["ell_r"] = first_failure(
        lambda x, y: a.multiply(ell(x), r(y)) == ell(d.dashv(x, y)), pairs)
    return AxiomReport(results)


@dataclass(frozen=True)
class AlgebraModule:
    algebra: FDAlgebra
    dim: int
    action: tuple  # one square Matrix per basis element


def check_module(m):
    """Exhaustive check of the unit and of every structure constant.

    Products are memoized by operand content and each distinct structure
    vector is expanded once, so every pair is still checked.
    """
    a = m.algebra
    if len(m.action) != a.dim:
        raise AlgebraError("one action matrix per basis element required")
    for mat in m.action:
        if (mat.rows, mat.cols) != (m.dim, m.dim):
            raise AlgebraError("action matrix shape mismatch")
    ident = Matrix.identity(a.field, m.dim)
    if _combine(m, _nonzero_pairs(a.unit)) != ident:
        raise AlgebraError("unit does not act as the identity")
    memo = ContentMemo()
    act = [memo.canon(mat) for mat in m.action]
    combined = {}   # keyed by the nonzero pairs of a structure vector
    for i, prods in enumerate(a.sparse_structure):
        for j, pairs in enumerate(prods):
            rhs = combined.get(pairs)
            if rhs is None:
                rhs = combined[pairs] = _combine(m, pairs)
            if memo.mul(act[i], act[j]) != rhs:
                raise AlgebraError("structure constants violated at (%d,%d)" % (i, j))
    return m


def _combine(m, pairs):
    """sum c act(e_k) over the nonzero (k, c) pairs of a coefficient vector."""
    out = Matrix.zeros(m.algebra.field, m.dim, m.dim)
    for k, c in pairs:
        out = out + m.action[k].scale(c)
    return out


def rep_to_module(r, algebra=None):
    """Turn a representation into a module over the enveloping algebra.

    The module is built and checked once per (representation, algebra),
    the way require_valid treats representations; later calls return the
    same module.  The module holds its algebra, so no id in a key is reused.
    """
    require_valid(r)
    d = r.digroup
    if algebra is None:
        algebra = build_enveloping_algebra(d, r.field)
    return once(r, ("module", id(algebra)),
                lambda: check_module(_as_module(r, algebra)))


def _as_module(r, algebra):
    # R_g acts as rho[(g, 0)] and M_(a,g) as lam[(g, a)]
    action = tuple(r.rho[(lab[1], 0)] if lab[0] == "R" else r.lam[(lab[2], lab[1])]
                   for lab in algebra.basis_labels)
    return AlgebraModule(algebra, r.dim, action)


def module_to_rep(m, d):
    """Recover the representation from a module over the enveloping algebra."""
    check_module(m)
    a = m.algebra
    lam, rho = {}, {}
    for g in range(d.group.order):
        rg = m.action[a.index(("R", g))]
        for al in range(d.halo_size):
            rho[(g, al)] = rg
            lam[(g, al)] = m.action[a.index(("M", al, g))]
    return require_valid(Representation(d, m.dim, lam, rho))


def derivation_ext1(a, q, w):
    """dim Ext^1 of modules over a finite-dimensional algebra, plus cocycles.

    Solves for linear maps c : basis -> Hom(q, w) with

        c(e_i e_j) = act_w(e_i) c(e_j) + c(e_i) act_q(e_j),   c(1) = 0,

    then quotients by the inner maps t -> (act_w(e_i) t - t act_q(e_i)).
    Returns (dimension, representative cocycle families), where a family
    is a tuple of dw x dq matrices indexed like the algebra basis.
    """
    if q.algebra is not a or w.algebra is not a:
        raise AlgebraError("modules must live over the given algebra")
    field = a.field
    na = a.dim
    dq, dw = q.dim, w.dim
    if na * dw * dq == 0:
        return 0, []

    o, neg = field.of(1), field.of(-1)
    # c(1) = 0, and c(e_i e_j) - act_w(e_i) c(e_j) - c(e_i) act_q(e_j) = 0
    eqs = [[(c, None, k, None) for k, c in _nonzero_pairs(a.unit)]]
    for i, prods in enumerate(a.sparse_structure):
        for j, prod in enumerate(prods):
            eqs.append([(c, None, k, None) for k, c in prod]
                       + [(neg, w.action[i], j, None), (neg, None, i, q.action[j])])
    der_basis = block_kernel(na, dw, dq, eqs, field)
    # the inner derivations: the image of t -> (act_w(e_k) t - t act_q(e_k))_k
    inner_basis = block_image(1, dw, dq, [[(o, w.action[k], 0, None),
                                           (neg, None, 0, q.action[k])]
                                          for k in range(na)], field)
    families = [tuple(devectorize(v, range(na), dw, dq, field).values())
                for v in quotient(inner_basis, der_basis)]
    return len(families), families
