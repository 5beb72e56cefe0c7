"""Finite-dimensional algebras attached to a digroup.

Two monomial algebras are realized, each as an int product table on its
basis (e_i e_j = e_k stored as k):

* the enveloping algebra of a digroup, on the monomial basis
  {R_g} u {M_(a,g)} with products

      R_g  R_h      = R_(gh)
      R_g  M_(a,h)  = M_(g.a, gh)
      M_(a,g) x     = M_(a, gh)      for x = R_h and for x = M_(b,h)

  where M_(a,g) stands for the class of L_(1,a) R_g and R_1 is the unit;

* the halo band algebra on {1} u {eps_a} with eps_a eps_b = eps_a.

Modules over these algebras are square-matrix actions per basis element,
and first extension groups of modules are computed directly from the
derivation / inner-derivation linear system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digroup import AlgebraError, AxiomReport, row_failure, table_generators, table_presentation
from .linalg import (ContentMemo, Matrix, QQ, block_image, block_permutation, complete,
                     devectorize, ext_classes)
from .reps import SemilinearObject, from_semilinear, once, require_valid


@dataclass(frozen=True)
class FDAlgebra:
    """Associative unital monomial algebra, as a product table on its basis.

    Every product of two basis elements is one basis element:
    product[i][j] is the index k with e_i e_j = e_k, and unit is the
    index of 1.
    """

    field: object
    basis_labels: tuple
    product: tuple
    unit: int

    @property
    def dim(self):
        return len(self.basis_labels)

    def index(self, label):
        return self.basis_labels.index(label)

    def generators(self):
        """Basis indices that generate every basis element as a monoid.

        table_generators on the product table: greedy in index order, and
        AlgebraError unless the closure reaches the whole basis.  On the
        enveloping algebra of a digroup these are the R_g for the
        generators of G and one M_(a, 1) per G-orbit of the halo.  Found
        once per algebra; each call returns a fresh list.
        """
        if "_generators" not in self.__dict__:
            gens = tuple(table_generators(self.product, self.unit))
            object.__setattr__(self, "_generators", gens)
        return list(self._generators)

    def presentation(self):
        """(tree, rules) of table_presentation on generators(), found once."""
        if "_presentation" not in self.__dict__:
            object.__setattr__(self, "_presentation", table_presentation(
                self.product, self.unit, self.generators())[1:])
        return self._presentation

    def check(self):
        """Exhaustive table, unit and associativity check; raises on failure.
        Associativity compares the rows k -> (e_i e_j) e_k and e_i (e_j e_k)."""
        n, p, u = self.dim, self.product, self.unit
        if len(p) != n or any(len(row) != n for row in p):
            raise AlgebraError("product table is not %d x %d" % (n, n))
        if any(type(k) is not int or not 0 <= k < n
               for k in [u] + [k for row in p for k in row]):
            raise AlgebraError("product table index outside range(%d)" % n)
        for i in range(n):
            if p[u][i] != i or p[i][u] != i:
                raise AlgebraError("unit fails at basis element %d" % i)
        rows = list(map(list, p))
        ok, bad = row_failure((((i, j), rows[ri[j]], list(map(ri.__getitem__, rj)))
                               for i, ri in enumerate(rows) for j, rj in enumerate(rows)), range(n))
        if not ok:
            raise AlgebraError("associativity fails at (%d,%d,%d)" % bad)
        return True


_envalg_cache = {}


def build_enveloping_algebra(d, field=QQ):
    """The enveloping algebra of a digroup on its monomial basis.

    The table is written row by row from the three product rules of the
    module docstring: R_g R_h = R_(gh), R_g M_(b,h) = M_(g.b, gh), and
    M_(a,g) x = M_(a, gh) for x = R_h and for x = M_(b,h).  Cached per
    (group table, action table, field): the construction and its
    exhaustive associativity check are deterministic in those inputs.
    """
    cache_key = (d.group.mul, d.action.act, field)
    hit = _envalg_cache.get(cache_key)
    if hit is not None:
        return hit
    mul, act = d.group.mul, d.action.act
    n, m = d.group.order, d.halo_size
    labels = [("R", g) for g in range(n)]
    labels += [("M", a, g) for a in range(m) for g in range(n)]
    # index n k + h is R_h in block k = 0 and M_(k-1, h) in block k >= 1, so
    # x y = n moved[k] + gh for y in block k: R_g moves block 1 + b to
    # 1 + g.b (as tau_g does) and M_(a,g) moves every block to 1 + a
    cells = [(k, h) for k in range(1 + m) for h in range(n)]
    left = [((0,) + tuple(1 + b for b in act[g]), mul[g]) for g in range(n)]
    left += [((1 + a,) * (1 + m), mul[g]) for a in range(m) for g in range(n)]
    product = [tuple(n * moved[k] + row[h] for k, h in cells) for moved, row in left]
    alg = FDAlgebra(field, tuple(labels), tuple(product), d.group.identity)
    alg.check()
    _envalg_cache[cache_key] = alg
    return alg


def build_halo_algebra(halo_size, field=QQ):
    """The band algebra on idempotents eps_a with eps_a eps_b = eps_a."""
    if halo_size < 1:
        raise AlgebraError("halo must be nonempty")
    labels = ("1",) + tuple(("eps", a) for a in range(halo_size))
    # index 0 is the unit; every other row is constant: eps_a x = eps_a
    product = tuple(tuple(j if i == 0 else i for j in range(len(labels)))
                    for i in range(len(labels)))
    alg = FDAlgebra(field, labels, product, 0)
    alg.check()
    return alg


def tau_automorphism(g, action, field=QQ):
    """The permutation matrix of eps_a -> eps_(g.a) on the halo algebra basis."""
    return block_permutation(field, [0] + [1 + b for b in action.act[g]], 1)


def check_relations(a, d):
    """Evaluate the five defining relation families on the embedded elements.

    ell[i] and r[i] are the basis indices of the images of the digroup
    element x_i among the monomials, found once; every relation is checked
    for every pair of elements, as one row_failure over the int tables of
    d.tables() and the rows of the product table (Digroup.pair_failures).
    """
    p, elems = a.product, d.elements
    V, D = d.tables()
    ell = [a.index(("M", al, g)) for g, al in elems]
    r = [a.index(("R", g)) for g, _al in elems]
    ell_at, r_at = ell.__getitem__, r.__getitem__
    scan = d.pair_failures({
        "ell_dashv": lambda i: (list(map(ell_at, D[i])), list(map(p[ell[i]].__getitem__, ell))),
        "r_vdash": lambda i: (list(map(r_at, V[i])), list(map(p[r[i]].__getitem__, r))),
        "r_ell": lambda i: (list(map(p[r[i]].__getitem__, ell)), list(map(ell_at, V[i]))),
        "ell_r": lambda i: (list(map(p[ell[i]].__getitem__, r)), list(map(ell_at, D[i]))),
    })
    bad = next((e for e in d.halo() if a.index(("R", e[0])) != a.unit), None)
    return AxiomReport({"ell_dashv": scan["ell_dashv"], "r_vdash": scan["r_vdash"],
                        "r_unit": (bad is None, bad), "r_ell": scan["r_ell"],
                        "ell_r": scan["ell_r"]})


@dataclass(frozen=True)
class AlgebraModule:
    algebra: FDAlgebra
    dim: int
    action: tuple  # one square Matrix per basis element


def check_module(m):
    """Exhaustive check of the unit and of every entry of the product table.

    The check for modules from outside (module_to_rep) and the tests'
    oracle; check_module_on_generators makes the same decision on the
    generators.  Products are memoized by operand content, so every pair
    is still checked: act(e_i) act(e_j) == act(e_product[i][j]).
    """
    a = _require_unit(m)
    memo = ContentMemo()
    act = [memo.canon(mat) for mat in m.action]
    for i, row in enumerate(a.product):
        for j, k in enumerate(row):
            if memo.mul(act[i], act[j]) != act[k]:
                raise AlgebraError("product table violated at (%d,%d)" % (i, j))
    return m


def check_module_on_generators(m):
    """The decision of check_module, on a generating set S of the basis.

    The unit acts as I, and act(s) act(e_j) = act(s e_j) for every s in
    S = FDAlgebra.generators() and every basis element e_j: |S| dim A
    products in place of dim A^2.  Every basis element x is a word
    s_1 ... s_k in S (the closure that FDAlgebra.generators certifies),
    and the rule for all (x, y) follows by induction on k, the lemma of
    digroup.generated_homomorphism read from the left: for x = s x',
    act(s x') act(y) = act(s) act(x') act(y) = act(s) act(x' y)
    = act(s x' y), by the rule at (s, x'), the induction hypothesis, the
    rule at (s, x' y) and associativity of the table (FDAlgebra.check,
    run by the algebra's builders).
    """
    a = _require_unit(m)
    act, p = m.action, a.product
    for s in a.generators():
        for j in range(a.dim):
            if act[s] * act[j] != act[p[s][j]]:
                raise AlgebraError("product table violated at (%d,%d)" % (s, j))
    return m


def _require_unit(m):
    """m.algebra, once m has one square action matrix per basis element
    and the unit acts as the identity; AlgebraError otherwise."""
    a = m.algebra
    if len(m.action) != a.dim:
        raise AlgebraError("one action matrix per basis element required")
    for mat in m.action:
        if (mat.rows, mat.cols) != (m.dim, m.dim):
            raise AlgebraError("action matrix shape mismatch")
    if m.action[a.unit] != Matrix.identity(a.field, m.dim):
        raise AlgebraError("unit does not act as the identity")
    return a


def rep_to_module(r, algebra=None):
    """Turn a representation into a module over the enveloping algebra.

    The module is built and checked once per (representation, algebra),
    on the generators of the algebra (check_module_on_generators), the
    way require_valid treats representations; later calls return the
    same module.  The module holds its algebra, so no id in a key is reused.
    """
    require_valid(r)
    d = r.digroup
    if algebra is None:
        algebra = build_enveloping_algebra(d, r.field)
    return once(r, ("module", id(algebra)),
                lambda: check_module_on_generators(_as_module(r, algebra)))


def _as_module(r, algebra):
    # R_g acts as rho[(g, 0)] and M_(a,g) as lam[(g, a)]
    action = tuple(r.rho[(lab[1], 0)] if lab[0] == "R" else r.lam[(lab[2], lab[1])]
                   for lab in algebra.basis_labels)
    return AlgebraModule(algebra, r.dim, action)


def module_to_rep(m, d):
    """Recover the representation from a module over the enveloping algebra.

    Its generators are L_a = act(M_(a,1)) and rho_g = act(R_g); check_module
    gives act(M_(a,g)) = L_a rho_g, since M_(a,1) R_g = M_(a,g).
    """
    check_module(m)
    a = m.algebra
    e = d.group.identity
    eps = {al: m.action[a.index(("M", al, e))] for al in range(d.halo_size)}
    t = {g: m.action[a.index(("R", g))] for g in range(d.group.order)}
    return from_semilinear(SemilinearObject(d.action, m.dim, eps, t), d)


def _fox_rules(p, gens, rules):
    """The rules of derivation_ext1 less those that follow from two others.

    A rule (x, s) with x s = x is dropped when the hub h, the first
    idempotent generator, is neither x nor s, x h = x, h s = h, and (x, h)
    and (h, s) are rules (these two are never dropped): w(x) s = w(x) h s
    = w(x) h = w(x), a Tietze move.  On the equations, with E = D(w(x)):
    (x, h) says E act_q(h) + act_w(x) c(h) = E and (h, s) says
    c(h) act_q(s) + act_w(h) c(s) = c(h); the first times act_q(s), with
    the second times act_w(x), gives E act_q(s) + act_w(x) c(s) = E, the
    equation of (x, s).  Only the product table p decides.
    """
    h = next((s for s in gens if p[s][s] == s), None)
    ruled = set(rules)
    return [(x, s) for x, s in rules
            if not (h not in (None, x, s) and p[x][s] == x == p[x][h] and p[h][s] == h
                    and (x, h) in ruled and (h, s) in ruled)]


def derivation_ext1(a, q, w):
    """dim Ext^1 of modules over a finite-dimensional algebra, plus cocycles.

    A derivation is a linear map c : basis -> Hom(q, w) with c(1) = 0 and

        c(x y) = act_w(x) c(y) + c(x) act_q(y)   for all basis elements x, y.

    It is solved on the presentation <S | R> of the basis monoid
    (FDAlgebra.presentation), S the targets of the tree edges out of 1,
    for the blocks c(s), s in S.  Let D be the derivation of the free
    monoid on S with D(s) = c(s) (Fox, Ann. Math. 1953): D(s_1 ... s_l)
    sums act_w(s_1 ... s_i-1) c(s_i) act_q(s_i+1 ... s_l).  There is one
    equation D(w(x) s) = D(w(x s)) per rule (x, s), w the normal forms.

    * c(y) = D(w(y)), so restriction to S is injective on derivations;
    * the equations are the Fox conditions of R, which presents the
      monoid, so every solution spreads to the derivation y -> D(w(y));
    * inner derivations restrict to B_S, the span of
      t -> (act_w(s) t - t act_q(s))_s.

    The rules _fox_rules drops follow from those it keeps.

    Hence dim Z_S / B_S (linalg.ext_classes) = dim Z / B (the modules come
    from rep_to_module, whose check makes the actions multiply like the
    basis).  Only when it is not 0 are the solutions spread: Z is their
    canonical basis, and the vectors of Z that quotient(B, Z) keeps are
    found on their S blocks against B_S, the same choice as restriction
    is injective on Z.  Returns (dimension, representative cocycle
    families), a family being a tuple of dw x dq matrices indexed like the
    algebra basis.
    """
    if q.algebra is not a or w.algebra is not a:
        raise AlgebraError("modules must live over the given algebra")
    field = a.field
    na = a.dim
    dq, dw = q.dim, w.dim
    if na * dw * dq == 0:
        return 0, []

    p, unit = a.product, a.unit
    tree, rules = a.presentation()
    gens = [s for x, s in tree if x == unit]
    block = {s: k for k, s in enumerate(gens)}
    rules = _fox_rules(p, gens, rules)

    def times(x, s):
        # the (prefix, letter, suffix) elements of D(w(x) s)
        return [(l, g, p[r][s]) for l, g, r in fox[x]] + [(x, s, unit)]

    def terms(c, triples):
        return [(c, None if l == unit else w.action[l], block[g],
                 None if r == unit else q.action[r]) for l, g, r in triples]

    fox = {unit: []}   # y -> the triples of D(w(y)), along the tree
    for x, s in tree:
        fox[p[x][s]] = times(x, s)
    eqs = [terms(1, times(x, s)) + terms(-1, fox[p[x][s]]) for x, s in rules]
    inner = block_image(1, dw, dq, [[(1, w.action[s], 0, None), (-1, None, 0, q.action[s])]
                                    for s in gens], field)
    z_s, reps = ext_classes(len(gens), dw, dq, eqs, inner, field)
    if not reps:
        return 0, []
    # c(y) = D(w(y)) for every basis element y, on the integer images
    z = block_image(len(gens), dw, dq, [terms(1, fox[y]) for y in range(na)], field, z_s)
    blk = dw * dq
    coords = [s * blk + i for s in gens for i in range(blk)]
    families = [tuple(devectorize(v, range(na), dw, dq, field).values())
                for v in complete(inner, z, coords)]
    return len(families), families
