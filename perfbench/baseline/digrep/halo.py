"""Hom and Ext over the halo band algebra, group invariants, induction.

The halo operators of a semilinear object make its space a module over
the band algebra; forgetting the group family is implicit (the dim and
eps fields of a SemilinearObject are its underlying module).  The group
acts on Hom spaces between such modules, and the main comparison says:
intertwiner spaces and first extension groups over the digroup are the
G-invariants of the corresponding band-algebra spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, hstack, solve, span_basis
from .reps import (RepresentationError, SemilinearObject,
                   require_valid_semilinear, to_semilinear, hom_rep)
from .ext import (cocycle_space, ext1_dim, extension_from_cocycle, is_split)
from .digroup import Digroup


@dataclass(frozen=True, eq=False)
class BEModule:
    """A plain module over the band algebra: idempotent operators only."""

    dim: int
    eps: dict

    @property
    def halo_size(self):
        return len(self.eps)

    @property
    def field(self):
        return next(iter(self.eps.values())).field


def check_be_module(m):
    for a in m.eps:
        if (m.eps[a].rows, m.eps[a].cols) != (m.dim, m.dim):
            raise RepresentationError("eps shape mismatch at %r" % (a,))
    for a in m.eps:
        for b in m.eps:
            if m.eps[a] * m.eps[b] != m.eps[a]:
                raise RepresentationError("band identity fails at %r" % ((a, b),))
    return m


def underlying_module(n):
    """The band module underlying a semilinear object (forget the group)."""
    return check_be_module(BEModule(n.dim, dict(n.eps)))


def hom_BE(q, w):
    """Canonical basis of {f : f eps_a^Q = eps_a^W f for all a}.

    Accepts anything with dim and eps fields (BEModule or
    SemilinearObject); linearity over the idempotent generators is all
    the band algebra requires.
    """
    if len(q.eps) != len(w.eps):
        raise RepresentationError("halo size mismatch")
    dq, dw = q.dim, w.dim
    nunk = dq * dw
    if nunk == 0:
        return []
    field = w.field
    z = field.of(0)
    rows = []
    for a in q.eps:
        eq, ew = q.eps[a], w.eps[a]
        for i in range(dw):
            for j in range(dq):
                row = [z] * nunk
                for k in range(dq):
                    row[i * dq + k] = row[i * dq + k] + eq[k, j]
                for k in range(dw):
                    row[k * dq + j] = row[k * dq + j] - ew[i, k]
                rows.append(row)
    ker = Matrix.from_rows(field, rows).kernel_basis()
    return [Matrix(field, dw, dq, v.flat()) for v in span_basis(ker)]


@dataclass(frozen=True, eq=False)
class HomSpaceWithAction:
    basis: list
    g_action: dict


def _coords_in(basis_vecs, v):
    if not basis_vecs:
        if not v.is_zero():
            return None
        return Matrix(v.field, 0, 1, [])
    return solve(hstack(basis_vecs), v) if _in_span(basis_vecs, v) else None


def _in_span(basis, v):
    if not basis:
        return v.is_zero()
    return len(span_basis(list(basis) + [v])) == len(span_basis(basis))


def g_action_on_hom(q, w):
    """The group action g.f = t_g^W f (t_g^Q)^-1 on the band Hom space.

    Returns the basis together with the action matrices in basis
    coordinates; closure and the action laws are verified per g.
    """
    basis = hom_BE(q, w)
    group = q.action.group
    field = w.field
    k = len(basis)
    vecs = [Matrix(field, f.rows * f.cols, 1, f.entries) for f in basis]
    g_action = {}
    for g in range(group.order):
        tw = w.t[g]
        tq_inv = q.t[g].inverse()
        cols = []
        for f in basis:
            gf = tw * f * tq_inv
            for a in q.eps:
                if gf * q.eps[a] != w.eps[a] * gf:
                    raise RepresentationError(
                        "g.f leaves the band-linear maps at g=%d" % g)
            c = _coords_in(vecs, Matrix(field, gf.rows * gf.cols, 1, gf.entries))
            if c is None:
                raise RepresentationError("g.f leaves the span at g=%d" % g)
            cols.append(c)
        g_action[g] = hstack(cols) if cols else Matrix(field, 0, 0, [])
    ident = Matrix.identity(field, k)
    assert g_action[group.identity] == ident
    for g in range(group.order):
        for h in range(group.order):
            assert g_action[g] * g_action[h] == g_action[group.mul[g][h]]
    return HomSpaceWithAction(basis, g_action)


def invariants(space):
    """Canonical basis of the common fixed space of all action matrices."""
    mats = list(space.g_action.values())
    if not mats:
        return []
    field = mats[0].field
    k = mats[0].rows
    if k == 0:
        return []
    rows = []
    ident = Matrix.identity(field, k)
    for m in mats:
        rows.extend((m - ident).to_lists())
    ker = Matrix.from_rows(field, rows).kernel_basis()
    return span_basis(ker)


@dataclass(frozen=True, eq=False)
class BEExtResult:
    dim_Z: int
    dim_B: int
    dim_ext: int
    eta_basis: list
    g_action_on_classes: dict


def _eta_vec(eta, m, dw, dq, field):
    vals = []
    for a in range(m):
        vals.extend(eta[a].entries)
    return Matrix(field, m * dw * dq, 1, vals)


def _eta_from_vec(v, m, dw, dq, field):
    blk = dw * dq
    return {a: Matrix(field, dw, dq, v.entries[a * blk:(a + 1) * blk])
            for a in range(m)}


def ext1_BE(q, w):
    """Extension classes of band modules, with the induced group action.

    Z = {eta : eps_a^W eta_b + eta_a eps_b^Q = eta_a for all a, b} is the
    compatibility condition for the block upper-triangular extension, and
    B is the effect of a block change of basis.  The group acts on
    classes by (g.eta)_a = t_g^W eta_{g^-1.a} (t_g^Q)^-1; this lift is
    verified to preserve Z and B and to satisfy the action laws, and any
    failure raises rather than being repaired silently.
    """
    if len(q.eps) != len(w.eps):
        raise RepresentationError("halo size mismatch")
    m = len(q.eps)
    dq, dw = q.dim, w.dim
    blk = dw * dq
    field = w.field if dw else q.field
    if blk == 0:
        return BEExtResult(0, 0, 0, [],
                           {g: Matrix(field, 0, 0, [])
                            for g in range(q.action.group.order)})
    nunk = m * blk

    def u(a, i, j):
        return a * blk + i * dq + j

    z = field.of(0)
    rows = []
    for a in range(m):
        ew = w.eps[a]
        for b in range(m):
            eq = q.eps[b]
            for i in range(dw):
                for j in range(dq):
                    # eps_a^W eta_b + eta_a eps_b^Q - eta_a = 0
                    row = [z] * nunk
                    for k in range(dw):
                        c = ew[i, k]
                        if c:
                            row[u(b, k, j)] = row[u(b, k, j)] + c
                    for k in range(dq):
                        c = eq[k, j]
                        if c:
                            row[u(a, i, k)] = row[u(a, i, k)] + c
                    row[u(a, i, j)] = row[u(a, i, j)] - field.of(1)
                    rows.append(row)
    zvecs = span_basis(Matrix.from_rows(field, rows).kernel_basis())

    bvecs = []
    for i0 in range(dw):
        for j0 in range(dq):
            t = Matrix(field, dw, dq,
                       [field.of(1) if (i, j) == (i0, j0) else z
                        for i in range(dw) for j in range(dq)])
            eta = {a: w.eps[a] * t - t * q.eps[a] for a in range(m)}
            bvecs.append(_eta_vec(eta, m, dw, dq, field))
    bvecs = span_basis(bvecs)
    for b in bvecs:
        if not _in_span(zvecs, b):
            raise RepresentationError("a coboundary escapes the eta space")

    reps = _complete(bvecs, zvecs)
    dim_ext = len(zvecs) - len(bvecs)
    assert dim_ext == len(reps)
    eta_basis = [_eta_from_vec(v, m, dw, dq, field) for v in reps]

    group = q.action.group
    act = q.action

    def g_dot(g, eta):
        tw = w.t[g]
        tq_inv = q.t[g].inverse()
        ginv = group.inv[g]
        return {a: tw * eta[act.apply(ginv, a)] * tq_inv for a in range(m)}

    # the lift must preserve Z and B
    for g in range(group.order):
        for v in zvecs:
            gv = _eta_vec(g_dot(g, _eta_from_vec(v, m, dw, dq, field)),
                          m, dw, dq, field)
            if not _in_span(zvecs, gv):
                raise RepresentationError(
                    "group action does not preserve the eta space at g=%d" % g)
        for v in bvecs:
            gv = _eta_vec(g_dot(g, _eta_from_vec(v, m, dw, dq, field)),
                          m, dw, dq, field)
            if not _in_span(bvecs, gv):
                raise RepresentationError(
                    "group action does not preserve coboundaries at g=%d" % g)

    # action on classes, in the coordinates (coboundary basis | class reps)
    g_classes = {}
    full = list(bvecs) + list(reps)
    for g in range(group.order):
        cols = []
        for eta in eta_basis:
            gv = _eta_vec(g_dot(g, eta), m, dw, dq, field)
            c = _coords_in(full, gv)
            if c is None:
                raise RepresentationError("class action leaves Z at g=%d" % g)
            cols.append(Matrix(field, dim_ext, 1,
                               [c[len(bvecs) + i, 0] for i in range(dim_ext)]))
        g_classes[g] = hstack(cols) if cols else Matrix(field, 0, 0, [])
    ident = Matrix.identity(field, dim_ext)
    assert g_classes[group.identity] == ident
    for g in range(group.order):
        for h in range(group.order):
            assert g_classes[g] * g_classes[h] == g_classes[group.mul[g][h]]
    return BEExtResult(len(zvecs), len(bvecs), dim_ext, eta_basis, g_classes)


def _complete(small, big):
    chosen = []
    cur = list(small)
    rank = len(span_basis(cur))
    for v in big:
        nxt = span_basis(cur + [v])
        if len(nxt) > rank:
            chosen.append(v)
            cur.append(v)
            rank = len(nxt)
    return chosen


def invariant_class_dim(res):
    """Dimension of the fixed space of the class action of a BEExtResult."""
    if res.dim_ext == 0:
        return 0
    space = HomSpaceWithAction([], res.g_action_on_classes)
    return len(invariants(space))


def verify_collapse(q_rep, w_rep):
    """The degree-one comparison between digroup and band-algebra Ext.

    Computes the invariant dimensions on the band side and the direct
    dimensions on the digroup side, reports their equality, and, when
    the invariant extension space vanishes, confirms the splitting
    criterion on every cocycle basis member.
    """
    q = to_semilinear(q_rep)
    w = to_semilinear(w_rep)
    hom_space = g_action_on_hom(q, w)
    hom_inv = invariants(hom_space)
    hom_rep_basis = hom_rep(q_rep, w_rep)
    be = ext1_BE(q, w)
    inv_dim = invariant_class_dim(be)
    rep_res = ext1_dim(q_rep, w_rep)
    ok = (inv_dim == rep_res.dim_ext) and (len(hom_inv) == len(hom_rep_basis))
    splitting_checked = False
    if ok and inv_dim == 0:
        for fam in cocycle_space(q_rep, w_rep):
            ses = extension_from_cocycle(fam, q_rep, w_rep)
            flag, _ = is_split(ses)
            if not flag:
                ok = False
                break
        splitting_checked = True
    return {
        "hom_BE_dim": len(hom_space.basis),
        "invariants_dim": len(hom_inv),
        "hom_rep_dim": len(hom_rep_basis),
        "ext1_BE_dim": be.dim_ext,
        "ext1_BE_invariant_dim": inv_dim,
        "ext1_rep_dim": rep_res.dim_ext,
        "splitting_criterion_checked": splitting_checked,
        "collapse_ok": ok,
    }


def induction_L(m, d):
    """Induce a band module to a semilinear object, one block per group element.

    The idempotent eps_a acts on block g through the twisted index
    g^-1 . a, and t_h permutes blocks by g -> h g with identity matrices.
    """
    check_be_module(m)
    if m.halo_size != d.halo_size:
        raise RepresentationError("halo size mismatch")
    g_ord = d.group.order
    dm = m.dim
    dim = g_ord * dm
    field = m.field
    z = field.of(0)
    eps = {}
    for a in range(d.halo_size):
        rows = [[z] * dim for _ in range(dim)]
        for g in range(g_ord):
            blk = m.eps[d.action.apply(d.group.inv[g], a)]
            for i in range(dm):
                for j in range(dm):
                    rows[g * dm + i][g * dm + j] = blk[i, j]
        eps[a] = Matrix.from_rows(field, rows) if dim else Matrix(field, 0, 0, [])
    t = {}
    for h in range(g_ord):
        rows = [[z] * dim for _ in range(dim)]
        for g in range(g_ord):
            hg = d.group.mul[h][g]
            for i in range(dm):
                rows[hg * dm + i][g * dm + i] = field.of(1)
        t[h] = Matrix.from_rows(field, rows) if dim else Matrix(field, 0, 0, [])
    return require_valid_semilinear(SemilinearObject(d.action, dim, eps, t))


def verify_adjunction(m, n):
    """Hom out of the induced module equals band Hom into the underlying one.

    The left side consists of band-linear, group-equivariant maps
    L(M) -> N; the right side of band-linear maps M -> N.  Dimensions
    must agree and the explicit restriction / spreading maps must be
    mutually inverse on basis elements.
    """
    d = Digroup(n.action.group, n.action)
    lm = induction_L(m, d)
    field = n.field
    g_ord = d.group.order
    dm, dn, dl = m.dim, n.dim, lm.dim

    # left side: Phi with Phi eps_a^L = eps_a^N Phi and Phi t_h^L = t_h^N Phi
    nunk = dn * dl
    rows = []
    z = field.of(0)
    pairs = [(lm.eps[a], n.eps[a]) for a in range(d.halo_size)]
    pairs += [(lm.t[h], n.t[h]) for h in range(g_ord)]
    for a1, a2 in pairs:
        for i in range(dn):
            for j in range(dl):
                row = [z] * nunk
                for k in range(dl):
                    row[i * dl + k] = row[i * dl + k] + a1[k, j]
                for k in range(dn):
                    row[k * dl + j] = row[k * dl + j] - a2[i, k]
                rows.append(row)
    if nunk:
        ker = Matrix.from_rows(field, rows).kernel_basis()
        left = [Matrix(field, dn, dl, v.flat()) for v in span_basis(ker)]
    else:
        left = []
    right = hom_BE(m, underlying_module(n))

    def restrict(phi):
        # f_Phi = Phi on the identity-group block
        e = d.group.identity
        return Matrix(field, dn, dm,
                      [phi[i, e * dm + j] for i in range(dn) for j in range(dm)])

    def spread(f):
        # block g of the induced map is t_g^N f
        cols = [n.t[g] * f for g in range(g_ord)]
        return hstack(cols) if cols else Matrix(field, dn, 0, [])

    unit_counit_ok = True
    for phi in left:
        if spread(restrict(phi)) != phi:
            unit_counit_ok = False
    for f in right:
        if restrict(spread(f)) != f:
            unit_counit_ok = False
    for f in right:
        # spreading must land back among the equivariant maps
        ft = spread(f)
        for a in range(d.halo_size):
            if ft * lm.eps[a] != n.eps[a] * ft:
                unit_counit_ok = False
        for h in range(g_ord):
            if ft * lm.t[h] != n.t[h] * ft:
                unit_counit_ok = False
    return {
        "left_dim": len(left),
        "right_dim": len(right),
        "dims_equal": len(left) == len(right),
        "unit_counit_ok": unit_counit_ok,
        "ok": len(left) == len(right) and unit_counit_ok,
    }
