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

from .linalg import (Matrix, block_diag, block_image, block_operator, block_permutation,
                     devectorize, ext_classes, hstack, intertwiners, lead_coordinates, solve)
from .reps import (RepresentationError, SemilinearObject, band_law, band_spokes, once,
                   require_valid_semilinear, to_semilinear, hom_rep)
from .ext import _split_cocycles, cocycle_space, ext1_dim
from .digroup import Digroup, generated_homomorphism


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
    """m, once its eps are dim x dim and obey the band law; one registry
    entry per module, RepresentationError on every call otherwise."""
    def check():
        for a in m.eps:
            if (m.eps[a].rows, m.eps[a].cols) != (m.dim, m.dim):
                raise RepresentationError("eps shape mismatch at %r" % (a,))
        ok, bad = band_law(m.eps)
        if not ok:
            raise RepresentationError("band identity fails at %r" % (bad,))

    once(m, "band_module", check)
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
    return intertwiners([(q.eps[a], w.eps[a]) for a in q.eps], q.dim, w.dim, w.field)


@dataclass(frozen=True, eq=False)
class HomSpaceWithAction:
    basis: list
    g_action: dict


def g_action_on_hom(q, w):
    """The group action g.f = t_g^W f (t_g^Q)^-1 on the band Hom space.

    Returns the basis together with the action matrices in basis
    coordinates.  For each s in S_G one product applies the operator
    f -> t_s^W f (t_s^Q)^-1 (linalg.block_operator) to the whole basis, and
    one more certifies the coordinates read at the basis leads
    (linalg.lead_coordinates); (t_s^Q)^-1 is t_{s^-1}^Q (_t_inverses).  The
    basis spans all of Hom_BE, so the read refuses every s.f that is not
    band-linear.  Every other g acts by the product along the closure
    (_extend_action), which is the lift at g for verified q and w: by C2,
    f -> t_g^W f (t_g^Q)^-1 is multiplicative in g.
    """
    basis = hom_BE(q, w)
    field = w.field
    n = w.dim * q.dim
    vecs = [f.reshape(n, 1) for f in basis]
    cols = _columns(field, n, vecs)
    tq_inv = _t_inverses(q)
    on_gens = {}
    for s in q.action.group.generators():
        op = block_operator(1, w.dim, q.dim, [[(1, w.t[s], 0, tq_inv[s])]], field)
        c = lead_coordinates(vecs, op * cols)
        if c is None:
            raise RepresentationError("g.f leaves the span at g=%d" % s)
        on_gens[s] = c
    one = Matrix.identity(field, len(basis))
    return HomSpaceWithAction(basis, _extend_action(on_gens, one, q, w, "Hom"))


def _t_inverses(q):
    """{s: (t_s^Q)^-1} for s in S_G, read as t_{s^-1}^Q: no elimination.

    One product per s certifies it, once per object (a square matrix's
    right inverse is its inverse): RepresentationError unless
    t_s t_{s^-1} = I.
    """
    def certified():
        group, t, inv = q.action.group, q.t, {}
        for s in group.generators():
            h = group.inv[s]
            if t[h].rows != t[h].cols or t[s] * t[h] != Matrix.identity(t[h].field, t[h].rows):
                raise RepresentationError("t_g t_(g^-1) != I at g=%d" % s)
            inv[s] = t[h]
        return inv

    return once(q, "t_inverses", certified)


def _columns(field, n, vectors):
    """The n x len(vectors) matrix with the given column vectors."""
    return hstack(vectors) if vectors else Matrix(field, n, 0, [])


def _extend_action(on_gens, one, q, w, what):
    """{g: action matrix} for every g, from the matrices on S_G; one is
    the identity matrix of their size.

    generated_homomorphism sets g = x s to act as x.(s.v) along the
    closure and certifies the group law on G x S_G, so the result is an
    action of G.  It is the lift at every g once q and w are verified
    semilinear objects (require_valid_semilinear; checked last, so that a
    lift that fails at a generator is reported by the solve that meets it).
    """
    group = q.action.group
    f, (ok, bad) = generated_homomorphism(on_gens, group, one)
    if not ok:
        raise RepresentationError(
            "the action on %s is not multiplicative at %r" % (what, bad))
    require_valid_semilinear(q)
    require_valid_semilinear(w)
    return {g: f[g] for g in range(group.order)}


def invariants(space, gens=None):
    """Canonical basis of the common fixed space of the action matrices of
    gens, every g by default.  A generating set S_G of the group fixes the
    same vectors as every g when g_action is an action, as _extend_action
    certifies."""
    mats = list(space.g_action.values())
    if not mats:
        return []
    field, k = mats[0].field, mats[0].rows
    if gens is not None:
        mats = [space.g_action[s] for s in gens]
    # a fixed vector v is a k x 1 map with v I_1 = M v for every M
    one = Matrix.identity(field, 1)
    return intertwiners([(one, m) for m in mats], 1, k, field)


@dataclass(frozen=True, eq=False)
class BEExtResult:
    dim_Z: int
    dim_B: int
    dim_ext: int
    eta_basis: list
    g_action_on_classes: dict


def ext1_BE(q, w):
    """Extension classes of band modules, with the induced group action.

    Z = {eta : eps_a^W eta_b + eta_a eps_b^Q = eta_a for all a, b} is the
    compatibility condition for the block upper-triangular extension, and
    B is the effect of a block change of basis (linalg.ext_classes).  Z
    is solved from the spoke pairs of reps.band_spokes: the equation at
    (a, b) is the corner of E_a E_b = E_a for E_a = [[eps_a^W, eta_a],
    [0, eps_a^Q]], whose diagonal blocks are bands (require_valid_semilinear
    of q and w, before any answer is returned), so the spokes give it at
    every pair (the lemma there).
    The group acts on
    classes by (g.eta)_a = t_g^W eta_{g^-1.a} t_{g^-1}^Q (_t_inverses).
    For s in S_G one product applies this operator A (linalg.block_operator)
    to the canonical basis Z, and one more certifies its coordinates M,
    Z M == A Z (lead_coordinates), so A preserves Z.  With P the
    Z-coordinates of [B | reps], solve(P, M P) is the action in [B | reps]:
    it preserves B when its lower-left block is 0, and its lower-right
    block is the action on classes.  It is extended to every g along the
    closure (_extend_action); any failure raises rather than being
    repaired silently.
    """
    if len(q.eps) != len(w.eps):
        raise RepresentationError("halo size mismatch")
    m = len(q.eps)
    dq, dw = q.dim, w.dim
    field = w.field if dw else q.field
    group = q.action.group
    if dw * dq == 0:
        one = Matrix.identity(field, 0)
        return BEExtResult(0, 0, 0, [], _extend_action(
            dict.fromkeys(group.generators(), one), one, q, w, "classes"))
    keys = range(m)   # eta families are vectorized over the halo indices
    # Z: eps_a^W eta_b + eta_a eps_b^Q - eta_a = 0
    z_eqs = [[(1, w.eps[a], b, None), (1, None, a, q.eps[b]), (-1, None, a, None)]
             for a, b in band_spokes(m)]
    # B: the image of t -> (eps_a^W t - t eps_a^Q)_a
    cob = block_image(1, dw, dq, [[(1, w.eps[a], 0, None), (-1, None, 0, q.eps[a])]
                                  for a in keys], field)
    zvecs, reps = ext_classes(m, dw, dq, z_eqs, cob, field)
    dim_ext, nb = len(reps), len(cob)
    n = m * dw * dq
    z = _columns(field, n, zvecs)
    p = lead_coordinates(zvecs, _columns(field, n, cob + reps))   # ext_classes: B in Z
    tq_inv = _t_inverses(q)
    on_gens = {}
    for s in group.generators():
        tw, sinv = w.t[s], group.inv[s]
        op = block_operator(m, dw, dq, [[(1, tw, q.action.apply(sinv, a), tq_inv[s])]
                                        for a in keys], field)
        mz = lead_coordinates(zvecs, op * z)
        if mz is None:
            raise RepresentationError(
                "group action does not preserve the eta space at g=%d" % s)
        c = solve(p, mz * p)
        if not c.block(nb, 0, dim_ext, nb).is_zero():
            raise RepresentationError(
                "group action does not preserve coboundaries at g=%d" % s)
        on_gens[s] = c.block(nb, nb, dim_ext, dim_ext)
    etas = [devectorize(v, keys, dw, dq, field) for v in reps]
    return BEExtResult(len(zvecs), nb, dim_ext, etas, _extend_action(
        on_gens, Matrix.identity(field, dim_ext), q, w, "classes"))


def invariant_class_dim(res, gens=None):
    """Dimension of the fixed space of the class action of a BEExtResult,
    taken on gens (invariants)."""
    if res.dim_ext == 0:
        return 0
    space = HomSpaceWithAction([], res.g_action_on_classes)
    return len(invariants(space, gens))


def verify_collapse(q_rep, w_rep):
    """The degree-one comparison between digroup and band-algebra Ext.

    Computes the invariant dimensions on the band side and the direct
    dimensions on the digroup side, reports their equality, and, when
    the invariant extension space vanishes, confirms the splitting
    criterion on every cocycle basis member.  The basis families are
    decided in the block form of their extensions (ext._split_cocycles),
    with one solve for all of them and each splitting witness checked on
    the generators.
    """
    q = to_semilinear(q_rep)
    w = to_semilinear(w_rep)
    gens = q.action.group.generators()
    hom_space = g_action_on_hom(q, w)
    hom_inv = invariants(hom_space, gens)
    hom_rep_basis = hom_rep(q_rep, w_rep)
    be = ext1_BE(q, w)
    inv_dim = invariant_class_dim(be, gens)
    rep_res = ext1_dim(q_rep, w_rep)
    ok = (inv_dim == rep_res.dim_ext) and (len(hom_inv) == len(hom_rep_basis))
    splitting_checked = False
    if ok and inv_dim == 0:
        ok = all(flag for flag, _ in _split_cocycles(cocycle_space(q_rep, w_rep), q_rep, w_rep))
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
    g^-1 . a, and t_h is the block permutation g -> h g.
    """
    check_be_module(m)
    if m.halo_size != d.halo_size:
        raise RepresentationError("halo size mismatch")
    g_ord = d.group.order
    dm = m.dim
    dim = g_ord * dm
    field = m.field
    eps = {a: block_diag(field, [m.eps[d.action.apply(d.group.inv[g], a)]
                                 for g in range(g_ord)])
           for a in range(d.halo_size)}
    t = {h: block_permutation(field, d.group.mul[h], dm) for h in range(g_ord)}
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

    # left side: Phi with Phi eps_a^L = eps_a^N Phi and Phi t_s^L = t_s^N Phi
    # for s in S_G, so for every t_h (C2 of the verified L(M) and N)
    require_valid_semilinear(n)
    gens = d.group.generators()
    pairs = [(lm.eps[a], n.eps[a]) for a in range(d.halo_size)]
    pairs += [(lm.t[s], n.t[s]) for s in gens]
    left = intertwiners(pairs, dl, dn, field)
    right = hom_BE(m, n)   # n's band law is part of require_valid_semilinear

    def restrict(phi):
        # f_Phi = Phi on the identity-group block
        return phi.block(0, d.group.identity * dm, dn, dm)

    def spread(f):
        # block g of the induced map is t_g^N f
        cols = [n.t[g] * f for g in range(g_ord)]
        return hstack(cols) if cols else Matrix(field, dn, 0, [])

    unit_counit_ok = True
    for phi in left:
        if spread(restrict(phi)) != phi:
            unit_counit_ok = False
    for f in right:
        ft = spread(f)
        if restrict(ft) != f:
            unit_counit_ok = False
        # spreading must land back among the equivariant maps
        for a in range(d.halo_size):
            if ft * lm.eps[a] != n.eps[a] * ft:
                unit_counit_ok = False
        for s in gens:
            if ft * lm.t[s] != n.t[s] * ft:
                unit_counit_ok = False
    return {
        "left_dim": len(left),
        "right_dim": len(right),
        "dims_equal": len(left) == len(right),
        "unit_counit_ok": unit_counit_ok,
        "ok": len(left) == len(right) and unit_counit_ok,
    }
