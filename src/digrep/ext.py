"""Splitting and extensions of digroup representations.

A short exact sequence 0 -> W -> V -> Q -> 0 of representations splits
against the invertible right family by group averaging; the left family
then leaves an off-diagonal cocycle family theta.  Ext^1(Q, W) is the
space of such families modulo the coboundaries coming from changing the
section, and an extension splits exactly when its class vanishes.
Z^1, B^1 and the classes are one linalg.ext_classes solve per pair on
the bar-unit values, with the group identities on S_G = the generators
of G only (see _ext1 and the lemma of digroup.generated_homomorphism);
the solve certifies its Z^1 basis by a residual and B^1 in Z^1, and
the Z^1 basis stays as bar-unit columns until cocycle_space spreads it.
Splitting reads V through its verified view as well: the averaged
section is checked on S_G, and the cocycle of a section is read off the
m + |S_G| generators of V in the basis [iota | section] (_corners), then
spread to every element by Z1c.  Every splitting decision is one
block-form core, _split_blocks: it solves for the t with
L^W_a t - t L^Q_a = eta_a and checks the witness [-t; I] on the
generators of (W, Q).  is_split hands it the corners of its section,
and halo.verify_collapse the bar-unit values of the Z^1 basis
(_cocycle_etas), whose extensions are split on the rho side already,
without building them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digroup import AxiomReport, first_failure
from .linalg import (ContentMemo, Matrix, SubspaceError, block_diag, block_operator,
                     columns, coordinates, devectorize, ext_classes, hstack,
                     intertwiners, solve, span_basis, vectorize, vstack)
from .reps import (Representation, RepresentationError, SemilinearObject,
                   _generators, band_spokes, from_semilinear, lambda_factorization, once,
                   require_ok, rho_group_form, to_semilinear)


class MaschkeError(ArithmeticError):
    """The averaging hypothesis fails: the characteristic divides |G|."""


def _require_maschke(field, order):
    if field.char != 0 and order % field.char == 0:
        raise MaschkeError("characteristic %d divides the group order %d"
                           % (field.char, order))


@dataclass(frozen=True)
class ShortExactSeq:
    W: Representation
    V: Representation
    Q: Representation
    iota: Matrix
    pi: Matrix


def short_exact(W, V, Q, iota, pi):
    """Validated constructor: W, V and Q verified (require_valid), exactness,
    and iota and pi morphisms on the m + n generators."""
    if not (W.digroup is V.digroup is Q.digroup):
        raise RepresentationError("sequence members live over different digroups")
    if (iota.rows, iota.cols) != (V.dim, W.dim):
        raise RepresentationError("iota shape mismatch")
    if (pi.rows, pi.cols) != (Q.dim, V.dim):
        raise RepresentationError("pi shape mismatch")
    if W.dim + Q.dim != V.dim:
        raise RepresentationError("dimensions do not add up")
    if iota.rank() != W.dim:
        raise RepresentationError("iota is not injective")
    if pi.rank() != Q.dim:
        raise RepresentationError("pi is not surjective")
    if not (pi * iota).is_zero():
        raise RepresentationError("pi o iota != 0")
    for name, w, v, q in _generators(W, V, Q):
        if v * iota != iota * w:
            raise RepresentationError("iota is not a morphism at %s" % name)
        if pi * v != q * pi:
            raise RepresentationError("pi is not a morphism at %s" % name)
    return ShortExactSeq(W, V, Q, iota, pi)


@dataclass(frozen=True)
class CocycleFamily:
    """A family of dim W x dim Q matrices indexed by digroup elements."""

    theta: dict

    def __add__(self, other):
        return CocycleFamily({x: m + other.theta[x] for x, m in self.theta.items()})

    def __sub__(self, other):
        return CocycleFamily({x: m - other.theta[x] for x, m in self.theta.items()})


@dataclass(frozen=True)
class Ext1Result:
    dim_Z: int
    dim_B: int
    dim_ext: int
    class_basis: list


def check_cocycle(theta, Q, W):
    """The three cocycle identities, exhaustively over all element pairs.

    The report for tests and for families from outside;
    check_cocycle_on_generators makes the same decision on the
    generators.  The identities share one scan of every pair on the
    digroup's int product tables (Digroup.pair_failures), with
    ContentMemo-canonical operators and memoized products and sums: the
    tables repeat values heavily, so this stays exhaustive but avoids
    recomputation.
    """
    d = Q.digroup
    elems = d.elements
    V, D = d.tables()
    memo = ContentMemo()
    row, add = memo.mul_row, memo.add
    th = [memo.canon(theta[x]) for x in elems]
    lam_w = [memo.canon(W.lam[x]) for x in elems]
    lam_q = [memo.canon(Q.lam[x]) for x in elems]
    rho_w = [memo.canon(W.rho[x]) for x in elems]
    rho_q = [memo.canon(Q.rho[x]) for x in elems]
    th_at = th.__getitem__
    return AxiomReport(d.pair_failures({
        "Z1a": lambda i: (list(map(th_at, D[i])),
                          list(map(add, row(lam_w[i], th), row(th[i], lam_q)))),
        "Z1b": lambda i: (list(map(th_at, V[i])), row(rho_w[i], th)),
        "Z1c": lambda i: (list(map(th_at, D[i])), row(th[i], rho_q)),
    }))


def check_cocycle_on_generators(theta, Q, W):
    """The decision of check_cocycle, on the generators of (Q, W).

    With eta_a = theta[(1, a)], the report checks
      Z1c  theta[(g, a)] = eta_a rho^Q_g for every (g, a);
      Z1a  L^W_a eta_b + eta_a L^Q_b = eta_a for every pair of halo indices;
      Z1b  rho^W_s eta_a = eta_(s.a) rho^Q_s for s in S_G and every a.
    Each is a cocycle identity (Z1c at (1, a), (g, b); Z1a at (1, a),
    (1, b); Z1b at (s, b), (1, a) with Z1c), so every cocycle passes.
    Conversely, Z1a and Z1b are the corners of the band law and of C3 on
    S_G for the semilinear object with eps[a] = [[L^W_a, eta_a], [0, L^Q_a]]
    and t[g] = diag(rho^W_g, rho^Q_g), whose diagonal blocks are the
    verified forms of W and Q; its t is a group homomorphism.  So
    check_semilinear_on_generators passes on it, and by the proof in
    reps._view the representation lam[(g, a)] = eps[a] t[g] satisfies
    R1-R5.  By Z1c the corner of its lam[(g, a)] is theta[(g, a)], and
    the corners of R1, R4 and R5 are Z1a, Z1b and Z1c at every pair.
    """
    d = Q.digroup
    halo = range(d.halo_size)
    lam_w, lam_q = lambda_factorization(W), lambda_factorization(Q)
    rho_w, rho_q = rho_group_form(W), rho_group_form(Q)
    eta = {a: theta[(d.group.identity, a)] for a in halo}
    return AxiomReport({
        "Z1a": first_failure(lambda a, b: lam_w[a] * eta[b] + eta[a] * lam_q[b] == eta[a],
                             [(a, b) for a in halo for b in halo]),
        "Z1b": first_failure(
            lambda s, a: rho_w[s] * eta[a] == eta[d.action.apply(s, a)] * rho_q[s],
            [(s, a) for s in d.group.generators() for a in halo]),
        "Z1c": first_failure(lambda g, a: theta[(g, a)] == eta[a] * rho_q[g],
                             [(g, a) for g in range(d.group.order) for a in halo]),
    })


def _cocycle_key(theta, d):
    # a family's content: the tuple of its matrices in element order
    return ("cocycle",) + tuple(theta[x] for x in d.elements)


def require_cocycle(theta, Q, W):
    """Raise unless theta satisfies the cocycle identities over (Q, W).

    Each distinct family is checked once per (Q, W), on the generators
    (check_cocycle_on_generators), the way require_valid treats
    representations; the Z^1 basis families of _ext1 are registered as
    verified.  The key is the content, so a family that differs from
    every verified one in any entry is checked.
    """
    once((Q, W), _cocycle_key(theta, Q.digroup),
         lambda: require_ok(check_cocycle_on_generators(theta, Q, W),
                            "cocycle identities"))
    return theta


def average_section(s, s0=None):
    """A section of pi commuting with the whole right family, by averaging.

    Starts from any linear section s0 (solved for if not given), then
    averages s0 over the group through the right operators.  Exact in
    characteristic zero; over F_p it requires p not dividing |G|.
    """
    field = s.V.field
    group = s.V.digroup.group
    n = group.order
    _require_maschke(field, n)
    if s0 is None:
        s0 = _linear_section(s)
    # the verified views refuse an unvalidated V; by C1 and C2
    # rho_g rho_{g^-1} = rho_1 = I, so rho_g^-1 is rho_{g^-1}
    rho_v, rho_q = rho_group_form(s.V), rho_group_form(s.Q)
    acc = Matrix.zeros(field, s.V.dim, s.Q.dim)
    for g in range(n):
        acc = acc + rho_v[g] * s0 * rho_q[group.inv[g]]
    sec = acc.scale(field.of(1) / field.of(n))
    if s.pi * sec != Matrix.identity(field, s.Q.dim):
        raise RepresentationError("the averaged section is not a section of pi")
    # every rho_g is a product of the rho_s (C2), so S_G decides
    for g in group.generators():
        if rho_v[g] * sec != sec * rho_q[g]:
            raise RepresentationError("the averaged section is not equivariant at g=%d" % g)
    return sec


def _linear_section(s):
    """Some linear section of pi; RepresentationError when pi has none."""
    sec = solve(s.pi, Matrix.identity(s.V.field, s.Q.dim))
    if sec is None:
        raise RepresentationError("pi admits no linear section")
    return sec


def _corners(s, sec):
    """{a: eta_a}, the upper-right block of L_a^V in the basis C = [iota | sec].

    sec is a section of pi and pi iota = 0, so the inverse of C is
    [L (I - sec pi); pi] for any L with L iota = I: one solve for L on k
    rows, certified by one product.  Each generator X of V (reps._generators:
    the L_a^V, then the rho_s^V for s in S_G) is conjugated to
    P(X) = C^-1 X C, which must have a zero lower-left block and the
    generators of W and Q as its diagonal blocks; each P(rho_s) must also
    have a zero upper-right block (sec is rho-equivariant).
    RepresentationError otherwise.

    These checks decide like the former scan of every element x of V,
    which required P(rho[x]) = diag(W.rho[x], Q.rho[x]), P(lam[x]) upper
    triangular with diagonal blocks W.lam[x] and Q.lam[x], and the corner
    family theta[x] of P(lam[x]) to be a cocycle.  P is multiplicative,
    and V, W and Q have verified views (reps._view): rho[(g, a)] = rho_g,
    each rho_g a product of the rho_s (C2 and the lemma of
    digroup.generated_homomorphism), and lam[(g, a)] = L_a rho_g.  So the
    checks on the rho_s give P(rho_g) = diag(rho^W_g, rho^Q_g) for every
    g, and then

        P(lam[(g, a)]) = P(L_a) P(rho_g)
                       = [[L^W_a rho^W_g, eta_a rho^Q_g], [0, L^Q_a rho^Q_g]]:

    every element passes, and theta[(g, a)] = eta_a rho^Q_g.  P(V) is a
    representation, so the corners of its R1, R4 and R5 are the cocycle
    identities Z1a, Z1b and Z1c of theta.  Conversely the generators are
    elements of V, so a failure here is a failure of the scan.  A V that
    is not a representation is refused by its view, as the scan refused
    it by one of its checks or at the cocycle identities: had they all
    passed, V would be C times the extension of W by the cocycle theta
    times C^-1, a representation.
    """
    field = s.V.field
    k, n = s.W.dim, s.V.dim
    C = hstack([s.iota, sec])
    Lt = solve(s.iota.transpose(), Matrix.identity(field, k))
    if Lt is None:
        raise RepresentationError("iota is not injective")
    L = Lt.transpose()
    Cinv = vstack([L - L * sec * s.pi, s.pi])
    if Cinv * C != Matrix.identity(field, n):
        raise RepresentationError("sec is not a section of pi")
    eta = {}
    for i, (name, v, w, q) in enumerate(_generators(s.V, s.W, s.Q)):
        p = Cinv * v * C
        if not p.block(k, 0, n - k, k).is_zero():
            raise RepresentationError("%s is not upper triangular along (iota, sec)" % name)
        if p.block(0, 0, k, k) != w or p.block(k, k, n - k, n - k) != q:
            raise RepresentationError("diagonal blocks mismatch at %s" % name)
        if i < s.V.digroup.halo_size:   # the L_a come first, a in order
            eta[i] = p.block(0, k, k, n - k)
        elif not p.block(0, k, k, n - k).is_zero():
            raise RepresentationError("section not equivariant at %s" % name)
    return eta


def _verified_family(eta, Q, W):
    """The family theta[(g, a)] = eta_a rho^Q_g of the bar-unit values eta
    of a cocycle, registered as a verified cocycle of (Q, W); the caller
    proves that eta is one (_solve_ext1, _corners)."""
    rho_q = rho_group_form(Q)
    theta = {(g, a): eta[a] * rho_q[g] for g in range(Q.digroup.group.order) for a in eta}
    once((Q, W), _cocycle_key(theta, Q.digroup), lambda: None)
    return CocycleFamily(theta)


def block_decompose(s, sec):
    """The cocycle family of s in the coordinates (iota, sec): the corners
    eta_a of the L_a (_corners, which verifies the block shapes), spread
    to every element by Z1c."""
    return _verified_family(_corners(s, sec), s.Q, s.W)


def cocycle_space(Q, W):
    """Canonical basis of the cocycle space, as CocycleFamily objects.

    Solved and verified once per (Q, W) with the rest of Ext^1 (_ext1),
    whose Z^1 basis is kept as bar-unit columns; they are spread to whole
    families here, once per (Q, W), and every call returns copies of the
    verified families.
    """
    fams = once((Q, W), "cocycles",
                lambda: [_verified_family(eta, Q, W) for eta in _cocycle_etas(Q, W)])
    return [CocycleFamily(dict(f.theta)) for f in fams]


def _cocycle_etas(Q, W):
    """The bar-unit values {a: eta_a} of the Z^1 basis of _ext1, in order."""
    m = Q.digroup.halo_size
    return [devectorize(v, range(m), W.dim, Q.dim, Q.field) for v in _ext1(Q, W)[0]]


def _ext1(Q, W):
    """(Z^1 bar-unit columns, coboundary columns, dim B^1, class families),
    one registry entry per (Q, W), from one linalg.ext_classes solve.

    The unknowns are eta_a := theta[(1, a)].  Every cocycle has
    theta[(g, a)] = eta_a rho_Q[g] (Z1c with a bar-unit on the left), and
    so has delta t for a rho-intertwiner t, by the verified factorization
    lam = L_a rho_g; so comparing bar-unit columns compares whole families.
    The equations are Z1a at two bar-units and Z1b on S_G:

        L^W_a eta_b + eta_a L^Q_b = eta_a        for every pair a, b
        rho_W[s] eta_a = eta_(s.a) rho_Q[s]      for s in S_G and every a

    Z1a is written at the spoke pairs of reps.band_spokes only: it is the
    corner of the band law of [[L^W_a, eta_a], [0, L^Q_a]], whose
    diagonal blocks are the verified bands of W and Q, so the spokes give
    it at every pair (the lemma there).  A family
    theta[(g, a)] = eta_a rho_Q[g] passes
    check_cocycle_on_generators exactly when eta solves them, and that
    check decides like the exhaustive check_cocycle (see its proof).  So
    the kernel is Z^1 on its bar-unit columns, and linalg.ext_classes
    certifies that every basis vector it returns solves the assembled
    equations; the families spread from them (the class representatives
    here, the rest in cocycle_space) are registered as verified cocycles
    without a scan.  The same solve certifies B^1 inside Z^1.

    The coboundary columns, one per hom_rho basis vector t in order, are
    the bar-unit columns of delta t, (L^W_a t - t L^Q_a)_a.  One product,
    the linalg.block_operator of that map and of t -> (rho_W[s] t -
    t rho_Q[s])_s for s in S_G times the basis as columns, gives them with
    those residuals, which must vanish: that certifies the basis as
    rho-intertwiners, and the first failing t is reported at its first
    failing s.
    """
    if Q.digroup is not W.digroup:
        raise RepresentationError("cocycle space needs a common digroup")
    return once((Q, W), "ext1", lambda: _solve_ext1(Q, W))


def _solve_ext1(Q, W):
    d = Q.digroup
    field = Q.field if Q.dim else W.field
    dw, dq = W.dim, Q.dim
    if dw * dq == 0:
        return [], [], 0, []
    m = d.halo_size
    rho_w, rho_q = rho_group_form(W), rho_group_form(Q)
    lam_w = lambda_factorization(W)   # a -> L_a with lam[(g,a)] = L_a rho_g
    lam_q = lambda_factorization(Q)
    eqs = [[(1, lam_w[a], b, None), (1, None, a, lam_q[b]), (-1, None, a, None)]
           for a, b in band_spokes(m)]
    gens = d.group.generators()
    eqs += [[(1, rho_w[s], a, None), (-1, None, d.action.apply(s, a), rho_q[s])]
            for s in gens for a in range(m)]
    ts = hom_rho(Q, W)
    n, k = dw * dq, len(ts)
    op = block_operator(1, dw, dq, [[(1, lam_w[a], 0, None), (-1, None, 0, lam_q[a])]
                                    for a in range(m)]
                        + [[(1, rho_w[s], 0, None), (-1, None, 0, rho_q[s])] for s in gens],
                        field)
    img = op * columns(field, n, [t.reshape(n, 1) for t in ts])
    res = img.block(m * n, 0, len(gens) * n, k)
    if not res.is_zero():
        s = next(s for j in range(k) for i, s in enumerate(gens)
                 if not res.block(i * n, j, n, 1).is_zero())
        raise RepresentationError("t is not a rho-intertwiner at g=%d" % s)
    cob = [img.block(0, j, m * n, 1) for j in range(k)]
    bvecs = span_basis(cob)
    try:
        zvecs, reps = ext_classes(m, dw, dq, eqs, bvecs, field)
    except SubspaceError as err:
        raise RepresentationError(str(err)) from None
    return zvecs, cob, len(bvecs), [
        _verified_family(devectorize(v, range(m), dw, dq, field), Q, W) for v in reps]


def hom_rho(Q, W):
    """Canonical basis of {t : rho_W[g] t = t rho_Q[g] for all g}.

    Solved on s in S_G: every rho_g is a product of the rho_s (C2), so t
    intertwines each rho_g exactly when it intertwines each rho_s.
    Solved once per (Q, W); later calls return a copy of the same basis.
    """
    if Q.digroup is not W.digroup:
        raise RepresentationError("hom_rho needs a common digroup")
    def solve_hom():
        rho_q, rho_w = rho_group_form(Q), rho_group_form(W)
        return intertwiners([(rho_q[s], rho_w[s]) for s in Q.digroup.group.generators()],
                            Q.dim, W.dim, W.field)

    return list(once((Q, W), "hom", solve_hom))


def coboundary(t, Q, W):
    """The coboundary family of a rho-intertwiner t, verified to lie in Z^1.

    t is checked to intertwine rho on every call; the family goes through
    require_cocycle, so each distinct family is checked once per (Q, W).
    """
    return CocycleFamily(require_cocycle(_delta(t, Q, W, Q.digroup.elements), Q, W))


def _delta(t, Q, W, keys):
    """x -> W.lam[x] t - t Q.lam[x] over keys, for a t checked to intertwine
    rho_s for s in S_G (so every rho_g, see hom_rho)."""
    rho_w, rho_q = rho_group_form(W), rho_group_form(Q)
    for s in Q.digroup.group.generators():
        if rho_w[s] * t != t * rho_q[s]:
            raise RepresentationError("t is not a rho-intertwiner at g=%d" % s)
    return {x: W.lam[x] * t - t * Q.lam[x] for x in keys}


def coboundary_space(Q, W):
    """Canonical basis of B^1 as columns over every element (may be empty),
    certified in Z^1 by _ext1."""
    _ext1(Q, W)
    elems = Q.digroup.elements
    return span_basis(vectorize(_delta(t, Q, W, elems), elems, W.dim, Q.dim)
                      for t in hom_rho(Q, W))


def ext1_dim(Q, W):
    """Z^1, B^1 and their quotient, with deterministic representatives (_ext1)."""
    _require_maschke(W.field if W.dim else Q.field, Q.digroup.group.order)
    z1, _, dim_b, reps = _ext1(Q, W)
    return Ext1Result(len(z1), dim_b, len(reps),
                      [CocycleFamily(dict(f.theta)) for f in reps])


def extension_from_cocycle(theta, Q, W):
    """The block upper-triangular extension attached to a cocycle family.

    V has eps_V[a] = [[L^W_a, theta[(1, a)]], [0, L^Q_a]] and
    t_V[g] = diag(rho^W_g, rho^Q_g); its lam[(g, a)] has theta[(g, a)] in
    the corner, since theta[(g, a)] = theta[(1, a)] rho^Q_g (Z1c).
    """
    if isinstance(theta, CocycleFamily):
        theta = theta.theta
    require_cocycle(theta, Q, W)
    d = Q.digroup
    field = W.field if W.dim else Q.field
    k, m = W.dim, Q.dim
    n = k + m
    lower_left = Matrix.zeros(field, m, k)
    sw, sq = to_semilinear(W), to_semilinear(Q)
    e = d.group.identity
    eps = {a: vstack([hstack([sw.eps[a], theta[(e, a)]]),
                      hstack([lower_left, sq.eps[a]])]) for a in sw.eps}
    t = {g: block_diag(field, [sw.t[g], sq.t[g]]) for g in sw.t}
    V = from_semilinear(SemilinearObject(d.action, n, eps, t), d)
    ident = Matrix.identity(field, n)
    return short_exact(W, V, Q, ident.block(0, 0, n, k), ident.block(k, 0, m, n))


def is_split(s):
    """Decide splitness; returns (flag, witness-or-certificate).

    On success the witness is a section of pi intertwining both operator
    families; on failure the certificate is the nonzero cocycle family.
    The decision is the block-form core _split_blocks on the corners eta
    of the averaged section (a linear section when W = 0, where there is
    nothing to average):
    _corners has checked that C = [iota | sec] conjugates each generator X
    of V to [[w, eta_X], [0, q]] (eta_X = 0 for each rho_s), so
    X C [-t; I] = C [-t; I] q exactly when w t - t q = eta_X, which is
    the check of the core, and pi C = [0 | I] makes C [-t; I] = sec - iota t
    a section.  The family over every element is built only for the
    certificate.
    """
    field = s.V.field
    if s.Q.dim == 0:
        return True, Matrix(field, s.V.dim, 0, [])
    sec = average_section(s) if s.W.dim else _linear_section(s)
    [(flag, x)] = _split_blocks([_corners(s, sec)], s.Q, s.W)
    return flag, (hstack([s.iota, sec]) * x if flag else x)


def _splitting_maps(etas, Q, W, field):
    """For each eta, a rho-intertwiner t with L^W_a t - t L^Q_a = eta_a for
    every a, or None when there is none.  eta is the bar-unit column of a
    cocycle, and so is each coboundary column: comparing them compares
    whole families (see _ext1).  One elimination, with the etas as the
    columns of x, answers them all when each has a t; otherwise the pivot
    of a column outside the span alters the other columns' rows, so each
    eta is answered on its own."""
    coeffs = coordinates(_ext1(Q, W)[1], hstack([vectorize(eta, range(len(eta)), W.dim, Q.dim)
                                                 for eta in etas])) if etas else None
    if coeffs is None:   # no eta, or one without a t
        return [None] if len(etas) == 1 else [_splitting_maps([eta], Q, W, field)[0]
                                              for eta in etas]
    n = W.dim * Q.dim   # t = sum_i coeffs[i, j] hom_rho_i, one product for every j
    ts = columns(field, n, [t.reshape(n, 1) for t in hom_rho(Q, W)]) * coeffs
    return [ts.col_vector(j).reshape(W.dim, Q.dim) for j in range(len(etas))]


def _split_blocks(etas, Q, W):
    """[(True, [-t; I]) or (False, _verified_family(eta)) for eta in etas],
    each eta the corners eta_a of the L_a of an extension of Q by W in
    block form; one _splitting_maps solve answers every eta.

    In the block form [[L^W_a, eta_a], [0, L^Q_a]], diag(rho^W_s, rho^Q_s),
    [-t; I] is a morphism on the generators exactly when
    L^W_a t - t L^Q_a = eta_a for every a and rho^W_s t = t rho^Q_s for s in
    S_G (the other blocks agree identically); these are checked, and a
    failure raises RepresentationError.
    """
    field = W.field if W.dim else Q.field
    out = []
    for eta, t in zip(etas, _splitting_maps(etas, Q, W, field)):
        if t is None:
            out.append((False, _verified_family(eta, Q, W)))
            continue
        for i, (name, w, q) in enumerate(_generators(W, Q)):   # the L_a first, a in order
            r = w * t - t * q
            if (r != eta[i]) if i < len(eta) else not r.is_zero():
                raise RepresentationError("the witness is not a morphism at %s" % name)
        out.append((True, vstack([-t, Matrix.identity(field, Q.dim)])))
    return out


def change_of_splitting_check(s, t):
    """Changing the section by iota t changes the cocycle by exactly delta t."""
    sec = average_section(s)
    fam = block_decompose(s, sec)
    fam2 = block_decompose(s, sec + s.iota * t)
    delta = coboundary(t, s.Q, s.W)
    return all(fam2.theta[x] == fam.theta[x] + delta.theta[x]
               for x in fam.theta)


def semisimplicity_probe(reps):
    """ext1 over all ordered pairs; nonzero dimensions witness nonsplitness."""
    findings = []
    for i, q in enumerate(reps):
        for j, w in enumerate(reps):
            res = ext1_dim(q, w)
            if res.dim_ext > 0:
                findings.append({"source": i, "target": j,
                                 "dim_ext": res.dim_ext,
                                 "certificate": res.class_basis[0]})
    return {"pairs_checked": len(reps) ** 2,
            "semisimple": not findings,
            "findings": findings}
