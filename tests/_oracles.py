"""Independent brute-force oracles used by the tests.

Everything here recomputes dimensions from first principles with sympy's
linear algebra (rational, or DomainMatrix over GF(p)), touching only the
raw operator tables and the digroup products, so agreement with the
package is a genuine cross-check rather than the same code run twice.
"""

import operator
from fractions import Fraction
from math import lcm
from itertools import permutations
from operator import attrgetter

import sympy
from sympy.polys.matrices import DomainMatrix

from digrep.ext import (CocycleFamily, MaschkeError, _require_maschke, _split_blocks,
                        check_cocycle, coboundary, cocycle_space, hom_rho, require_cocycle)
from digrep.digroup import AxiomReport, GAction, GroupTableError, first_failure
from digrep.envalg import AlgebraError
from digrep.halo import hom_BE
from digrep.reps import (RepresentationError, SemilinearObject, check_semilinear,
                         rho_group_form)
from digrep.linalg import (ContentMemo, FieldMismatchError, Matrix, _reduce, block_image,
                           block_kernel, coordinates, devectorize, hstack, quotient, solve,
                           span_basis, vectorize, vstack)


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_nullity(rows, ncols):
    """Nullity of a rational constraint matrix given as list-of-lists."""
    if not rows:
        return ncols
    m = sympy.Matrix([[_sym(Fraction(x)) for x in row] for row in rows])
    return ncols - m.rank()


def sympy_nullspace(rows, ncols):
    if not rows:
        return [[Fraction(1 if i == j else 0) for i in range(ncols)]
                for j in range(ncols)]
    m = sympy.Matrix([[_sym(Fraction(x)) for x in row] for row in rows])
    return [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in m.nullspace()]


def gfp_rank(rows, ncols, p):
    """Rank over GF(p) of an integer matrix given as list-of-lists."""
    if not rows:
        return 0
    k = sympy.GF(p)
    return DomainMatrix([[k(x) for x in row] for row in rows],
                        (len(rows), ncols), k).to_sparse().rank()


def full_cocycle_rows(q, w, num=Fraction):
    """All 3|D|^2 cocycle constraints on the full theta vector, explicitly.

    The unknown is the concatenation of the dim W x dim Q blocks theta_x
    in the element order of the digroup; no reduction or substitution.
    num turns a matrix entry into a number (over GF(p), its residue).
    """
    d = q.digroup
    elems = d.elements
    idx = {x: i for i, x in enumerate(elems)}
    dw, dq = w.dim, q.dim
    blk = dw * dq
    nunk = len(elems) * blk

    def u(x, i, j):
        return idx[x] * blk + i * dq + j

    rows = []
    for x in elems:
        for y in elems:
            xy_d = d.dashv(x, y)
            xy_v = d.vdash(x, y)
            for i in range(dw):
                for j in range(dq):
                    row = [0] * nunk
                    row[u(xy_d, i, j)] += 1
                    for k in range(dw):
                        row[u(y, k, j)] -= num(w.lam[x][i, k])
                    for k in range(dq):
                        row[u(x, i, k)] -= num(q.lam[y][k, j])
                    rows.append(row)
                    row = [0] * nunk
                    row[u(xy_v, i, j)] += 1
                    for k in range(dw):
                        row[u(y, k, j)] -= num(w.rho[x][i, k])
                    rows.append(row)
                    row = [0] * nunk
                    row[u(xy_d, i, j)] += 1
                    for k in range(dq):
                        row[u(x, i, k)] -= num(q.rho[y][k, j])
                    rows.append(row)
    return rows, nunk


def cocycle_dim_oracle(q, w):
    rows, nunk = full_cocycle_rows(q, w)
    return sympy_nullity(rows, nunk)


def intertwiner_rows(pairs, dq, dw, num=Fraction):
    """The rows of t A = B t for each (A, B) in pairs, t a dw x dq unknown."""
    nunk = dw * dq
    rows = []
    for aq, aw in pairs:
        for i in range(dw):
            for j in range(dq):
                row = [0] * nunk
                for k in range(dq):
                    row[i * dq + k] += num(aq[k, j])
                for k in range(dw):
                    row[k * dq + j] -= num(aw[i, k])
                rows.append(row)
    return rows


def hom_rho_oracle(q, w):
    """Nullspace of the rho-intertwiner constraints, solved with sympy."""
    pairs = [(q.rho[(g, 0)], w.rho[(g, 0)]) for g in range(q.digroup.group.order)]
    return sympy_nullspace(intertwiner_rows(pairs, q.dim, w.dim), q.dim * w.dim)


def former_coboundary_columns(q, w, basis=None):
    """The coboundary columns of ext._ext1 as the package formerly built
    them, one t of the hom_rho basis (or of basis) at a time: t is checked
    to intertwine rho_s for s in S_G, and the first failing s raises, then
    delta t = W.lam[x] t - t Q.lam[x] at the bar-units x = (1, a) is
    vectorized over them."""
    rho_w, rho_q = rho_group_form(w), rho_group_form(q)
    halo = q.digroup.halo()
    cols = []
    for t in hom_rho(q, w) if basis is None else basis:
        for s in q.digroup.group.generators():
            if rho_w[s] * t != t * rho_q[s]:
                raise RepresentationError("t is not a rho-intertwiner at g=%d" % s)
        cols.append(vectorize({x: w.lam[x] * t - t * q.lam[x] for x in halo},
                              halo, w.dim, q.dim))
    return cols


def split_cocycles(thetas, q, w):
    """[is_split(extension_from_cocycle(theta, q, w)) for theta in thetas]
    in the block form of those extensions, without building them: the
    reference for the package's one splitting core on given families.

    Their sections of pi are the [-t; I], and [0; I] is rho-equivariant, so
    averaging returns it, C = I and _corners returns eta_a = theta[(1, a)]:
    after require_cocycle and the Maschke check that averaging makes,
    the decision is ext._split_blocks on those etas.
    """
    thetas = [theta.theta if isinstance(theta, CocycleFamily) else theta for theta in thetas]
    for theta in thetas:
        require_cocycle(theta, q, w)
    if w.dim and q.dim:   # is_split averages on these only
        _require_maschke(w.field, q.digroup.group.order)
    e, m = q.digroup.group.identity, q.digroup.halo_size
    return _split_blocks([{a: theta[(e, a)] for a in range(m)} for theta in thetas], q, w)


def ext1_dim_gfp_oracle(q, w):
    """dim Z^1 - dim B^1 over GF(p), each dimension a rank over GF(p).

    B^1 is the image of t -> (W.lam[x] t - t Q.lam[x])_x on the
    rho-intertwiners, whose kernel is Hom_rep, so
    dim B^1 = rank(rho and lam rows) - rank(rho rows).
    """
    p = q.field.p
    elems = q.digroup.elements
    nt = q.dim * w.dim
    if nt == 0:
        return 0
    residue = attrgetter("v")
    zrows, nunk = full_cocycle_rows(q, w, residue)
    rho = intertwiner_rows([(q.rho[x], w.rho[x]) for x in elems], q.dim, w.dim, residue)
    lam = intertwiner_rows([(q.lam[x], w.lam[x]) for x in elems], q.dim, w.dim, residue)
    return ((nunk - gfp_rank(zrows, nunk, p))
            - (gfp_rank(rho + lam, nt, p) - gfp_rank(rho, nt, p)))


def ext1_dim_oracle(q, w):
    """dim Z - dim B computed entirely with sympy on the full systems."""
    d = q.digroup
    elems = d.elements
    dw, dq = w.dim, q.dim
    blk = dw * dq
    if blk == 0:
        return 0
    zrows, nunk = full_cocycle_rows(q, w)
    zdim = sympy_nullity(zrows, nunk)
    bvecs = []
    for t_flat in hom_rho_oracle(q, w):
        t = [[t_flat[i * dq + j] for j in range(dq)] for i in range(dw)]
        vec = []
        for x in elems:
            for i in range(dw):
                for j in range(dq):
                    val = Fraction(0)
                    for k in range(dw):
                        val += Fraction(w.lam[x][i, k]) * t[k][j]
                    for k in range(dq):
                        val -= t[i][k] * Fraction(q.lam[x][k, j])
                    vec.append(val)
        bvecs.append(vec)
    if bvecs:
        bdim = sympy.Matrix([[_sym(v) for v in vec] for vec in bvecs]).rank()
    else:
        bdim = 0
    return zdim - bdim


def matrix_rank_oracle(mat_lists):
    return sympy.Matrix([[_sym(Fraction(x)) for x in row]
                         for row in mat_lists]).rank()


def full_table_derivation_ext1(a, q, w):
    """derivation_ext1 on the all-pairs system, the package's former solver.

    One Leibniz equation c(e_i e_j) = act_w(e_i) c(e_j) + c(e_i) act_q(e_j)
    for every ordered pair of basis elements, plus c(1) = 0, then the
    quotient by the inner derivations; the reference for the solver that
    writes the equations on a generating set only.
    """
    field, na, dq, dw = a.field, a.dim, q.dim, w.dim
    if na * dw * dq == 0:
        return 0, []
    eqs = [[(1, None, a.unit, None)]]
    for i, row in enumerate(a.product):
        for j, k in enumerate(row):
            eqs.append([(1, None, k, None), (-1, w.action[i], j, None),
                        (-1, None, i, q.action[j])])
    der_basis = block_kernel(na, dw, dq, eqs, field)
    inner_basis = block_image(1, dw, dq, [[(1, w.action[k], 0, None),
                                           (-1, None, 0, q.action[k])]
                                          for k in range(na)], field)
    families = [tuple(devectorize(v, range(na), dw, dq, field).values())
                for v in quotient(inner_basis, der_basis)]
    return len(families), families


def former_derivation_ext1(a, q, w):
    """derivation_ext1 with unknowns on every basis block, its former solver.

    c(1) = 0 and c(x s) = act_w(x) c(s) + c(x) act_q(s) on every tree and
    rule edge (x, s) of FDAlgebra.presentation(), then the quotient by the
    inner derivations t -> (act_w(e_k) t - t act_q(e_k))_k in full
    coordinates: the reference for the solver on the generators only.
    """
    field, na, dq, dw = a.field, a.dim, q.dim, w.dim
    if na * dw * dq == 0:
        return 0, []
    tree, rules = a.presentation()
    eqs = [[(1, None, a.unit, None)]]
    eqs += [[(1, None, a.product[x][s], None), (-1, w.action[x], s, None),
             (-1, None, x, q.action[s])] for x, s in tree + rules]
    inner = block_image(1, dw, dq, [[(1, w.action[k], 0, None), (-1, None, 0, q.action[k])]
                                    for k in range(na)], field)
    families = [tuple(devectorize(v, range(na), dw, dq, field).values())
                for v in quotient(inner, block_kernel(na, dw, dq, eqs, field))]
    return len(families), families


def former_block_diag(field, blocks):
    """block_diag as its former construction: each block padded by two zero
    matrices into one hstack per block row, then one vstack."""
    width = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows.append(hstack([Matrix.zeros(field, b.rows, left), b,
                            Matrix.zeros(field, b.rows, width - left - b.cols)]))
        left += b.cols
    return vstack(rows) if rows else Matrix(field, 0, width, [])


def former_sparse_kernel(ncols, rows, field):
    """sparse_kernel as it formerly was: lowest-column pivots, and each
    free column's vector read off every pivot row that holds it; a kernel
    basis, but not the RREF one (span_basis of it is)."""
    pivots = _reduce(rows, field)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        hits = [(c, prow) for c, prow in pivots.items() if f in prow]
        d = lcm(*[prow[c] for c, prow in hits])
        v = [0] * ncols
        v[f] = d
        for c, prow in hits:
            v[c] = -prow[f] * (d // prow[c])
        basis.append(Matrix._of_image(field, ncols, 1, v, d))
    return basis


def former_int_rows(nums, rows, cols):
    """linalg._int_rows as it formerly was: one dict comprehension per row
    over that row's slice of the image."""
    return [{c: x for c, x in enumerate(nums[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)]


def former_block_rows(h, w, equations, field):
    """linalg._block_rows as it formerly was: each distinct (c, L, R) lists
    the scaled nonzeros of every L row and R column from a grid of its
    image (a c X_b term as c L X_b with L the identity), then every cell
    (i, j) of every equation adds its terms' products.  Each coefficient c
    is an int."""
    equations = list(equations)
    terms = {}
    for eq in equations:
        for c, l, _, r in eq:
            key = (c, id(l), id(r))
            if key not in terms:
                num, d = c, 1
                for m in (l, r):
                    if m is not None:
                        if m.field is not field and m.field != field:
                            raise FieldMismatchError("mixed scalar modes")
                        d *= m._image()[1]
                terms[key] = (c, l, r, num, d)
    common = lcm(*{t[4] for t in terms.values()})

    def nonzeros(m, by_col, s):
        if m is None:
            return [[(i, s)] for i in range(h)]
        ents, mc = m._image()[0], m.cols
        grid = [ents[i * mc:(i + 1) * mc] for i in range(m.rows)]
        return [[(k, s * x) for k, x in enumerate(line) if x]
                for line in (zip(*grid) if by_col else grid)]

    lines = {}
    for key, (c, l, r, num, d) in terms.items():
        s = num * (common // d)
        if r is None:
            lines[key] = (nonzeros(l, False, s), None)
        elif l is None:
            lines[key] = (None, nonzeros(r, True, s))
        else:
            lines[key] = (nonzeros(l, False, s), nonzeros(r, True, 1))

    cells = [(i, j) for i in range(h) for j in range(w)]
    rows = []
    for eq in equations:
        block = [{} for _ in cells]
        for c, l, b, r in eq:
            lnz, rnz = lines[c, id(l), id(r)]
            bw = b * h * w
            for row, (i, j) in zip(block, cells):
                if rnz is None:
                    pairs = [(bw + k * w + j, x) for k, x in lnz[i]]
                elif lnz is None:
                    pairs = [(bw + i * w + k, x) for k, x in rnz[j]]
                else:
                    pairs = [(bw + k * w + kk, x * y) for k, x in lnz[i] for kk, y in rnz[j]]
                for key, x in pairs:
                    row[key] = row.get(key, 0) + x
        rows += block
    return rows


def former_band_law(eps):
    """reps.band_law as it formerly was: the first_failure entry of the band
    law over every pair of halo indices."""
    return first_failure(lambda a, b: eps[a] * eps[b] == eps[a],
                         [(a, b) for a in eps for b in eps])


def former_induction_L(m, d):
    """The induced object of induction_L, built as it formerly was (and not
    checked): eps^L_a by former_block_diag, column block g of t_h cut out of
    the identity at column block h g and hstacked."""
    g_ord, dm, field = d.group.order, m.dim, m.field
    dim = g_ord * dm
    eps = {a: former_block_diag(field, [m.eps[d.action.apply(d.group.inv[g], a)]
                                        for g in range(g_ord)])
           for a in range(d.halo_size)}
    ident = Matrix.identity(field, dim)
    t = {h: hstack([ident.block(0, d.group.mul[h][g] * dm, dim, dm) for g in range(g_ord)])
         for h in range(g_ord)}
    return SemilinearObject(d.action, dim, eps, t)


def right_group_at(d, e):
    """The right group at the bar-unit e of the digroup d, with its table.

    Returns (elements, table) where elements[g] = (g^-1, g^-1 . b) and
    table is indexed like the parent group but transported through |-
    (the transport reverses factor order).
    """
    if not d.is_bar_unit(e):
        raise ValueError("%r is not a bar-unit" % (e,))
    b = e[1]
    n = d.group.order
    elems = [(d.group.inv[g], d.action.apply(d.group.inv[g], b)) for g in range(n)]
    pos = {x: i for i, x in enumerate(elems)}
    table = []
    for g in range(n):
        row = []
        for h in range(n):
            prod = d.vdash(elems[g], elems[h])
            if prod not in pos:
                raise GroupTableError("right group not closed under |-")
            # elems[g] |- elems[h] must land at elems[h*g]
            if pos[prod] != d.group.mul[h][g]:
                raise GroupTableError("right group law does not transport")
            row.append(pos[prod])
        table.append(row)
    return elems, table


def flat(m):
    """The entries of the matrix m, row-major, as a list."""
    return list(m.entries)


def per_vector_halo_actions(q, w):
    """The G-actions of halo.g_action_on_hom and halo.ext1_BE, one solve per vector.

    The package's former algorithm: each image g.f (f in the hom_BE basis)
    and each image g.eta of a class representative is solved on its own,
    in the basis of Hom_BE and of Z = [B | reps], and the columns are
    stacked.  Returns ({g: action on Hom_BE}, {g: action on the classes});
    the reference for the one solve per g of the package.
    """
    group, act = q.action.group, q.action
    field = w.field if w.dim else q.field
    dw, dq, m = w.dim, q.dim, len(q.eps)
    tq_inv = {g: q.t[g].inverse() for g in range(group.order)}

    def stacked(cols, n):
        return hstack(cols) if cols else Matrix(field, n, 0, [])

    basis = hom_BE(q, w)
    vecs = [Matrix(field, dw * dq, 1, f.entries) for f in basis]
    on_hom = {g: stacked([coordinates(vecs, Matrix(field, dw * dq, 1,
                                                   (w.t[g] * f * tq_inv[g]).entries))
                          for f in basis], 0)
              for g in range(group.order)}
    if dw * dq == 0:
        return on_hom, {g: Matrix(field, 0, 0, []) for g in range(group.order)}
    keys = range(m)
    zvecs = block_kernel(m, dw, dq, [[(1, w.eps[a], b, None), (1, None, a, q.eps[b]),
                                      (-1, None, a, None)]
                                     for a in keys for b in keys], field)
    bvecs = block_image(1, dw, dq, [[(1, w.eps[a], 0, None), (-1, None, 0, q.eps[a])]
                                    for a in keys], field)
    reps = quotient(bvecs, zvecs)
    full = bvecs + reps

    def g_dot(g, v):
        eta = devectorize(v, keys, dw, dq, field)
        return vectorize({a: w.t[g] * eta[act.apply(group.inv[g], a)] * tq_inv[g]
                          for a in keys}, keys, dw, dq)

    on_classes = {g: stacked([coordinates(full, g_dot(g, v)).block(len(bvecs), 0,
                                                                  len(reps), 1)
                              for v in reps], 0)
                  for g in range(group.order)}
    return on_hom, on_classes


def exhaustive_halo_actions(q, w):
    """The decision and the G-actions of halo.g_action_on_hom and
    halo.ext1_BE, by a solve at every g and exhaustive checks.

    None when q or w fails the exhaustive check_semilinear or an action
    fails its group law at some pair of G x G; otherwise the per-g
    actions of per_vector_halo_actions.  The reference for the package,
    which solves on the generators only.
    """
    if not (check_semilinear(q).ok and check_semilinear(w).ok):
        return None
    actions = per_vector_halo_actions(q, w)
    group = q.action.group
    for f in actions:
        if any(f[g] * f[h] != f[group.mul[g][h]]
               for g in range(group.order) for h in range(group.order)):
            return None
    return actions


def full_family_ext1(q, w):
    """The cocycle model of Ext^1 on families over every element, the
    package's former layout.

    The Z^1 basis (cocycle_space) and the coboundaries delta t of the
    hom_rho basis are vectorized over all |D| elements, and the classes
    are quotient(span_basis(B), Z).  Returns (dim Z, dim B, class families,
    the B basis, split), where split(s) is the former is_split on an
    extension of q by w, on exhaustive_average_section and
    exhaustive_block_decompose: (True, witness) or (False, cocycle family).
    """
    elems, dw, dq = q.digroup.elements, w.dim, q.dim
    field = w.field if dw else q.field
    ts = hom_rho(q, w)
    zvecs = [vectorize(f.theta, elems, dw, dq) for f in cocycle_space(q, w)]
    cols = [vectorize(coboundary(t, q, w).theta, elems, dw, dq) for t in ts]
    bvecs = span_basis(cols)
    classes = [devectorize(v, elems, dw, dq, field) for v in quotient(bvecs, zvecs)]

    def split(s):
        sec = exhaustive_average_section(s)
        theta = exhaustive_block_decompose(s, sec).theta
        c = coordinates(cols, vectorize(theta, elems, dw, dq))
        if c is None:
            return False, theta
        t = Matrix.zeros(field, dw, dq)
        for i, base in enumerate(ts):
            t = t + base.scale(c[i, 0])
        return True, sec - s.iota * t

    return len(zvecs), len(bvecs), classes, bvecs, split


def exhaustive_average_section(s, s0=None):
    """The package's former average_section: s0 averaged over every g
    through the raw rho tables, checked to be a section of pi and
    rho-equivariant at every element of V."""
    field = s.V.field
    group = s.V.digroup.group
    n = group.order
    if field.char != 0 and n % field.char == 0:
        raise MaschkeError("characteristic %d divides the group order %d" % (field.char, n))
    if s0 is None:
        s0 = solve(s.pi, Matrix.identity(field, s.Q.dim))
        if s0 is None:
            raise RepresentationError("pi admits no linear section")
    rho_v = {g: s.V.rho[(g, 0)] for g in range(n)}
    if any(m != rho_v[g] for (g, _a), m in s.V.rho.items()):
        raise RepresentationError("rho of V depends on the halo index")
    acc = Matrix.zeros(field, s.V.dim, s.Q.dim)
    for g in range(n):
        acc = acc + rho_v[g] * s0 * s.Q.rho[(group.inv[g], 0)]
    sec = acc.scale(field.of(1) / field.of(n))
    if s.pi * sec != Matrix.identity(field, s.Q.dim):
        raise RepresentationError("the averaged section is not a section of pi")
    for x in s.V.digroup.elements:
        if s.V.rho[x] * sec != sec * s.Q.rho[x]:
            raise RepresentationError("the averaged section is not equivariant at %r" % (x,))
    return sec


def exhaustive_block_decompose(s, sec):
    """The package's former block_decompose: every element of V brought
    into the basis C = [iota | sec] (products memoized by content), its
    block shapes checked against W and Q at that element, and the corner
    family checked by the exhaustive check_cocycle.  The reference for
    the package, which conjugates the generators of V only."""
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
    memo = ContentMemo()
    Cinv, C = memo.canon(Cinv), memo.canon(C)

    def coords(m):
        return memo.mul(memo.mul(Cinv, memo.canon(m)), C)

    theta = {}
    for x in s.V.digroup.elements:
        t = coords(s.V.rho[x])
        if not t.block(k, 0, n - k, k).is_zero():
            raise RepresentationError("section not equivariant at %r" % (x,))
        if not t.block(0, k, k, n - k).is_zero():
            raise RepresentationError("rho not block diagonal at %r" % (x,))
        if t.block(0, 0, k, k) != s.W.rho[x] or t.block(k, k, n - k, n - k) != s.Q.rho[x]:
            raise RepresentationError("rho diagonal blocks mismatch at %r" % (x,))
        t = coords(s.V.lam[x])
        if not t.block(k, 0, n - k, k).is_zero():
            raise RepresentationError("lam not upper triangular at %r" % (x,))
        if t.block(0, 0, k, k) != s.W.lam[x] or t.block(k, k, n - k, n - k) != s.Q.lam[x]:
            raise RepresentationError("lam diagonal blocks mismatch at %r" % (x,))
        theta[x] = t.block(0, k, k, n - k)
    report = check_cocycle(theta, s.Q, s.W)
    if not report.ok:
        raise RepresentationError("cocycle identities fail: %r" % report.failures())
    return CocycleFamily(theta)


def former_all_actions(group, set_size):
    """The act tables of every action of group on set_size points, by the
    package's former enumeration: permutation images for the generators
    in counter order (_product_of_perms), each extended along the Cayley
    table by its own closure walk (_extend_hom) and verified in full by
    GAction; the trivial group's one action is added by hand."""
    gens = group.generators()
    perms = list(permutations(range(set_size)))
    found = []
    if not gens:
        found.append(GAction.trivial(group, set_size).act)
    for images in _product_of_perms(perms, len(gens)):
        tbl = _extend_hom(group, gens, images, set_size)
        if tbl is None:
            continue
        try:
            found.append(GAction(group, set_size, tbl).act)
        except ValueError:
            continue
    return found


def former_sign_characters(group):
    """reps.sign_characters as it formerly was: every sign vector, in
    order of the mask whose bit g is set where chi(g) = -1, kept where
    chi(1) = 1 and chi(g h) = chi(g) chi(h) at every pair."""
    n = group.order
    out = []
    for mask in range(1 << n):
        chi = [1 if mask & (1 << i) == 0 else -1 for i in range(n)]
        if chi[group.identity] != 1:
            continue
        if all(chi[group.mul[g][h]] == chi[g] * chi[h]
               for g in range(n) for h in range(n)):
            out.append(tuple(chi))
    return out


def _product_of_perms(perms, k):
    if k == 0:
        return
    idx = [0] * k
    while True:
        yield [perms[i] for i in idx]
        j = k - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < len(perms):
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            return


def _extend_hom(group, gens, images, set_size):
    """Extend generator images to a full action table; None on a clash."""
    n = group.order
    phi = {group.identity: tuple(range(set_size))}
    for g, p in zip(gens, images):
        if g in phi and phi[g] != p:
            return None
        phi[g] = p
    changed = True
    while changed and len(phi) < n:
        changed = False
        for a in list(phi):
            for s in gens:
                b = group.mul[a][s]
                comp = tuple(phi[a][phi[s][k]] for k in range(set_size))
                if b in phi:
                    if phi[b] != comp:
                        return None
                else:
                    phi[b] = comp
                    changed = True
    if len(phi) < n:
        return None
    return [list(phi[g]) for g in range(n)]


def former_check_axioms(d):
    """The package's former Digroup.check_axioms: every identity checked by
    first_failure over element tuples through the vdash/dashv methods."""
    elems = d.elements
    results = {}
    pairs_h = [(e, x) for e in d.halo() for x in elems]
    results["unit_left_vdash"] = first_failure(lambda e, x: d.vdash(e, x) == x, pairs_h)
    results["unit_right_dashv"] = first_failure(lambda e, x: d.dashv(x, e) == x, pairs_h)

    def has_inverses(e, x):
        try:
            d.inverses_at(x, e)
        except GroupTableError:
            return False
        return True

    results["inverses"] = first_failure(has_inverses, pairs_h)
    triples = [(x, y, z) for x in elems for y in elems for z in elems]
    results["assoc_vdash"] = first_failure(
        lambda x, y, z: d.vdash(d.vdash(x, y), z) == d.vdash(x, d.vdash(y, z)), triples)
    results["assoc_dashv"] = first_failure(
        lambda x, y, z: d.dashv(d.dashv(x, y), z) == d.dashv(x, d.dashv(y, z)), triples)
    results["mixed_bar"] = first_failure(
        lambda x, y, z: d.vdash(x, d.dashv(y, z)) == d.dashv(d.vdash(x, y), z), triples)
    results["mixed_dashv"] = first_failure(
        lambda x, y, z: d.dashv(x, d.dashv(y, z)) == d.dashv(x, d.vdash(y, z)), triples)
    results["mixed_vdash"] = first_failure(
        lambda x, y, z: d.vdash(d.vdash(x, y), z) == d.vdash(d.dashv(x, y), z), triples)
    return AxiomReport(results)


def former_check_representation(r):
    """The package's former check_representation: R1-R5 by one
    first_failure scan per identity over element tuples, products
    memoized by content, and the rank of every rho operator."""
    r.check_shapes()
    d = r.digroup
    elems = d.elements
    results = {}
    memo = ContentMemo()
    mul = memo.mul
    lam = {x: memo.canon(r.lam[x]) for x in elems}
    rho = {x: memo.canon(r.rho[x]) for x in elems}
    pairs = [(x, y) for x in elems for y in elems]
    results["R1"] = first_failure(lambda x, y: lam[d.dashv(x, y)] == mul(lam[x], lam[y]), pairs)
    results["R2"] = first_failure(lambda x, y: rho[d.vdash(x, y)] == mul(rho[x], rho[y]), pairs)
    ident = Matrix.identity(r.field, r.dim)
    bad = next((e for e in d.halo() if r.rho[e] != ident), None)
    results["R3"] = (bad is None, bad)
    results["R4"] = first_failure(lambda x, y: mul(rho[x], lam[y]) == lam[d.vdash(x, y)], pairs)
    results["R5"] = first_failure(lambda x, y: mul(lam[x], rho[y]) == lam[d.dashv(x, y)], pairs)
    sing = next((x for x in elems if r.rho[x].rank() != r.dim), None)
    results["rho_invertible"] = (sing is None, sing)
    return AxiomReport(results)


def former_check_cocycle(theta, Q, W):
    """The package's former check_cocycle: Z1a, Z1b and Z1c by one
    first_failure scan each over element tuples, memoized by content."""
    d = Q.digroup
    elems = d.elements
    memo = ContentMemo()
    mul = memo.mul
    th = {x: memo.canon(theta[x]) for x in elems}
    lam_w = {x: memo.canon(W.lam[x]) for x in elems}
    lam_q = {x: memo.canon(Q.lam[x]) for x in elems}
    rho_w = {x: memo.canon(W.rho[x]) for x in elems}
    rho_q = {x: memo.canon(Q.rho[x]) for x in elems}
    pairs = [(x, y) for x in elems for y in elems]
    return AxiomReport({
        "Z1a": first_failure(lambda x, y: th[d.dashv(x, y)]
                             == memo.add(mul(lam_w[x], th[y]), mul(th[x], lam_q[y])),
                             pairs),
        "Z1b": first_failure(lambda x, y: th[d.vdash(x, y)] == mul(rho_w[x], th[y]), pairs),
        "Z1c": first_failure(lambda x, y: th[d.dashv(x, y)] == mul(th[x], rho_q[y]), pairs),
    })


def former_associativity_failure(group):
    """The package's former FiniteGroup.associativity_failure: the first
    triple (a, b, c) with (a b) c != a (b c), by a scan of the triples."""
    n = group.order
    for a in range(n):
        for b in range(n):
            ab = group.mul[a][b]
            for c in range(n):
                if group.mul[ab][c] != group.mul[a][group.mul[b][c]]:
                    return (a, b, c)
    return None


def former_action_check(group, set_size, act):
    """The checks of the package's former GAction constructor, raising as
    it raised: the shape, the identity, then the law by a scan of the
    triples (g, h, a)."""
    act = tuple(tuple(row) for row in act)
    if len(act) != group.order or any(len(r) != set_size for r in act):
        raise ValueError("action table shape mismatch")
    for a in range(set_size):
        if act[group.identity][a] != a:
            raise ValueError("identity does not act trivially")
    for g in range(group.order):
        for h in range(group.order):
            gh = group.mul[g][h]
            for a in range(set_size):
                if act[gh][a] != act[g][act[h][a]]:
                    raise ValueError("action law fails at (%d,%d,%d)" % (g, h, a))


def former_algebra_check(a):
    """The package's former FDAlgebra.check: the table, the unit, then
    associativity by a scan of the triples (i, j, k)."""
    n, p, u = a.dim, a.product, a.unit
    if len(p) != n or any(len(row) != n for row in p):
        raise AlgebraError("product table is not %d x %d" % (n, n))
    if any(type(k) is not int or not 0 <= k < n
           for k in [u] + [k for row in p for k in row]):
        raise AlgebraError("product table index outside range(%d)" % n)
    for i in range(n):
        if p[u][i] != i or p[i][u] != i:
            raise AlgebraError("unit fails at basis element %d" % i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if p[p[i][j]][k] != p[i][p[j][k]]:
                    raise AlgebraError("associativity fails at (%d,%d,%d)" % (i, j, k))
    return True


def former_check_relations(a, d):
    """The package's former check_relations: each relation by first_failure
    over element pairs, through vdash, dashv and basis_labels.index."""
    p = a.product

    def ell(x):
        return a.index(("M", x[1], x[0]))

    def r(x):
        return a.index(("R", x[0]))

    pairs = [(x, y) for x in d.elements for y in d.elements]
    bad = next((e for e in d.halo() if r(e) != a.unit), None)
    return AxiomReport({
        "ell_dashv": first_failure(lambda x, y: ell(d.dashv(x, y)) == p[ell(x)][ell(y)], pairs),
        "r_vdash": first_failure(lambda x, y: r(d.vdash(x, y)) == p[r(x)][r(y)], pairs),
        "r_unit": (bad is None, bad),
        "r_ell": first_failure(lambda x, y: p[r(x)][ell(y)] == ell(d.vdash(x, y)), pairs),
        "ell_r": first_failure(lambda x, y: p[ell(x)][r(y)] == ell(d.dashv(x, y)), pairs),
    })


def former_table_generators(product, unit):
    """The package's former table_generators: the greedy set, each new
    generator growing the closure of the old ones under all of them."""
    gens = []
    closed = {unit}
    for g in range(len(product)):
        if g in closed:
            continue
        gens.append(g)
        todo = list(closed)
        while todo:
            row = product[todo.pop()]
            for s in gens:
                y = row[s]
                if y not in closed:
                    closed.add(y)
                    todo.append(y)
    if len(closed) != len(product):
        raise AlgebraError("the generating set reaches %d of %d elements"
                           % (len(closed), len(product)))
    return gens


def former_presentation(a):
    """The (tree, rules) of the package's former FDAlgebra.presentation:
    the Froidure-Pin scan on former_table_generators."""
    p, unit = a.product, a.unit
    gens = former_table_generators(p, unit)
    suffix, order, tree, rules = {unit: unit}, [unit], {}, []
    for x in order:
        for s in gens:
            y = p[x][s]
            if y not in suffix:
                suffix[y] = unit if x == unit else p[suffix[x]][s]
                order.append(y)
                tree[x, s] = y
            elif x == unit or (suffix[x], s) in tree:
                rules.append((x, s))
    return list(tree), rules


def former_generated_homomorphism(images, group, one, times=operator.mul):
    """The package's former generated_homomorphism: the pairs (x, s) in the
    order of its own closure walk from 1, grown as the scan reaches x s."""
    e = group.identity
    f = dict(images)
    if f.setdefault(e, one) != one:
        return f, (False, (e,))
    gens = former_table_generators(group.mul, e)
    order, reached = [e], {e}

    def law(x, s):
        xs = group.mul[x][s]
        if xs not in reached:
            reached.add(xs)
            order.append(xs)
        value = times(f[x], f[s])
        return f.setdefault(xs, value) == value

    return f, first_failure(law, ((x, s) for x in order for s in gens))


def outcome(call):
    """("ok", call()), or (the exception's type, its message) when call raises."""
    try:
        return "ok", call()
    except Exception as e:
        return type(e), str(e)


def former_enveloping_algebra(d):
    """(labels, product, unit) of the enveloping algebra as the package wrote
    it before its table came from the product rules: every product by the
    case analysis on the two labels."""
    n = d.group.order
    m = d.halo_size
    labels = [("R", g) for g in range(n)]
    labels += [("M", a, g) for a in range(m) for g in range(n)]
    idx = {lab: i for i, lab in enumerate(labels)}
    product = []
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
            row.append(idx[lab])
        product.append(tuple(row))
    return tuple(labels), tuple(product), idx[("R", d.group.identity)]


def former_tau_automorphism(g, action, field):
    """The permutation matrix of eps_a -> eps_(g.a), from nested scalar lists."""
    m = action.set_size
    dim = 1 + m
    z, o = field.of(0), field.of(1)
    ents = [[z] * dim for _ in range(dim)]
    ents[0][0] = o
    for a in range(m):
        ents[1 + action.apply(g, a)][1 + a] = o
    return Matrix.from_rows(field, ents)
