"""Digroup representations: operator tables at the boundary, generators inside.

A representation is written as one matrix per digroup element for each
of the two operator families (lam for the left family, rho for the
invertible right family), keyed by the element pair (g, a).  The five
defining identities are

    R1  lam[x -| y] = lam[x] lam[y]
    R2  rho[x |- y] = rho[x] rho[y]
    R3  rho[e] = I for every bar-unit e
    R4  rho[x] lam[y] = lam[x |- y]
    R5  lam[x] rho[y] = lam[x -| y]

The 2 n m tables are the boundary format: they are what the JSON files
hold, and where tables enter from outside (`digrep check`, the loaders)
check_representation scans R1-R5 over every pair of elements, and the
loaders register the form read off the checked tables (register_view).
Inside the package a representation is its semilinear form (L, rho): the
m halo idempotents L_a = lam[(1, a)] and the n group operators rho_g.
require_valid verifies that form once per object (_view), with the group
law and C3 checked on S_G = FiniteGroup.generators() only (the lemma of
digroup.generated_homomorphism); every representation the package makes
is built from a verified semilinear object by from_semilinear, and every
later scan runs over the m + |S_G| generators (_generators).
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from operator import mul

from .digroup import (AxiomReport, Digroup, first_failure, generated_homomorphism,
                      homomorphisms)
from .linalg import (ContentMemo, DimensionError, Matrix, QQ, block_diag, columns,
                     contains, intertwiners, span_basis)


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Representation:
    digroup: Digroup
    dim: int
    lam: dict
    rho: dict

    @property
    def field(self):
        if self.lam:
            return next(iter(self.lam.values())).field
        return QQ

    def check_shapes(self):
        elems = self.digroup.elements
        for table in (self.lam, self.rho):
            if sorted(table) != sorted(elems):
                raise RepresentationError("operator table keys != digroup elements")
            for m in table.values():
                if (m.rows, m.cols) != (self.dim, self.dim):
                    raise RepresentationError("operator shape mismatch")


def check_representation(r):
    """Exhaustive check of R1-R5 plus invertibility of every rho operator.

    The report for tables from outside: it names every failing identity
    with its first failing pair.  require_valid makes the same decision
    on the generators (see _view).  R1, R2, R4 and R5 share one scan of
    every pair on the digroup's int product tables (Digroup.pair_failures).
    Operators are ContentMemo-canonical and their products memoized: the
    tables repeat values heavily, so this stays exhaustive but multiplies
    each distinct pair of values once, and ranks each distinct rho once.
    """
    r.check_shapes()
    d = r.digroup
    elems = d.elements
    V, D = d.tables()
    memo = ContentMemo()
    row = memo.mul_row
    lam = [memo.canon(r.lam[x]) for x in elems]
    rho = [memo.canon(r.rho[x]) for x in elems]
    lam_at, rho_at = lam.__getitem__, rho.__getitem__
    scan = d.pair_failures({
        "R1": lambda i: (list(map(lam_at, D[i])), row(lam[i], lam)),
        "R2": lambda i: (list(map(rho_at, V[i])), row(rho[i], rho)),
        "R4": lambda i: (row(rho[i], lam), list(map(lam_at, V[i]))),
        "R5": lambda i: (row(lam[i], rho), list(map(lam_at, D[i]))),
    })
    ident = Matrix.identity(r.field, r.dim)
    bad = next((e for e in d.halo() if r.rho[e] != ident), None)
    full = {}   # id of a canonical rho -> whether it is invertible

    def invertible(m):
        if id(m) not in full:
            full[id(m)] = m.rank() == r.dim
        return full[id(m)]

    sing = next((x for x, m in zip(elems, rho) if not invertible(m)), None)
    return AxiomReport({"R1": scan["R1"], "R2": scan["R2"], "R3": (bad is None, bad),
                        "R4": scan["R4"], "R5": scan["R5"],
                        "rho_invertible": (sing is None, sing)})


# -- verify once ---------------------------------------------------------

_done = weakref.WeakKeyDictionary()   # owner -> (results, next owner -> ...)


def once(owners, key, make):
    """make(), computed once per owner (or ordered pair of owners) and key.

    This is the one registry of checked objects and verified results.
    Every owner is held weakly at every level, so an entry goes when any
    of its owners does; no owner may appear inside a key or a value.  A
    make() that raises records nothing, so a broken object raises on every
    call.  Callers hand out copies of mutable values.
    """
    level = _done
    for owner in owners if isinstance(owners, tuple) else (owners,):
        node = level.get(owner)
        if node is None:
            node = level[owner] = ({}, weakref.WeakKeyDictionary())
        results, level = node
    if key not in results:
        results[key] = make()
    return results[key]


def require_ok(report, what):
    """Raise RepresentationError unless the AxiomReport passed."""
    if not report.ok:
        raise RepresentationError("%s fail: %r" % (what, report.failures()))


def require_valid(r):
    """r, once its semilinear form is verified (_view); RepresentationError
    on every call otherwise."""
    _view(r)
    return r


def _view(r):
    """(eps, t) with eps[a] = L_a = lam[(1, a)] and t[g] = rho_g, verified
    once per representation; the tables are shared, callers hand out copies.

    The checks, in order: check_shapes, rho ignores the halo index,
    lam[(g, a)] = L_a rho_g, and check_semilinear_on_generators on
    (eps, t), which decides like check_semilinear.  They pass
    exactly when R1-R5 hold and every rho operator is invertible, the
    decision of check_representation, but on m + n generators.  Write
    x = (g, a) and y = (h, b), so x -| y = (gh, a), x |- y = (gh, g.b) and
    the bar-units are the (1, a).

    R1-R5 give the checks.  R2 at x, (1, b) with R3 gives
    rho[(g, g.b)] = rho[(g, a)]; g.b runs over the whole halo, so rho
    ignores the halo index.  R5 at the bar-unit (1, a) and (g, b) gives
    lam[(g, a)] = L_a rho_g.  R1 at two bar-units is the band law
    L_a L_b = L_a, R3 is C1, R2 is C2, and R4 at (g, b), (1, a) with the
    factorization is C3: rho_g L_a = L_(g.a) rho_g.  The rho_g are
    invertible.

    The checks give R1-R5.  Now rho[x] = t_g and lam[x] = L_a t_g.  R3 is
    C1 and R2 is C2.  R5: L_a t_g t_h = L_a t_gh by C2.  R4: C3 then C2
    give t_g L_b t_h = L_(g.b) t_gh.  R1: C3, C2 and the band law give
    L_a t_g L_b t_h = L_a L_(g.b) t_gh = L_a t_gh.  C1 and C2 give
    t_g t_(g^-1) = I, so every rho operator is invertible.
    """
    return once(r, "valid", lambda: _verified_view(r))


def _verified_view(r):
    r.check_shapes()
    d = r.digroup
    eps, t = _table_view(r)
    for g in range(d.group.order):
        for a in range(1, d.halo_size):
            if r.rho[(g, a)] != t[g]:
                raise RepresentationError("rho depends on halo index at g=%d" % g)
    for (g, a), m in r.lam.items():
        if m != eps[a] * t[g]:
            raise RepresentationError("lam factorization fails at %r" % ((g, a),))
    require_ok(check_semilinear_on_generators(SemilinearObject(d.action, r.dim, eps, t)),
               "semilinear axioms")
    return eps, t


def _table_view(r):
    """(eps, t) read off the tables: eps[a] = lam[(1, a)], t[g] = rho[(g, 0)]."""
    d = r.digroup
    return ({a: r.lam[(d.group.identity, a)] for a in range(d.halo_size)},
            {g: r.rho[(g, 0)] for g in range(d.group.order)})


def register_view(r):
    """r, with the view read off its tables registered as its verified view
    (_view) without the checks of _verified_view; the caller proves that
    they pass.  The two callers:

    - from_semilinear builds the tables from a verified semilinear object
      (see there);
    - the JSON loaders register tables that passed check_representation,
      whose decision is that of _view (the proof there), and on such
      tables _verified_view returns the view read off them.
    """
    once(r, "valid", lambda: _table_view(r))
    return r


def _generators(*reps):
    """[(name, X_1, X_2, ...)], X_i the generator of reps[i]: ("L_a", L_a)
    for each halo index a, then ("rho_s", rho_s) for each s in S_G, from
    the verified semilinear forms of reps (one digroup).

    Since lam[(g, a)] = L_a rho_g, rho[(g, a)] = rho_g and every rho_g is
    a product of the rho_s (C2 and the lemma of
    digroup.generated_homomorphism), a linear map between two of them
    intertwines every operator exactly when it intertwines each
    generator, and a subspace stable under each generator is stable
    under every operator.
    """
    views = [_view(r) for r in reps]
    eps = views[0][0]
    return ([("L_%d" % a,) + tuple(v[0][a] for v in views) for a in eps]
            + [("rho_%d" % s,) + tuple(v[1][s] for v in views)
               for s in reps[0].digroup.group.generators()])


def rho_group_form(r):
    """The map g -> rho_g of the verified semilinear form of r, as a fresh
    copy on every call (see _view)."""
    return dict(_view(r)[1])


def lambda_factorization(r):
    """The map a -> L_a with lam[(g,a)] = L_a rho_g, from the verified
    semilinear form of r, as a fresh copy on every call."""
    return dict(_view(r)[0])


def is_subrepresentation(r, basis):
    """Whether span(basis) is stable under r, decided on its generators."""
    basis = span_basis(basis)
    ops = dict.fromkeys(x for _, x in _generators(r))
    return contains(basis, *(m * v for m in ops for v in basis))


def sub_quotient(r, basis):
    """Split off the stable subspace: returns (W, Q, iota, pi), W and Q verified.

    Quotient coordinates are the non-pivot coordinates of the canonical
    basis of the subspace, so the construction is reproducible.  In the
    basis [subspace | complement] each L_a and t_g of r must be block upper
    triangular (the subspace is stable under each of them, so under every
    operator); RepresentationError otherwise.  The diagonal blocks are the
    semilinear forms of W and Q.
    """
    eps, t = _view(r)
    basis = span_basis(basis)
    field = r.field
    n = r.dim
    k = len(basis)
    # the pivot of each RREF row is its first nonzero entry
    piv = [next(i for i, x in enumerate(v._image()[0]) if x) for v in basis]
    compl = [c for c in range(n) if c not in piv]
    ident = Matrix.identity(field, n)
    cols = list(basis) + [ident.col_vector(c) for c in compl]
    C = columns(field, n, cols)
    Cinv = C.inverse()

    def blocks(ops):
        top, bottom = {}, {}
        for key, m in ops.items():
            x = Cinv * m * C
            if not x.block(k, 0, n - k, k).is_zero():
                raise RepresentationError("basis does not span a stable subspace")
            top[key] = x.block(0, 0, k, k)
            bottom[key] = x.block(k, k, n - k, n - k)
        return top, bottom

    (eps_w, eps_q), (t_w, t_q) = blocks(eps), blocks(t)
    d = r.digroup
    W = from_semilinear(SemilinearObject(d.action, k, eps_w, t_w), d)
    Q = from_semilinear(SemilinearObject(d.action, n - k, eps_q, t_q), d)
    iota = columns(field, n, basis)
    pi = Cinv.block(k, 0, n - k, n)
    return W, Q, iota, pi


def direct_sum(r1, r2):
    if r1.digroup is not r2.digroup:
        raise RepresentationError("direct sum needs a common digroup")
    field = r1.field
    (eps1, t1), (eps2, t2) = _view(r1), _view(r2)
    eps = {a: block_diag(field, [eps1[a], eps2[a]]) for a in eps1}
    t = {g: block_diag(field, [t1[g], t2[g]]) for g in t1}
    d = r1.digroup
    return from_semilinear(SemilinearObject(d.action, r1.dim + r2.dim, eps, t), d)


def hom_rep(r1, r2):
    """Canonical basis of the intertwiner space between two representations."""
    if r1.digroup is not r2.digroup:
        raise RepresentationError("hom needs a common digroup")
    return intertwiners([(x1, x2) for _, x1, x2 in _generators(r1, r2)],
                        r1.dim, r2.dim, r1.field)


# -- the semilinear packaging --------------------------------------------


@dataclass(frozen=True, eq=False)
class SemilinearObject:
    """A module over the halo band algebra with a compatible group family.

    eps[a] are the idempotent halo operators (eps[a] eps[b] = eps[a]) and
    t[g] the invertible group operators, tied together by
    t[g] eps[a] = eps[g.a] t[g].
    """

    action: "GAction"
    dim: int
    eps: dict
    t: dict

    @property
    def group(self):
        return self.action.group

    @property
    def field(self):
        if self.eps:
            return next(iter(self.eps.values())).field
        return QQ


def band_law(eps):
    """The first_failure entry of the band law eps[a] eps[b] = eps[a] over
    every pair of halo indices.

    The spoke pairs of band_spokes decide it (its lemma), so every pair is
    scanned only when a spoke fails, to name the first failing pair.
    """
    def law(a, b):
        return eps[a] * eps[b] == eps[a]

    keys = list(eps)
    if first_failure(law, [(keys[a], keys[b]) for a, b in band_spokes(len(keys))])[0]:
        return (True, None)
    return first_failure(law, [(a, b) for a in keys for b in keys])


def band_spokes(m):
    """The pairs (a, b) of halo indices on which the band law of m
    idempotents decides it: (0, 0) when m = 1, else (a, 0) and (0, b) for
    a, b >= 1.

    Lemma.  If E_a E_0 = E_a and E_0 E_b = E_0 for a, b >= 1, then
    E_a E_b = E_a for every pair: E_a E_b = E_a E_0 E_b = E_a E_0 = E_a
    for a, b >= 1, and E_0 E_0 = E_0 E_1 E_0 = E_0 E_1 = E_0.  The Z
    systems of ext._solve_ext1 (Z1a) and halo.ext1_BE apply it to
    E_a = [[W_a, X_a], [0, Q_a]], whose diagonal blocks are verified
    bands: the corner of E_a E_b = E_a is W_a X_b + X_a Q_b = X_a, so the
    block equations at the spokes give it at every pair.
    """
    if m == 1:
        return [(0, 0)]
    return [(a, 0) for a in range(1, m)] + [(0, b) for b in range(1, m)]


def check_semilinear(m):
    """Exhaustive report of the semilinear axioms: the band law, C1, C2
    over every pair of group elements and C3 over every (g, a).

    The report for tests and for objects from outside;
    check_semilinear_on_generators makes the same decision on S_G.  An
    eps or t that is not dim x dim raises RepresentationError in both.
    """
    _check_semilinear_shapes(m)
    g = m.action.group
    results = {}
    results["band"] = band_law(m.eps)
    ident = Matrix.identity(m.field, m.dim)
    results["C1"] = (m.t[g.identity] == ident, None if m.t[g.identity] == ident else g.identity)
    results["C2"] = first_failure(lambda x, y: m.t[x] * m.t[y] == m.t[g.mul[x][y]],
                                  [(x, y) for x in m.t for y in m.t])
    results["C3"] = first_failure(
        lambda x, a: m.t[x] * m.eps[a] == m.eps[m.action.apply(x, a)] * m.t[x],
        [(x, a) for x in m.t for a in m.eps])
    # with C1 and C2, t[x] t[x^-1] = t[1] = I: every t[x] is invertible,
    # so the ranks are computed only when one of the two fails
    sing = None
    if not (results["C1"][0] and results["C2"][0]):
        sing = next((x for x in m.t if m.t[x].rank() != m.dim), None)
    results["t_invertible"] = (sing is None, sing)
    return AxiomReport(results)


def _check_semilinear_shapes(m):
    """RepresentationError unless every eps[a] and t[g] is dim x dim."""
    for what, table in (("eps", m.eps), ("t", m.t)):
        for k, x in table.items():
            if (x.rows, x.cols) != (m.dim, m.dim):
                raise RepresentationError("%s shape mismatch at %r: %d x %d, not %d x %d"
                                          % (what, k, x.rows, x.cols, m.dim, m.dim))


def check_semilinear_on_generators(m):
    """The decision of check_semilinear, on the generators S_G of the group.

    The band law over every pair of halo indices; C1 and C2 through
    digroup.generated_homomorphism (t[1] = I and t[x] t[s] = t[x s] for
    x in G, s in S_G); C3 for s in S_G and every a.  By the lemma of
    generated_homomorphism these give C2 at every pair and make every
    t[g] invertible, and C3 follows at every g by induction along the
    words: t[x s] L_a = t[x] t[s] L_a = t[x] L_(s.a) t[s]
    = L_(x s.a) t[x] t[s] = L_(x s.a) t[x s].  So the report passes
    exactly when check_semilinear's does, with (n + m) |S_G| + m^2
    products in place of n^2 + n m + m^2.
    """
    _check_semilinear_shapes(m)
    group = m.action.group
    ident = Matrix.identity(m.field, m.dim)
    return AxiomReport({
        "band": band_law(m.eps),
        "C1_C2": generated_homomorphism(m.t, group, ident)[1],
        "C3": first_failure(
            lambda s, a: m.t[s] * m.eps[a] == m.eps[m.action.apply(s, a)] * m.t[s],
            [(s, a) for s in group.generators() for a in m.eps]),
    })


def require_valid_semilinear(m):
    """m, once check_semilinear_on_generators has passed on it; one
    registry entry per object, RepresentationError on every call otherwise."""
    once(m, "valid", lambda: require_ok(check_semilinear_on_generators(m),
                                        "semilinear axioms"))
    return m


def to_semilinear(r):
    """The semilinear form of r; each call returns a new object with
    copied tables of the verified form (see _view), registered as verified."""
    eps, t = _view(r)
    m = SemilinearObject(r.digroup.action, r.dim, dict(eps), dict(t))
    once(m, "valid", lambda: None)
    return m


def from_semilinear(m, d):
    """The representation lam[(g, a)] = eps[a] t[g], rho[(g, a)] = t[g];
    every representation the package makes from parts is built here.

    m is verified by require_valid_semilinear, and the tables built from
    it pass check_shapes.  They then satisfy every check of _view by
    construction: rho ignores the halo index and lam factors as
    L_a rho_g, with L_a = eps[a] (C1: lam[(1, a)] = eps[a] t[1] = eps[a]).
    So the view read off the tables, (eps, t) itself, is registered as the
    verified view of the result (register_view) without recomputing the
    n m products it was built from.
    """
    if m.action is not d.action:
        raise RepresentationError("semilinear object lives over a different action")
    require_valid_semilinear(m)
    lam, rho = {}, {}
    for g, a in d.elements:
        rho[(g, a)] = m.t[g]
        lam[(g, a)] = m.eps[a] * m.t[g]
    r = Representation(d, m.dim, lam, rho)
    r.check_shapes()
    return register_view(r)


# -- seeded random instances ---------------------------------------------


def sign_characters(group):
    """All homomorphisms from the group into {1, -1}, from the shared
    enumerator digroup.homomorphisms, in order of the mask whose bit g is
    set where chi(g) = -1 (the order random_semilinear draws from)."""
    return sorted(homomorphisms(group, (1, -1), 1, mul),
                  key=lambda chi: sum(1 << g for g, x in enumerate(chi) if x < 0))


def random_semilinear(d, dim, rng, field=QQ):
    """A random valid semilinear object of the given dimension.

    Built block-by-block: each block carries a sign character for the
    group family and an orbit-constant idempotent family (zero, identity,
    or a rank-one band of line projections in 2x2 blocks), then the whole
    object is conjugated by a random invertible matrix.  Validity is by
    construction and re-verified before returning.
    """
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    g = d.group
    chars = sign_characters(g)
    orbits = d.action.orbits()
    orbit_of = {}
    for i, orb in enumerate(orbits):
        for a in orb:
            orbit_of[a] = i

    sizes = []
    left = dim
    while left > 0:
        s = 2 if left >= 2 and rng.random() < 0.5 else 1
        sizes.append(s)
        left -= s

    eps_blocks = {a: [] for a in range(d.halo_size)}
    t_blocks = {x: [] for x in range(g.order)}
    for s in sizes:
        chi = chars[rng.randrange(len(chars))]
        for x in range(g.order):
            t_blocks[x].append(Matrix.identity(field, s).scale(field.of(chi[x])))
        kind = rng.randrange(3)
        if s == 1 or kind == 0:
            val = rng.randrange(2) if s == 1 else 0
            blk = Matrix.identity(field, s).scale(field.of(val))
            for a in range(d.halo_size):
                eps_blocks[a].append(blk)
        elif kind == 1:
            for a in range(d.halo_size):
                eps_blocks[a].append(Matrix.identity(field, s))
        else:
            # rank-one projections onto an orbit-constant line (1, c),
            # along the common kernel line (0, 1): a genuine left-zero band
            projs = {}
            for i in range(len(orbits)):
                projs[i] = Matrix.from_rows(field, [[1, 0], [rng.randrange(-2, 3), 0]])
            for a in range(d.halo_size):
                eps_blocks[a].append(projs[orbit_of[a]])

    eps = {a: _diag_join(field, eps_blocks[a], dim) for a in range(d.halo_size)}
    t = {x: _diag_join(field, t_blocks[x], dim) for x in range(g.order)}
    conj = _random_invertible(field, dim, rng)
    cinv = conj.inverse()
    eps = {a: conj * m * cinv for a, m in eps.items()}
    t = {x: conj * m * cinv for x, m in t.items()}
    return require_valid_semilinear(SemilinearObject(d.action, dim, eps, t))


def _diag_join(field, blocks, dim):
    out = block_diag(field, blocks)
    if out.rows != dim:
        raise DimensionError("block sizes do not sum to the dimension")
    return out


def _random_invertible(field, n, rng):
    while True:
        m = Matrix.from_rows(field, [[rng.randrange(-2, 3) for _ in range(n)]
                                     for _ in range(n)]) if n else Matrix(field, 0, 0, [])
        if m.rank() == n:
            return m


def random_representation(d, dim, rng, field=QQ):
    return from_semilinear(random_semilinear(d, dim, rng, field), d)


def seeded_rng(seed):
    return random.Random(seed)
