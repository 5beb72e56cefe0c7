"""Finite groups, actions on finite sets, and product-model digroups.

A digroup element is an index pair (g, a): group element g acting on halo
slot a.  The two products are

    (g, a) |- (h, b) = (g h, g . b)
    (g, a) -| (h, b) = (g h, a)

and the halo is {(1, a)}.  Axioms are checked exhaustively; everything
here is small enough for brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from operator import mul


class GroupTableError(ValueError):
    """Raised when a Cayley table is not a group table."""


class AlgebraError(ValueError):
    """Raised when a product table or a module fails an algebra check."""


def table_generators(product, unit):
    """A generating set of the monoid with this product table, found greedily.

    product[i][j] is the index of the product of elements i and j, and
    unit is the index of 1.  The elements are taken in index order; each
    one outside the closure of those chosen so far joins the set.  The
    closure of S is every word unit s_1 ... s_k with each s_i in S, the
    elements table_presentation visits on S.  The returned set is
    certified: its closure reaches every element, or AlgebraError is
    raised.
    """
    gens, closed = [], {unit}
    for g in range(len(product)):
        if g not in closed:
            gens.append(g)
            closed = set(table_presentation(product, unit, gens)[0])
    if len(closed) != len(product):
        raise AlgebraError("the generating set reaches %d of %d elements"
                           % (len(closed), len(product)))
    return gens


def table_presentation(product, unit, gens):
    """(order, tree, rules): the closure of unit under right multiplication
    by gens in the order visited, and a presentation <gens | rules> of the
    monoid it spans, by the enumeration of Froidure and Pin (Theoret.
    Comput. Sci. 1997): the one closure scan of the package.

    A breadth-first scan of the edges (x, s), x -> x s for x in order and s
    in gens in their order, reaches each element y != unit first along a
    tree edge, listed in the order met, and w(y) = w(x) s is the shortlex
    least word for y.  The element of w(y) without its first letter is
    suffix(y).  The rules are the other edges (x, s) with x = unit or
    (suffix(x), s) a tree edge: then w(x) s is a minimal non-normal word,
    and the rule rewrites it to w(x s).  Every non-normal word holds a
    minimal one, and rewriting lowers the shortlex order, so every word
    rewrites to the normal form of its element: when gens generate the
    monoid (table_generators), the rules present it.
    """
    suffix, order, tree, rules = {unit: unit}, [unit], {}, []
    for x in order:
        for s in gens:
            y = product[x][s]
            if y not in suffix:
                suffix[y] = unit if x == unit else product[suffix[x]][s]
                order.append(y)
                tree[x, s] = y
            elif x == unit or (suffix[x], s) in tree:
                rules.append((x, s))
    return order, list(tree), rules


def row_failure(rows, names):
    """A first_failure entry over cases given row by row: the one comparison
    of table rows in the package.

    rows yields (prefix, lhs, rhs): lhs and rhs are the two sides of an
    identity at the cases prefix + (z,) for every index z in order, as
    sequences of one type and length (a list never equals a tuple), and
    prefix is a tuple of indices.  The first case where the sides differ
    fails, reported as the tuple of the names of its indices (an int
    table passes names = range(n)): the case a scan of the cases one by
    one meets first.
    """
    for prefix, lhs, rhs in rows:
        if lhs != rhs:
            j = next(j for j, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
            return (False, tuple(names[i] for i in prefix) + (names[j],))
    return (True, None)


class FiniteGroup:
    """A finite group as a Cayley table on indices 0..n-1."""

    def __init__(self, mul, name="group", strict=True):
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        self.name = name
        self._walk = None
        n = self.order
        for row in self.mul:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupTableError("malformed Cayley table")
        self.identity = self._find_identity()
        self.inv = self._find_inverses()
        if strict:
            bad = self.associativity_failure()
            if bad is not None:
                raise GroupTableError("table not associative at %r" % (bad,))

    def _find_identity(self):
        for e in range(self.order):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(self.order)):
                return e
        raise GroupTableError("no two-sided identity")

    def _find_inverses(self):
        inv = []
        for g in range(self.order):
            for h in range(self.order):
                if self.mul[g][h] == self.identity and self.mul[h][g] == self.identity:
                    inv.append(h)
                    break
            else:
                raise GroupTableError("element %d has no inverse" % g)
        return tuple(inv)

    def associativity_failure(self):
        """The first triple (a, b, c) with (a b) c != a (b c), or None: the
        rows c -> (a b) c and c -> a (b c) compared for each pair (a, b)."""
        n, mul = self.order, self.mul
        return row_failure((((a, b), mul[mul[a][b]], tuple(map(mul[a].__getitem__, mul[b])))
                            for a in range(n) for b in range(n)), range(n))[1]

    def generators(self):
        """A small generating set S_G: table_generators on the Cayley table,
        found once per group."""
        return list(self._closure()[0])

    def _closure(self):
        # (S_G, the elements in the order table_presentation visits them on
        # S_G), found once per group
        if self._walk is None:
            gens = table_generators(self.mul, self.identity)
            self._walk = (tuple(gens), table_presentation(self.mul, self.identity, gens)[0])
        return self._walk

    def __len__(self):
        return self.order

    @classmethod
    def cyclic(cls, n):
        if not 1 <= n <= 12:
            raise ValueError("cyclic order must be in 1..12")
        return cls([[(i + j) % n for j in range(n)] for i in range(n)], name="C%d" % n)

    @classmethod
    def symmetric3(cls):
        perms = list(permutations(range(3)))
        idx = {p: i for i, p in enumerate(perms)}
        mul = [[idx[_compose(p, q)] for q in perms] for p in perms]
        return cls(mul, name="S3")

    @classmethod
    def direct_product(cls, g, h):
        pairs = list(product(range(g.order), range(h.order)))
        mul = [[g.mul[a][c] * h.order + h.mul[b][d] for c, d in pairs] for a, b in pairs]
        return cls(mul, name="%sx%s" % (g.name, h.name))


class GAction:
    """A left action of a finite group on {0..set_size-1}, as a lookup table."""

    def __init__(self, group, set_size, act, _law_certified=False):
        self.group = group
        self.set_size = set_size
        self.act = tuple(tuple(row) for row in act)
        if len(self.act) != group.order or any(len(r) != set_size for r in self.act):
            raise ValueError("action table shape mismatch")
        e = group.identity
        for a in range(set_size):
            if self.act[e][a] != a:
                raise ValueError("identity does not act trivially")
        for g, row in enumerate(self.act):
            for a, b in enumerate(row):
                if not 0 <= b < set_size:
                    raise ValueError("action entry %d at (%d,%d) is outside range(%d)"
                                     % (b, g, a, set_size))
        if _law_certified:   # all_actions: by generated_homomorphism's lemma
            return
        # the rows a -> (g h).a and a -> g.(h.a) for each pair (g, h)
        n, act = group.order, self.act
        dot = [row.__getitem__ for row in act]
        ok, bad = row_failure((((g, h), act[group.mul[g][h]], tuple(map(dot[g], act[h])))
                               for g in range(n) for h in range(n)), range(max(n, set_size)))
        if not ok:
            raise ValueError("action law fails at (%d,%d,%d)" % bad)

    @classmethod
    def trivial(cls, group, set_size):
        return cls(group, set_size, [list(range(set_size))] * group.order)

    def apply(self, g, a):
        return self.act[g][a]

    def orbits(self):
        seen = set()
        out = []
        for a in range(self.set_size):
            if a in seen:
                continue
            orb = sorted({self.act[g][a] for g in range(self.group.order)})
            seen.update(orb)
            out.append(orb)
        return out


_action_cache = {}


def all_actions(group, set_size):
    """Every action of `group` on a set of `set_size` points: the
    homomorphisms into the permutations of the set under composition, in
    the order the shared enumerator homomorphisms finds them.  It certifies
    each group law, so the GAction constructor skips its (g, h, a) rescan."""
    key = (group.mul, set_size)
    if key not in _action_cache:
        points = tuple(range(set_size))
        _action_cache[key] = [GAction(group, set_size, act, _law_certified=True) for act
                              in homomorphisms(group, permutations(points), points, _compose)]
    return _action_cache[key]


def homomorphisms(group, values, one, times):
    """Every homomorphism from group into values, as its values on all of G.

    one is the value of the identity and times(u, v) the product of two
    values.  Each choice of values on S_G = group.generators(), in
    itertools.product order, is extended along the closure by
    generated_homomorphism; the choices whose group law holds on G x S_G
    are the homomorphisms (its lemma), the enumeration by images of a
    generating set (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005).  all_actions and reps.sign_characters enumerate
    through it.
    """
    gens = group.generators()
    tried = (generated_homomorphism(zip(gens, images), group, one, times)
             for images in product(values, repeat=len(gens)))
    return [tuple(map(f.__getitem__, range(group.order))) for f, (ok, _) in tried if ok]


def _compose(p, q):
    # the permutation k -> p[q[k]]: q acts first, as in GAction.act
    return tuple(p[k] for k in q)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom pass/fail with the first counterexample found."""

    results: dict

    @property
    def ok(self):
        return all(passed for passed, _ in self.results.values())

    def failures(self):
        return {k: ce for k, (passed, ce) in self.results.items() if not passed}


def first_failure(pred, cases):
    """An AxiomReport entry: (True, None), or (False, the first case failing pred).

    Each case is a tuple of arguments to pred; the scan is exhaustive.
    """
    for case in cases:
        if not pred(*case):
            return (False, case)
    return (True, None)


def generated_homomorphism(images, group, one, times=mul):
    """(f, entry): the map g -> f[g] on the whole group that images spans,
    and the first_failure entry of its group law.

    images holds f[s] for every s in S_G = group.generators(), and may hold
    more of the group; one is the value the identity must take, and
    times(u, v) the product of two values (matrix product by default;
    permutation composition for all_actions, the product of signs for
    sign_characters).  f[1] is one unless images
    gives it, and a given f[1] != one fails at (1,).
    The scan runs over the pairs (x, s), x in G in the order
    table_presentation visits it from 1 on S_G (found once per group) and
    s in S_G: f[x s] is set to f[x] f[s] where images leaves it open, and
    checked against it otherwise; the first pair that fails is reported.
    So the law below holds at every pair exactly when the entry passes, and
    this is the one G x S_G scan of the package: the C1 and C2 check of
    every semilinear object, the halo G-actions built from their values on
    S_G and the enumeration of homomorphisms go through it.

    Lemma.  If f(1) = I and f(x) f(s) = f(x s) for every x in G and s in
    S_G, then f(x) f(y) = f(x y) for all x, y in G.  table_generators
    certifies that every y is a word 1 s_1 ... s_k in S_G.  By induction
    on k: for k = 0, f(x) f(1) = f(x).  For y = y' s,

        f(x) f(y' s) = f(x) f(y') f(s) = f(x y') f(s) = f(x y' s),

    by the law at (y', s), the induction hypothesis and the law at
    (x y', s).  In particular f(x) f(x^-1) = I, so every f(x) is
    invertible.  The same induction, with the words read from the left,
    serves the generating sets of FDAlgebra.generators.
    """
    e = group.identity
    f = dict(images)
    if f.setdefault(e, one) != one:
        return f, (False, (e,))
    gens = group.generators()

    def law(x, s):
        value = times(f[x], f[s])
        return f.setdefault(group.mul[x][s], value) == value

    return f, first_failure(law, ((x, s) for x in group._closure()[1] for s in gens))


class Digroup:
    """A product-model digroup: group x halo set with an action."""

    def __init__(self, group, action):
        if action.group is not group and action.group.mul != group.mul:
            raise ValueError("action is not an action of the given group")
        self.group = group
        self.action = action
        self.halo_size = action.set_size
        self._tables = None
        if self.halo_size < 1:
            raise ValueError("halo must be nonempty")

    @property
    def elements(self):
        return [(g, a) for g in range(self.group.order) for a in range(self.halo_size)]

    def __len__(self):
        return self.group.order * self.halo_size

    def _check_elem(self, x):
        g, a = x
        if not (0 <= g < self.group.order and 0 <= a < self.halo_size):
            raise IndexError("element index out of range: %r" % (x,))

    def vdash(self, x, y):
        self._check_elem(x)
        self._check_elem(y)
        (g, _a), (h, b) = x, y
        return (self.group.mul[g][h], self.action.apply(g, b))

    def dashv(self, x, y):
        self._check_elem(x)
        self._check_elem(y)
        (g, a), (h, _b) = x, y
        return (self.group.mul[g][h], a)

    def halo(self):
        e = self.group.identity
        return [(e, a) for a in range(self.halo_size)]

    def is_bar_unit(self, x):
        return x[0] == self.group.identity and 0 <= x[1] < self.halo_size

    def sharp(self, x):
        """An element with x |- sharp(x) and sharp(x) |- x in the halo."""
        self._check_elem(x)
        g, a = x
        gi = self.group.inv[g]
        return (gi, self.action.apply(gi, a))

    def inverses_at(self, x, e):
        """(left, right) inverses of x relative to the bar-unit e, verified."""
        self._check_elem(x)
        if not self.is_bar_unit(e):
            raise ValueError("%r is not a bar-unit" % (e,))
        g, _a = x
        b = e[1]
        gi = self.group.inv[g]
        left = (gi, b)
        right = (gi, self.action.apply(gi, b))
        if self.dashv(left, x) != e or self.vdash(x, right) != e:
            raise GroupTableError("inverses fail at %r relative to %r" % (x, e))
        return left, right

    def tables(self):
        """(V, D): the two products as int tables over the element index
        g m + a, the position of (g, a) in elements: V[i][j] is the index
        of x_i |- x_j and D[i][j] that of x_i -| x_j.  Built once per
        digroup; IndexError when an action row is not m indices of the
        halo, as vdash would raise on meeting one."""
        if self._tables is None:
            mul, act, m = self.group.mul, self.action.act, self.halo_size
            for g in range(self.group.order):
                row = act[g]
                if len(row) != m:
                    raise IndexError("action row %d has %d entries, not %d" % (g, len(row), m))
                bad = next((b for b in row if not 0 <= b < m), None)
                if bad is not None:
                    raise IndexError("element index out of range: %r" % ((g, bad),))
            cells = list(product(range(self.group.order), range(m)))
            V = [[gh * m + b for gh, b in product(mul[g], act[g])] for g, _a in cells]
            D = [[gh * m + a for gh, _b in product(mul[g], range(m))] for g, a in cells]
            self._tables = (V, D)
        return self._tables

    def pair_failures(self, identities):
        """{name: first_failure entry} of each identity over every ordered
        pair (x, y) of elements, in the order of elements.

        identities maps a name to row(i) -> (lhs, rhs), the two sides at
        (x_i, y) for every y in order, as lists; each identity is one
        row_failure, which stops at its first failing pair.  The tables of
        representations and cocycle families are compared through
        ContentMemo-canonical operators, for which equal means identical.
        """
        elems = self.elements
        return {name: row_failure((((i,),) + row(i) for i in range(len(elems))), elems)
                for name, row in identities.items()}

    def check_axioms(self):
        """Exhaustive axiom check; returns an AxiomReport.

        Every identity is checked at every pair or triple of elements, in
        the order of elements, on the int tables of tables(): the triples
        (x, y, z) of one pair (x, y) are one comparison of two table rows
        over z, and the first failing triple is the first z where those
        rows differ.  So the report names the same first failure as a scan
        of the triples one by one.
        """
        V, D = self.tables()
        m, n = self.halo_size, len(self)
        ident = list(range(n))
        halo = [(self.group.identity * m + b, b) for b in range(m)]
        inv, act = self.group.inv, self.action.act
        pairs = [(i, j) for i in range(n) for j in range(n)]

        def triples(lhs, rhs):
            return ((ij, lhs(*ij), rhs(*ij)) for ij in pairs)

        def has_inverses(e, b, x):
            # inverses_at(x, e): left = (g^-1, b) and right = (g^-1, g^-1.b)
            gi = inv[x // m]
            return D[gi * m + b][x] == e and V[x][gi * m + act[gi][b]] == e

        elems = self.elements
        return AxiomReport({
            "unit_left_vdash": row_failure((((e,), V[e], ident) for e, _ in halo), elems),
            "unit_right_dashv": row_failure(
                (((e,), [row[e] for row in D], ident) for e, _ in halo), elems),
            "inverses": row_failure(
                (((e,), [has_inverses(e, b, x) for x in ident], [True] * n)
                 for e, b in halo), elems),
            "assoc_vdash": row_failure(triples(
                lambda i, j: V[V[i][j]], lambda i, j: list(map(V[i].__getitem__, V[j]))), elems),
            "assoc_dashv": row_failure(triples(
                lambda i, j: D[D[i][j]], lambda i, j: list(map(D[i].__getitem__, D[j]))), elems),
            "mixed_bar": row_failure(triples(
                lambda i, j: list(map(V[i].__getitem__, D[j])), lambda i, j: D[V[i][j]]), elems),
            "mixed_dashv": row_failure(triples(
                lambda i, j: list(map(D[i].__getitem__, D[j])),
                lambda i, j: list(map(D[i].__getitem__, V[j]))), elems),
            "mixed_vdash": row_failure(triples(
                lambda i, j: V[V[i][j]], lambda i, j: V[D[i][j]]), elems),
        })
