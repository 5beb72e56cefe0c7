"""Exact linear algebra over Q and over small prime fields.

Everything downstream (group representations, algebras, cocycle solvers)
runs on the Matrix class defined here.  All values are immutable and all
operations are pure functions; there is no floating point anywhere.

Scalars are fractions.Fraction in rational mode, or FpElement in prime
field mode.  A matrix remembers its field and refuses to mix modes.

A Matrix stores its entries densely, but the kernels work on dict rows
{column: value} that hold only the nonzero entries: the product adds a
multiple of row t of the right factor for each nonzero entry (i, t) of the
left one, and rref and sparse_kernel eliminate row by row.  All three share
one inner loop, _axpy (row += f * other), so no kernel spends arithmetic on
a zero; the operators this package builds (idempotents, permutation blocks,
monomial structure constants) are mostly zeros.

Each linear-algebra operation the package needs has its one home here:

* blocks: Matrix.block extracts one, hstack / vstack / block_diag build;
* subspaces (lists of column vectors): span_basis (canonical basis),
  contains (membership of any number of vectors, one elimination),
  complete (the vectors extending one span to another, one elimination),
  coordinates, intersect and quotient_dim;
* systems: solve (dense, inhomogeneous), sparse_kernel (sparse,
  homogeneous), and the block-linear systems sum c L X_b R = 0 in unknown
  blocks X_b: block_kernel solves them, block_image spans the image of
  the same assembled map, vectorize / devectorize are their block layout,
  and intertwiners (f A = B f, every Hom space) is the one-block case.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when two values from different scalar fields are combined."""


class DimensionError(ValueError):
    """Raised when matrix shapes are incompatible."""


# the canonical scalar texts: ASCII digits, an optional leading minus, and
# over Q an optional unsigned denominator; no spaces, exponents or underscores
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _canonical(pattern, s):
    if not pattern.fullmatch(s):
        raise ValueError("not a canonical scalar: %r" % (s,))
    return s


class RationalField:
    """The field Q, backed by fractions.Fraction."""

    char = 0

    def of(self, n):
        return Fraction(n)

    def parse(self, s):
        """The scalar written "n" or "p/q"; anything else is a ValueError."""
        return Fraction(_canonical(_RATIONAL, s))

    def fmt(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FpElement:
    """An element of F_p, normalized to [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _check(self, other):
        if not isinstance(other, FpElement) or other.p != self.p:
            raise FieldMismatchError("mixed scalar modes")

    def __add__(self, other):
        self._check(other)
        return FpElement(self.v + other.v, self.p)

    def __sub__(self, other):
        self._check(other)
        return FpElement(self.v - other.v, self.p)

    def __mul__(self, other):
        self._check(other)
        return FpElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        self._check(other)
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return "%d" % self.v


class PrimeField:
    """The field F_p for a prime p."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p

    @property
    def char(self):
        return self.p

    def of(self, n):
        return FpElement(n, self.p)

    def parse(self, s):
        """The residue of the integer written "n"; anything else is a ValueError."""
        return FpElement(int(_canonical(_INTEGER, s)), self.p)

    def fmt(self, x):
        return str(x.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class Matrix:
    """Immutable dense matrix; entries stored row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError("entry count %d != %d x %d" % (len(entries), rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.of(0)
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        z, o = field.of(0), field.of(1)
        return cls(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def from_rows(cls, field, rows):
        """Build from nested lists; ints and strings are coerced into the field."""
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ents = []
        for row in rows:
            if len(row) != nc:
                raise DimensionError("ragged rows")
            for x in row:
                if isinstance(x, int):
                    x = field.of(x)
                elif isinstance(x, str):
                    x = field.parse(x)
                ents.append(x)
        return cls(field, nr, nc, ents)

    @classmethod
    def column(cls, field, values):
        return cls.from_rows(field, [[v] for v in values])

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def block(self, i0, j0, h, w):
        """The h x w submatrix whose top-left entry is (i0, j0)."""
        return Matrix(self.field, h, w,
                      [self[i0 + i, j0 + j] for i in range(h) for j in range(w)])

    def col_vector(self, j):
        return Matrix(self.field, self.rows, 1, [self[i, j] for i in range(self.rows)])

    def to_lists(self):
        return [self.row_list(i) for i in range(self.rows)]

    def flat(self):
        return list(self.entries)

    # -- arithmetic -------------------------------------------------------

    def _compat(self, other, same_shape):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if self.field != other.field:
            raise FieldMismatchError("mixed scalar modes")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")

    def __add__(self, other):
        self._compat(other, True)
        return Matrix(self.field, self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._compat(other, True)
        return Matrix(self.field, self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        self._compat(other, False)
        if self.cols != other.rows:
            raise DimensionError("cannot multiply %dx%d by %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
        n, m, k = self.rows, self.cols, other.cols
        ents, brows = self.entries, other._dict_rows()
        out = [self.field.of(0)] * (n * k)
        for i in range(n):
            acc = {}
            for t in range(m):
                a = ents[i * m + t]
                if a:
                    _axpy(acc, a, brows[t])
            for j, x in acc.items():
                out[i * k + j] = x
        return Matrix(self.field, n, k, out)

    def scale(self, c):
        return Matrix(self.field, self.rows, self.cols, [c * a for a in self.entries])

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return not any(self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "Matrix(%r)" % (self.to_lists(),)

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        rows = self._dict_rows()
        n, o = self.rows, self.field.of(1)
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            if r == n:
                break
            for pr in range(r, n):
                if c in rows[pr]:
                    break
            else:
                continue
            prow, rows[pr] = rows[pr], rows[r]
            pv = prow[c]
            if pv != o:
                prow = {cc: x / pv for cc, x in prow.items()}
            rows[r] = prow
            for i, row in enumerate(rows):
                f = row.get(c)
                if f is not None and i != r:
                    _axpy(row, -f, prow)
            pivots.append(c)
        flat = [self.field.of(0)] * (n * self.cols)
        for i, row in enumerate(rows):
            for c, x in row.items():
                flat[i * self.cols + c] = x
        return Matrix(self.field, n, self.cols, flat), tuple(pivots)

    def _dict_rows(self):
        """Each row as a dict {column: value} of its nonzero entries."""
        m, ents = self.cols, self.entries
        return [{c: x for c, x in enumerate(ents[i * m:(i + 1) * m]) if x}
                for i in range(self.rows)]

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right null space, read off the RREF (canonical)."""
        R, piv = self.rref()
        z, o = self.field.of(0), self.field.of(1)
        free = [c for c in range(self.cols) if c not in piv]
        basis = []
        for f in free:
            v = [z] * self.cols
            v[f] = o
            for i, pc in enumerate(piv):
                v[pc] = -R[i, f]
            basis.append(Matrix(self.field, self.cols, 1, v))
        return basis

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionError("only square matrices invert")
        x = solve(self, Matrix.identity(self.field, self.rows))
        if x is None:
            raise ZeroDivisionError("matrix is singular")
        return x


def hstack(mats):
    mats = list(mats)
    field = mats[0].field
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise DimensionError("hstack row mismatch")
        if m.field != field:
            raise FieldMismatchError("mixed scalar modes")
    ents = []
    for i in range(rows):
        for m in mats:
            ents.extend(m.row_list(i))
    return Matrix(field, rows, sum(m.cols for m in mats), ents)


def vstack(mats):
    mats = list(mats)
    field = mats[0].field
    cols = mats[0].cols
    ents = []
    for m in mats:
        if m.cols != cols:
            raise DimensionError("vstack col mismatch")
        if m.field != field:
            raise FieldMismatchError("mixed scalar modes")
        ents.extend(m.entries)
    return Matrix(field, sum(m.rows for m in mats), cols, ents)


def block_diag(field, blocks):
    """The block-diagonal matrix with the given blocks down the diagonal."""
    width = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows.append(hstack([Matrix.zeros(field, b.rows, left), b,
                            Matrix.zeros(field, b.rows, width - left - b.cols)]))
        left += b.cols
    return vstack(rows) if rows else Matrix(field, 0, width, [])


def solve(a, b):
    """Some x with a x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a._compat(b, False)
    if a.rows != b.rows:
        raise DimensionError("solve: row mismatch")
    aug = hstack([a, b])
    R, piv = aug.rref()
    for pc in piv:
        if pc >= a.cols:
            return None
    z = a.field.of(0)
    out = [[z] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(piv):
        for j in range(b.cols):
            out[pc][j] = R[i, a.cols + j]
    return Matrix.from_rows(a.field, out) if a.cols else Matrix(a.field, 0, b.cols, [])


class ContentMemo:
    """Matrix products and sums memoized by operand content.

    canon(m) returns one shared object per distinct matrix (equal field,
    shape and entries); mul and add take canonical operands, compute each
    distinct pair once and return canonical results.  An exhaustive check
    of an identity over every pair of table entries stays exhaustive, but
    multiplies each distinct pair of values only once.
    """

    def __init__(self):
        self._canon = {}
        self._mul = {}
        self._add = {}

    def canon(self, m):
        return self._canon.setdefault(m, m)

    def mul(self, a, b):
        key = (id(a), id(b))   # canonical operands stay alive in _canon
        r = self._mul.get(key)
        if r is None:
            r = self._mul[key] = self.canon(a * b)
        return r

    def add(self, a, b):
        key = (id(a), id(b))
        r = self._add.get(key)
        if r is None:
            r = self._add[key] = self.canon(a + b)
        return r


# -- subspaces -----------------------------------------------------------
#
# Subspaces are lists of column vectors (n x 1 matrices).  Canonical bases
# are the nonzero rows of the RREF of the spanning set, so two spanning
# sets of the same subspace produce literally identical bases.

def span_basis(vectors):
    vectors = list(vectors)
    if not vectors:
        return []
    field = vectors[0].field
    n = vectors[0].rows
    rows = [[v[i, 0] for i in range(n)] for v in vectors]
    R, piv = Matrix.from_rows(field, rows).rref()
    return [Matrix(field, n, 1, R.row_list(i)) for i in range(len(piv))]


def contains(basis, *vectors):
    """Whether every vector lies in span(basis), by one elimination.

    The columns [basis | vectors] have a pivot beyond the basis exactly
    when some vector adds to the span.  basis need not be independent.
    """
    if not basis:
        return all(v.is_zero() for v in vectors)
    _, piv = hstack(list(basis) + list(vectors)).rref()
    return all(c < len(basis) for c in piv)


def complete(small, big):
    """The vectors of big, in order, that extend span(small) to span(small + big).

    A vector is kept when it lies outside the span of everything before
    it, which is exactly a pivot column of [small | big]; one elimination
    gives the same choice as adding the vectors greedily one by one.
    """
    big = list(big)
    if not big:
        return []
    k = len(small)
    _, piv = hstack(list(small) + big).rref()
    return [big[c - k] for c in piv if c >= k]


def coordinates(basis, v):
    """Some x with sum_i x_i basis[i] = v, or None if v is outside the span.

    The coordinates are unique when the basis is independent.
    """
    if not basis:
        return Matrix(v.field, 0, 1, []) if v.is_zero() else None
    return solve(hstack(basis), v)


def intersect(ub, vb):
    """Basis of span(ub) ∩ span(vb)."""
    if not ub or not vb:
        return []
    a = hstack(list(ub) + list(vb))
    inter = []
    for k in a.kernel_basis():
        # kernel vector (x, y) means U x = -V y, a point of the intersection
        w = Matrix.zeros(a.field, ub[0].rows, 1)
        for j, u in enumerate(ub):
            w = w + u.scale(k[j, 0])
        inter.append(w)
    return span_basis(inter)


def quotient_dim(ambient_dim, basis):
    for v in basis:
        if v.rows != ambient_dim:
            raise DimensionError("basis vector length != ambient dimension")
    return ambient_dim - len(span_basis(basis))


# -- sparse homogeneous systems ------------------------------------------

def sparse_kernel(ncols, rows, field):
    """Kernel basis of a homogeneous system given as sparse rows.

    Each row is a dict {column: coefficient}.  Intended for the large
    cocycle / derivation systems, where rows touch only a few unknowns.
    Each pivot unknown is kept solved in terms of the non-pivot unknowns
    only, so an incoming row is reduced in a single pass and each kernel
    entry is a lookup.
    Returns dense column vectors (deterministic, not RREF-canonical;
    canonicalize with span_basis if needed).
    """
    pivots = {}  # pivot column c -> {non-pivot column j: a_j}: x_c = sum a_j x_j
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        for c in [c for c in row if c in pivots]:
            _axpy(row, row.pop(c), pivots[c])
        if not row:
            continue
        c = min(row)
        pv = -row.pop(c)
        new = {cc: xx / pv for cc, xx in row.items()}
        for prow in pivots.values():
            f = prow.pop(c, None)
            if f is not None:
                _axpy(prow, f, new)
        pivots[c] = new
    z, o = field.of(0), field.of(1)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [z] * ncols
        v[f] = o
        for pc, prow in pivots.items():
            xx = prow.get(f)
            if xx is not None:
                v[pc] = xx
        basis.append(Matrix(field, ncols, 1, v))
    return basis


# -- block-linear systems ------------------------------------------------
#
# The unknown is a family of h x w blocks X_0, ..., X_{n-1}, laid out as one
# column: X_b[i, j] is entry (b * h + i) * w + j.  An equation is a list of
# terms (c, L, b, R), meaning c L X_b R, with L (h x h) or R (w x w) None for
# the identity; it states that the h x w sum of its terms vanishes.

def vectorize(blocks, keys, h, w):
    """The h x w matrices blocks[k], for k in keys in order, as one column."""
    field = next(iter(blocks.values())).field if blocks else None
    vals = []
    for k in keys:
        vals.extend(blocks[k].entries)
    return Matrix(field, len(keys) * h * w, 1, vals)


def devectorize(v, keys, h, w, field):
    """The inverse of vectorize: {k: the k-th h x w block of v}."""
    blk = h * w
    return {k: Matrix(field, h, w, v.entries[n * blk:(n + 1) * blk])
            for n, k in enumerate(keys)}


def block_kernel(nblocks, h, w, equations, field):
    """Canonical basis (span_basis) of the block families solving every equation.

    Rows are assembled from the nonzero entries of each L row and R column
    and solved with sparse_kernel; the solutions are columns in the block
    layout (devectorize them to get the blocks).
    """
    n = nblocks * h * w
    if n == 0:
        return []
    # equations made of the very same terms have the very same rows, so each
    # is assembled once; the dict holds the terms, so no id in a key is reused
    distinct = {tuple((id(c), id(l), b, id(r)) for c, l, b, r in eq): eq
                for eq in equations}
    return span_basis(sparse_kernel(n, _block_rows(h, w, distinct.values(), field),
                                    field))


def block_image(nblocks, h, w, equations, field):
    """Canonical basis of the image of X -> (the value of each equation at X).

    The rows block_kernel assembles are the matrix of this map, so the
    image is their column span; equation e's entry (i, j) is coordinate
    (e * h + i) * w + j, the block layout with one block per equation.
    """
    n = nblocks * h * w
    if n == 0:
        return []
    rows = _block_rows(h, w, equations, field)
    z = field.of(0)
    cols = [[z] * len(rows) for _ in range(n)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
    return span_basis([Matrix(field, len(rows), 1, col) for col in cols])


def intertwiners(pairs, d_src, d_dst, field):
    """Canonical basis of {f : f A = B f for every (A, B) in pairs}.

    f is d_dst x d_src, each A is d_src x d_src and each B is d_dst x d_dst.
    Every Hom space in the package has this form: the one-block system
    f A - B f = 0, one equation per distinct pair, reshaped into matrices.
    """
    o, neg = field.of(1), field.of(-1)
    eqs = [[(o, None, 0, a), (neg, b, 0, None)] for a, b in dict.fromkeys(pairs)]
    return [Matrix(field, d_dst, d_src, v.entries)
            for v in block_kernel(1, d_dst, d_src, eqs, field)]


def _block_rows(h, w, equations, field):
    """The sparse rows of the equations: row (e * h + i) * w + j is entry (i, j)
    of equation e.

    Terms that reach the same unknown add; a term c X_b takes the path of
    c L X_b with L the identity.  The scaled nonzero entries of each matrix
    are listed once per coefficient, in a cache keyed by ids whose entries
    hold the matrix and the coefficient, so no id is reused while it is a key.
    """
    o = field.of(1)
    cache = {}

    def nonzeros(m, by_col, c):
        # [(k, c * m[i, k]) nonzero] for each row i, or [(k, c * m[k, j])] per
        # column j; m None is the h x h identity
        key = (id(m), by_col, id(c))
        hit = cache.get(key)
        if hit is None:
            if m is None:
                lines = [[(i, c)] for i in range(h)]
            else:
                ents, mc, scale = m.entries, m.cols, c != o
                grid = [ents[i * mc:(i + 1) * mc] for i in range(m.rows)]
                lines = [[(k, c * x if scale else x) for k, x in enumerate(line) if x]
                         for line in (zip(*grid) if by_col else grid)]
            hit = cache[key] = (m, c, lines)
        return hit[2]

    cells = [(i, j) for i in range(h) for j in range(w)]
    rows = []
    for eq in equations:
        block = [{} for _ in cells]   # row i * w + j is entry (i, j)
        for c, l, b, r in eq:
            bw = b * h * w
            if r is None:
                lnz = nonzeros(l, False, c)
                for row, (i, j) in zip(block, cells):
                    for k, x in lnz[i]:
                        key = bw + k * w + j
                        v = row.get(key)
                        row[key] = x if v is None else v + x
            elif l is None:
                rnz = nonzeros(r, True, c)
                for row, (i, j) in zip(block, cells):
                    off = bw + i * w
                    for k, x in rnz[j]:
                        key = off + k
                        v = row.get(key)
                        row[key] = x if v is None else v + x
            else:
                lnz, rnz = nonzeros(l, False, c), nonzeros(r, True, o)
                for row, (i, j) in zip(block, cells):
                    for k, x in lnz[i]:
                        off = bw + k * w
                        for kk, y in rnz[j]:
                            key, y = off + kk, x * y
                            v = row.get(key)
                            row[key] = y if v is None else v + y
        rows += block
    return rows


def _axpy(row, f, other):
    """row += f * other, in place, for dict rows and a nonzero f.

    The one inner loop of products, rref and sparse_kernel: it touches only
    the nonzero entries of other and drops the entries of row that cancel.
    """
    for c, x in other.items():
        v = row.get(c)
        if v is None:
            row[c] = f * x   # nonzero: a field has no zero divisors
        else:
            v = v + f * x
            if v:
                row[c] = v
            else:
                del row[c]
