"""Exact linear algebra over Q and over small prime fields.

Everything downstream (group representations, algebras, cocycle solvers)
runs on the Matrix class defined here.  All values are immutable and all
operations are pure functions; there is no floating point anywhere.

Scalars are fractions.Fraction in rational mode, or FpElement in prime
field mode.  A matrix remembers its field and refuses to mix modes.

A Matrix holds its canonical integer image: over Q the numerators over
their least common denominator d > 0, over GF(p) the residues (d = 1).
Equal matrices have equal images, so == and hash read the image.  Every
operation computes on Python ints, never on Fraction or FpElement, and
returns a canonical image; the scalars are made only when entries,
[i, j], to_lists or JSON asks for them (a matrix built from scalars keeps
them and computes its image once).  The field
supplies the only differences: its char as the modulus (0 over Q), the
canonical form, how a pivot row is normalized, and the scalars.

The kernels work on dict rows {column: int} that hold only the nonzero
entries: the product walks the nonzero entries (i, t) of the left
factor's image, adding a multiple of row t of the right one, and is A'B'
over d_A d_B.  There is one elimination, _reduce: Gauss-Jordan on rows
that come in one at a time, fraction-free (Bareiss, Math. Comp. 1968,
dividing by the row content in place of the exact division): a row is
replaced by a multiple of itself minus a multiple of a pivot row.  Its
pivot rows, over their pivot entries, are the RREF, and every linear
question asks it once: rref builds R from them, solve reads its answer
off them, sparse_kernel pivots on the highest column instead and reads
the RREF basis of the kernel off them, and span_basis, complete and
block_image hand it integer images directly.  The product and _reduce
share one inner loop, _axpy (row += f * other), so no kernel spends
arithmetic on a zero; the operators this package builds (idempotents,
permutation blocks, monomial structure constants) are mostly zeros.

Each linear-algebra operation the package needs has its one home here:

* blocks: Matrix.block extracts one, hstack / columns / vstack /
  block_diag / block_permutation build,
  Matrix.reshape keeps the entries in another shape;
* subspaces (lists of column vectors): span_basis (canonical basis),
  complete (the vectors extending one span to another), contains
  (membership of any number of vectors: complete keeps none), quotient
  (representatives of ambient / sub, checking sub lies inside, by the
  same elimination) and coordinates (of every column of a matrix at
  once), each one elimination; lead_coordinates reads them in a canonical
  basis, certified by one product;
* systems: solve (dense, inhomogeneous), sparse_kernel (sparse,
  homogeneous), and the block-linear systems sum c L X_b R = 0 in unknown
  blocks X_b, with int coefficients c: block_kernel solves them,
  block_image spans the image of the same assembled map, block_operator
  is its exact matrix, vectorize / devectorize are their block layout,
  intertwiners (f A = B f, every Hom space) is the one-block case, and
  ext_classes (Z and the classes Z / B, given a basis of B) is the one
  Ext^1 solve.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm


class FieldMismatchError(ValueError):
    """Raised when two values from different scalar fields are combined."""


class DimensionError(ValueError):
    """Raised when matrix shapes are incompatible."""


class SubspaceError(ValueError):
    """Raised when a subspace is not contained in the space it must lie in."""


# the canonical scalar texts: ASCII digits, an optional leading minus, and
# over Q an optional unsigned denominator; no spaces, exponents or underscores
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _canonical(pattern, s):
    if not pattern.fullmatch(s):
        raise ValueError("not a canonical scalar: %r" % (s,))
    return s


class RationalField:
    """The field Q, backed by fractions.Fraction.

    char (0) is the modulus of the integer kernels: over Q they reduce
    nothing and keep their rows small by dividing out each row's content.
    """

    char = 0

    def of(self, n):
        return Fraction(n)

    def parse(self, s):
        """The scalar written "n" or "p/q"; anything else is a ValueError."""
        return Fraction(_canonical(_RATIONAL, s))

    def fmt(self, x):
        return str(x)

    def _image(self, values):
        """(numerators, d): the values are numerators / d, d their least
        common denominator.  Fraction and int values only; anything else
        (an FpElement) is refused."""
        try:
            d = lcm(*{x.denominator for x in values})
        except AttributeError:
            raise FieldMismatchError("mixed scalar modes") from None
        if d == 1:
            return tuple([x.numerator for x in values]), 1
        return tuple([x.numerator * (d // x.denominator) for x in values]), d

    def _canon(self, nums, d):
        """The canonical image of the values nums / d (d > 0): d and the
        numerators coprime."""
        if d != 1:
            g = gcd(d, *nums)
            if g != 1:
                return tuple([x // g for x in nums]), d // g
        return tuple(nums), d

    def _scalars(self, nums, d):
        """The values nums / d of a canonical image."""
        return tuple([Fraction(x, d) for x in nums])

    def _normalize(self, row, c):
        """Scale an int row to coprime entries with row[c] > 0."""
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            for k, x in row.items():
                row[k] = x // g

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
    """The field F_p for a prime p.

    char (p) is the modulus of the integer kernels: they compute on
    residues and reduce mod p.
    """

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p

    @property
    def char(self):
        return self.p

    def _image(self, values):
        """(residues, 1); anything but an element of this field (an int, a
        Fraction, an element of another prime field) is refused."""
        p = self.p
        try:
            mixed = any(x.p != p for x in values)
        except AttributeError:
            mixed = True
        if mixed:
            raise FieldMismatchError("mixed scalar modes")
        return tuple([x.v for x in values]), 1

    def _canon(self, nums, d):
        """The canonical image of the values nums / d: residues over 1."""
        p = self.p
        if d != 1:
            inv = pow(d, -1, p)
            return tuple([x * inv % p for x in nums]), 1
        return tuple([x % p for x in nums]), 1

    def _scalars(self, nums, d):
        """The values of a canonical image."""
        p = self.p
        return tuple([FpElement(x, p) for x in nums])

    def _normalize(self, row, c):
        """Scale an int row to row[c] = 1 mod p."""
        p = self.p
        inv = pow(row[c], -1, p)
        if inv != 1:
            for k, x in row.items():
                row[k] = x * inv % p

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
    """Immutable matrix over a field, held as its canonical integer image.

    The image (nums, d) lists the entries row-major as nums / d (see the
    module docstring for its canonical form).  The field scalars are made
    the first time they are asked for, and kept; a matrix built from
    scalars keeps them and computes its image on first use.  The image's
    nonzero rows are kept once the matrix is a factor of a product, and
    its nonzero columns once it is a right factor of a block system.
    """

    __slots__ = ("field", "rows", "cols", "_ents", "_img", "_nonzero_rows", "_nonzero_cols")

    def __init__(self, field, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError("entry count %d != %d x %d" % (len(entries), rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self._ents = entries
        self._img = None
        self._nonzero_rows = self._nonzero_cols = None

    @classmethod
    def _of_image(cls, field, rows, cols, nums, d=1):
        """The matrix of the row-major ints nums over d, brought to canonical form."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, rows, cols
        m._img, m._ents = field._canon(nums, d), None
        m._nonzero_rows = m._nonzero_cols = None
        return m

    @property
    def entries(self):
        """The entries row-major, as field scalars."""
        ents = self._ents
        if ents is None:
            ents = self._ents = self.field._scalars(*self._img)
        return ents

    def _image(self):
        """The canonical integer image (nums, d), computed once.

        Equal matrices over one field have equal images.
        """
        img = self._img
        if img is None:
            img = self._img = self.field._image(self._ents)
        return img

    def _rows(self):
        """The nonzero entries {column: int} of each row of the image, kept."""
        rows = self._nonzero_rows
        if rows is None:
            rows = self._nonzero_rows = _int_rows(self._image()[0], self.rows, self.cols)
        return rows

    def _cols(self):
        """The nonzero entries {row: int} of each column of the image, kept."""
        cols = self._nonzero_cols
        if cols is None:
            cols = self._nonzero_cols = _transpose(self._rows(), self.cols)
        return cols

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._of_image(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        nums = [0] * (n * n)
        nums[::n + 1] = [1] * n
        return cls._of_image(field, n, n, nums)

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

    def reshape(self, rows, cols):
        """The same row-major entries as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise DimensionError("cannot reshape %dx%d to %dx%d"
                                 % (self.rows, self.cols, rows, cols))
        m = Matrix.__new__(Matrix)
        m.field, m.rows, m.cols = self.field, rows, cols
        m._img, m._ents = self._img, self._ents
        m._nonzero_rows = m._nonzero_cols = None
        return m

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def block(self, i0, j0, h, w):
        """The h x w submatrix whose top-left entry is (i0, j0)."""
        if min(i0, j0, h, w) < 0 or i0 + h > self.rows or j0 + w > self.cols:
            raise DimensionError("block %dx%d at (%d, %d) outside %dx%d"
                                 % (h, w, i0, j0, self.rows, self.cols))
        nums, d = self._image()
        out = []
        for i in range(i0, i0 + h):
            at = i * self.cols + j0
            out += nums[at:at + w]
        return Matrix._of_image(self.field, h, w, out, d)

    def col_vector(self, j):
        return self.block(0, j, self.rows, 1)

    def to_lists(self):
        return [self.row_list(i) for i in range(self.rows)]

    # -- arithmetic -------------------------------------------------------

    def _compat(self, other, same_shape):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError("mixed scalar modes")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")

    def __add__(self, other):
        self._compat(other, True)
        (a, b), d = _common_image((self, other))
        return Matrix._of_image(self.field, self.rows, self.cols,
                                [x + y for x, y in zip(a, b)], d)

    def __sub__(self, other):
        self._compat(other, True)
        (a, b), d = _common_image((self, other))
        return Matrix._of_image(self.field, self.rows, self.cols,
                                [x - y for x, y in zip(a, b)], d)

    def __neg__(self):
        nums, d = self._image()
        return Matrix._of_image(self.field, self.rows, self.cols, [-x for x in nums], d)

    def __mul__(self, other):
        """The product, A'B' over d_A d_B: for each nonzero entry (i, t) of
        the left image, a multiple of row t of the right one."""
        self._compat(other, False)
        if self.cols != other.rows:
            raise DimensionError("cannot multiply %dx%d by %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
        k = other.cols
        brows = other._rows()
        out = [0] * (self.rows * k)
        for i, arow in enumerate(self._rows()):
            if not arow:
                continue
            base = i * k
            if len(arow) == 1:   # a scaled row of the right factor
                [(t, a)] = arow.items()
                for j, x in brows[t].items():
                    out[base + j] = a * x
                continue
            acc = {}
            for t, a in arow.items():
                _axpy(acc, a, brows[t], 0)
            for j, x in acc.items():
                out[base + j] = x
        return Matrix._of_image(self.field, self.rows, k, out,
                                self._image()[1] * other._image()[1])

    def scale(self, c):
        (cn,), cd = self.field._image((c,))
        nums, d = self._image()
        return Matrix._of_image(self.field, self.rows, self.cols,
                                [cn * x for x in nums], d * cd)

    def transpose(self):
        nums, d = self._image()
        c = self.cols
        return Matrix._of_image(self.field, c, self.rows,
                                [x for j in range(c) for x in nums[j::c]], d)

    def is_zero(self):
        return not any(self._image()[0])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix)
            and (self.field is other.field or self.field == other.field)
            and self.rows == other.rows and self.cols == other.cols
            and self._image() == other._image())

    def __hash__(self):
        return hash((self.rows, self.cols, self._image()))

    def __repr__(self):
        return "Matrix(%r)" % (self.to_lists(),)

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns).

        The rows of the integer image go through _reduce; row i of R is its
        i-th pivot row over that row's pivot entry.
        """
        n, m = self.rows, self.cols
        pivots = _reduce(_int_rows(self._image()[0], n, m), self.field)
        cols = sorted(pivots)
        d = lcm(*[pivots[c][c] for c in cols])
        out = [0] * (n * m)
        for i, c in enumerate(cols):   # the rows after the pivot rows are empty
            s = d // pivots[c][c]
            for cc, x in pivots[c].items():
                out[i * m + cc] = x * s
        return Matrix._of_image(self.field, n, m, out, d), tuple(cols)

    def rank(self):
        return len(_reduce(_int_rows(self._image()[0], self.rows, self.cols), self.field))

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionError("only square matrices invert")
        x = solve(self, Matrix.identity(self.field, self.rows))
        if x is None:
            raise ZeroDivisionError("matrix is singular")
        return x


def _common_image(mats):
    """The images of the matrices over one common denominator: ([nums], d)."""
    imgs = [m._image() for m in mats]
    d = lcm(*[e for _, e in imgs])
    return [nums if e == d else [x * (d // e) for x in nums] for nums, e in imgs], d


def hstack(mats):
    mats = list(mats)
    field = mats[0].field
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise DimensionError("hstack row mismatch")
        if m.field is not field and m.field != field:
            raise FieldMismatchError("mixed scalar modes")
    width = sum(m.cols for m in mats)
    parts, d = _common_image(mats)
    out, left = [0] * (rows * width), 0
    for nums, m in zip(parts, mats):
        c = m.cols
        for j in range(c):
            out[left + j::width] = nums[j::c]
        left += c
    return Matrix._of_image(field, rows, width, out, d)


def columns(field, n, vectors):
    """hstack of the given n-row matrices (n x 1 column vectors, say), and
    the n x 0 matrix when there are none."""
    return hstack(vectors) if vectors else Matrix(field, n, 0, [])


def vstack(mats):
    mats = list(mats)
    field = mats[0].field
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionError("vstack col mismatch")
        if m.field is not field and m.field != field:
            raise FieldMismatchError("mixed scalar modes")
    parts, d = _common_image(mats)
    return Matrix._of_image(field, sum(m.rows for m in mats), cols,
                            [x for nums in parts for x in nums], d)


def block_diag(field, blocks):
    """The block-diagonal matrix with the given blocks down the diagonal,
    written row by row into one image over their common denominator."""
    for b in blocks:
        if b.field is not field and b.field != field:
            raise FieldMismatchError("mixed scalar modes")
    height, width = sum(b.rows for b in blocks), sum(b.cols for b in blocks)
    parts, d = _common_image(blocks)
    out, at, left = [0] * (height * width), 0, 0
    for nums, b in zip(parts, blocks):
        c = b.cols
        for i in range(b.rows):
            out[at + left:at + left + c] = nums[i * c:(i + 1) * c]
            at += width
        left += c
    return Matrix._of_image(field, height, width, out, d)


def block_permutation(field, perm, k):
    """The permutation matrix that moves block g to block perm[g], for
    blocks of size k: entry (perm[g] k + i, g k + i) is 1.  The matrix
    keeps the rows written here, so no scan of its image finds them."""
    n = len(perm) * k
    nums, rows = [0] * (n * n), [None] * n
    for g, h in enumerate(perm):
        at = h * k * n + g * k
        nums[at:at + (n + 1) * k:n + 1] = [1] * k
        rows[h * k:(h + 1) * k] = [{c: 1} for c in range(g * k, (g + 1) * k)]
    m = Matrix._of_image(field, n, n, nums)
    m._nonzero_rows = rows
    return m


def solve(a, b):
    """Some x with a x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic: one
    elimination of [a | b], and x[c] is the pivot row of c read off at b's
    columns, over its pivot entry.
    """
    a._compat(b, False)
    if a.rows != b.rows:
        raise DimensionError("solve: row mismatch")
    n, k = a.cols, b.cols
    pivots = _reduce(hstack([a, b])._rows(), a.field)
    if any(c >= n for c in pivots):
        return None
    d = lcm(*[prow[c] for c, prow in pivots.items()])
    out = [0] * (n * k)
    for c, prow in pivots.items():
        s = d // prow[c]
        for cc, x in prow.items():
            if cc >= n:
                out[c * k + cc - n] = x * s
    return Matrix._of_image(a.field, n, k, out, d)


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
        self._rows = {}

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

    def mul_row(self, a, ys):
        """[mul(a, y) for y in ys], once per canonical a and list ys; the
        caller keeps ys alive and unchanged while it uses the memo."""
        key = (id(a), id(ys))
        r = self._rows.get(key)
        if r is None:
            r = self._rows[key] = [self.mul(a, y) for y in ys]
        return r


# -- subspaces -----------------------------------------------------------
#
# Subspaces are lists of column vectors (n x 1 matrices).  Canonical bases
# are the nonzero rows of the RREF of the spanning set, so two spanning
# sets of the same subspace produce literally identical bases.  The
# helpers eliminate the vectors' integer images: a positive multiple of a
# vector changes neither a span nor a pivot column.

def span_basis(vectors):
    vectors = list(vectors)
    if not vectors:
        return []
    return _rref_vectors(vectors[0].rows, _column_images(vectors), vectors[0].field)


def contains(basis, *vectors):
    """Whether every vector lies in span(basis): complete keeps none of them.

    basis need not be independent.
    """
    return not complete(basis, vectors)


def complete(small, big, coords=None):
    """The vectors of big, in order, that extend span(small) to span(small + big).

    A vector is kept when it lies outside the span of everything before
    it, which is exactly a pivot column of [small | big]; one elimination
    gives the same choice as adding the vectors greedily one by one.
    With coords, big's vectors are read at those coordinates only, and
    small's vectors have len(coords) rows.
    """
    big = list(big)
    if not big:
        return []
    cols = _column_images(big)
    if coords is not None:
        cols = [{n: col[c] for n, c in enumerate(coords) if c in col} for col in cols]
    n = big[0].rows if coords is None else len(coords)
    like = Matrix.zeros(big[0].field, n, 1)   # the shape and field small must have
    rows = _transpose(_column_images(list(small) + [like])[:-1] + cols, n)   # [small | big]
    k = len(small)
    return [big[c - k] for c in sorted(_reduce(rows, big[0].field)) if c >= k]


def quotient(sub, ambient):
    """Representatives of span(ambient) / span(sub): the vectors complete keeps.

    sub and ambient are bases.  [sub | ambient] then has len(ambient)
    pivots exactly when span(sub) lies in span(ambient), so the one
    elimination of complete also checks the inclusion; SubspaceError if
    it fails.
    """
    reps = complete(sub, ambient)
    if len(sub) + len(reps) != len(ambient):
        raise SubspaceError("a vector of the subspace lies outside the ambient span")
    return reps


def coordinates(basis, x):
    """Some c with hstack(basis) c = x, or None if a column of x is outside the span.

    Every column of x is answered by one elimination, of [basis | x].  The
    coordinates are unique when the basis is independent; an empty basis
    gives 0 x k.
    """
    if not basis:
        return Matrix(x.field, 0, x.cols, []) if x.is_zero() else None
    return solve(hstack(basis), x)


def lead_coordinates(basis, x):
    """coordinates(basis, x) for a canonical basis, the output of span_basis
    or sparse_kernel: each vector's lowest nonzero entry is a 1 at a row
    where every other vector is 0, so the coordinates are the rows of x
    at those leads.  One product certifies them: None unless
    hstack(basis) c == x, exactly where coordinates gives None.
    """
    if not basis:
        return coordinates(basis, x)
    k, (nums, d) = x.cols, x._image()
    leads = [next(compress(count(), v._image()[0])) for v in basis]
    c = Matrix._of_image(x.field, len(leads), k,
                         [v for i in leads for v in nums[i * k:(i + 1) * k]], d)
    return c if hstack(basis) * c == x else None


def _column_images(vectors):
    """The nonzero entries {i: int} of each vector's integer image; the
    vectors are column vectors of one shape over one field."""
    for v in vectors:
        v._compat(vectors[0], True)
    return [{i: x for i, x in enumerate(v._image()[0]) if x} for v in vectors]


def _transpose(rows, n):
    """The n columns of int dict rows, as int dict rows."""
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
    return cols


def _rref_vectors(n, rows, field):
    """The nonzero RREF rows of the int rows of length n, as column vectors."""
    pivots = _reduce(rows, field)
    out = []
    for c in sorted(pivots):
        v = [0] * n
        for k, x in pivots[c].items():
            v[k] = x
        out.append(Matrix._of_image(field, n, 1, v, pivots[c][c]))
    return out


# -- sparse homogeneous systems ------------------------------------------

def sparse_kernel(ncols, rows, field):
    """The canonical (RREF) kernel basis of a homogeneous system given as
    sparse rows, from one elimination.

    Each row is a dict {column: int} (see _reduce).  Intended for the
    large cocycle / derivation systems, where rows touch only a few
    unknowns.  _reduce pivots on the highest column, so each pivot row
    holds, besides its pivot c, only free columns below c.  The vector v_f
    of a free column f (x_f = 1, the other free unknowns 0) is read off
    the pivot rows holding f: its lowest entry is the 1 at f and it is 0
    at every other free column, so the v_f, in order of f, are the RREF
    basis, the one span_basis gives.  Returns column vectors.
    """
    pivots = _reduce(rows, field, max)   # pivot column c -> a_c x_c + sum a_j x_j = 0
    hits = {}   # free column f -> the pivot columns whose rows hold it
    for c, prow in pivots.items():
        for f in prow:
            if f != c:
                hits.setdefault(f, []).append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        # x_f = 1 and x_c = -a_f / a_c, over a common denominator d
        on = hits.get(f, ())
        d = lcm(*[pivots[c][c] for c in on])
        v = [0] * ncols
        v[f] = d
        for c in on:
            prow = pivots[c]
            v[c] = -prow[f] * (d // prow[c])
        basis.append(Matrix._of_image(field, ncols, 1, v, d))
    return basis


def _reduce(rows, field, pivot=min):
    """Gauss-Jordan elimination of int dict rows: {pivot column: pivot row}.

    The one elimination of the package.  Over Q a row may be any integer
    multiple of the rational row, over GF(p) any ints congruent to it.
    Each incoming row is reduced by every pivot row in one pass,
    fraction-free (_eliminate); its lowest remaining column c (its
    highest, with pivot=max) becomes a pivot, and c is cleared from the
    other pivot rows.  A row's columns never pass its pivot (never fall
    below it, or never rise above it) and no pivot row holds another
    pivot column.  With min, the rows over their pivot entries, in pivot
    order, are the nonzero rows of the RREF; sparse_kernel takes max.
    """
    p = field.char
    pivots = {}
    for row in rows:
        row = ({c: x % p for c, x in row.items() if x % p} if p
               else {c: x for c, x in row.items() if x})
        for c in [c for c in row if c in pivots]:
            _eliminate(row, pivots[c], c, p)
        if not row:
            continue
        c = pivot(row)
        field._normalize(row, c)
        for prow in pivots.values():
            if c in prow:
                _eliminate(prow, row, c, p)
        pivots[c] = row
    return pivots


# -- block-linear systems ------------------------------------------------
#
# The unknown is a family of h x w blocks X_0, ..., X_{n-1}, laid out as one
# column: X_b[i, j] is entry (b * h + i) * w + j.  An equation is a list of
# terms (c, L, b, R), meaning c L X_b R, with L (h x h) or R (w x w) None for
# the identity; it states that the h x w sum of its terms vanishes.

def vectorize(blocks, keys, h, w):
    """The h x w matrices blocks[k], for k in keys in order, as one column."""
    return vstack([blocks[k].reshape(h * w, 1) for k in keys])


def devectorize(v, keys, h, w, field):
    """The inverse of vectorize: {k: the k-th h x w block of v}; v is over field."""
    if v.field is not field and v.field != field:
        raise FieldMismatchError("mixed scalar modes")
    blk = h * w
    return {k: v.block(n * blk, 0, blk, 1).reshape(h, w) for n, k in enumerate(keys)}


def block_kernel(nblocks, h, w, equations, field):
    """Canonical basis (the one span_basis gives) of the block families
    solving every equation.

    Rows are assembled from the nonzero entries of each L row and R column
    and solved with sparse_kernel; the solutions are columns in the block
    layout (devectorize them to get the blocks).
    """
    n = nblocks * h * w
    if n == 0:
        return []
    return sparse_kernel(n, _block_rows(h, w, equations, field)[0], field)


def block_image(nblocks, h, w, equations, field, vectors=None):
    """Canonical basis of the image of X -> (the value of each equation at X),
    or of the image of span(vectors) when vectors (block layout) are given.

    The rows block_kernel assembles are the matrix of this map, so the
    image is their column span; equation e's entry (i, j) is coordinate
    (e * h + i) * w + j, the block layout with one block per equation.
    """
    n = nblocks * h * w
    if n == 0:
        return []
    rows = _block_rows(h, w, equations, field)[0]
    cols = _transpose(rows, n)
    if vectors is not None:
        cols = [_apply(cols, v, field.char) for v in vectors]
    return _rref_vectors(len(rows), cols, field)


def block_operator(nblocks, h, w, equations, field):
    """The exact matrix of X -> (the value of each equation at X), in the
    layout of block_image: the rows _block_rows assembles, over their
    common denominator."""
    rows, d = _block_rows(h, w, equations, field)
    n = nblocks * h * w
    nums = [0] * (len(rows) * n)
    for i, row in enumerate(rows):
        for c, x in row.items():
            nums[i * n + c] = x
    return Matrix._of_image(field, len(rows), n, nums, d)


def intertwiners(pairs, d_src, d_dst, field):
    """Canonical basis of {f : f A = B f for every (A, B) in pairs}.

    f is d_dst x d_src, each A is d_src x d_src and each B is d_dst x d_dst.
    Every Hom space in the package has this form: the one-block system
    f A - B f = 0, one equation per distinct pair, reshaped into matrices.
    """
    eqs = [[(1, None, 0, a), (-1, b, 0, None)] for a, b in dict.fromkeys(pairs)]
    return [v.reshape(d_dst, d_src) for v in block_kernel(1, d_dst, d_src, eqs, field)]


def ext_classes(nblocks, h, w, z_equations, b, field):
    """(Z, reps): Z the canonical basis of the block families solving
    z_equations (the kernel block_kernel gives) and reps = quotient(b, Z),
    representatives of Z / span(b), for b a basis of the coboundaries.

    Both are certified, so callers need not scan what they return.  The
    residual: the rows of z_equations, assembled once for the solve and
    for this check, times each vector of Z must vanish (on the integer
    images, so no scalar is built).  The one elimination of quotient
    certifies that b is independent and lies in Z.  SubspaceError if
    either fails.
    """
    n, z = nblocks * h * w, []
    if n:
        rows = _block_rows(h, w, z_equations, field)[0]
        z = sparse_kernel(n, rows, field)
        cols = _transpose(rows, n)
        # a row's entries may cancel to 0, so look at the residual's values
        if any(any(_apply(cols, v, field.char).values()) for v in z):
            raise SubspaceError("a Z basis vector does not solve the Z equations")
    try:
        return z, quotient(b, z)
    except SubspaceError:
        raise SubspaceError("a coboundary lies outside Z") from None


def _block_rows(h, w, equations, field):
    """(rows, d): the sparse int rows of the equations over d, so row
    (e * h + i) * w + j over d is entry (i, j) of equation e.

    Each term (c, L, b, R) is c L X_b R with c a Python int and L or R a
    matrix or None (the identity).  The rows are the integer image of the
    whole system: every term is scaled by one common denominator d, which
    changes neither the kernel nor the column span.  Terms that reach the
    same unknown add.  A term reads the nonzero lines of its factors off
    the matrices: the rows of L (Matrix._rows) and the columns of R
    (Matrix._cols), each kept on its matrix; an identity factor is one
    entry per line.  An L or R over another field raises
    FieldMismatchError: the integer images of two fields do not mix.
    """
    equations = list(equations)
    terms = []   # (coefficient, denominator) of each term
    for eq in equations:
        for c, l, _, r in eq:
            d = 1
            for m in (l, r):
                if m is not None:
                    if m.field is not field and m.field != field:
                        raise FieldMismatchError("mixed scalar modes")
                    d *= m._image()[1]
            terms.append((c, d))
    common = lcm(*{d for _, d in terms})
    scales = iter([c if d == common else c * (common // d) for c, d in terms])

    size, rows = h * w, []
    for eq in equations:
        block = [{} for _ in range(size)]   # row i * w + j is entry (i, j)
        for _, l, b, r in eq:
            s, bw = next(scales), b * size
            if l is None and r is None:   # s X_b: row n is s at X_b's entry n
                for key, row in enumerate(block, bw):
                    row[key] = row.get(key, 0) + s
            elif r is None:   # s L X_b: row (i, j) is s L[i, k] at X_b[k, j]
                for i, line in enumerate(l._rows()):
                    row_i = block[i * w:(i + 1) * w]
                    for k, x in line.items():
                        x = s * x
                        for key, row in enumerate(row_i, bw + k * w):
                            row[key] = row.get(key, 0) + x
            elif l is None:   # s X_b R: row (i, j) is s R[k, j] at X_b[i, k]
                for j, line in enumerate(r._cols()):
                    col_j = block[j::w]
                    for k, x in line.items():
                        x = s * x
                        for key, row in zip(range(bw + k, bw + size, w), col_j):
                            row[key] = row.get(key, 0) + x
            else:   # s L X_b R: row (i, j) is s L[i, k] R[kk, j] at X_b[k, kk]
                rcols = r._cols()
                for i, line in enumerate(l._rows()):
                    row_i = block[i * w:(i + 1) * w]
                    for k, x in line.items():
                        off, x = bw + k * w, s * x
                        for row, col in zip(row_i, rcols):
                            for kk, y in col.items():
                                key = off + kk
                                row[key] = row.get(key, 0) + x * y
        rows += block
    return rows, common


def _apply(cols, v, p):
    """M v as an int dict {row: entry}, for M given by its columns as int
    dict rows: v[c] times column c, summed over the nonzeros of v's
    integer image, so a positive multiple of M v; an entry may be 0."""
    out = {}
    for c, x in enumerate(v._image()[0]):
        if x:
            _axpy(out, x, cols[c], p)
    return out


def _int_rows(nums, rows, cols):
    """Each row of a row-major int image as a dict {column: value} of its
    nonzeros; compress finds the nonzero positions at C speed."""
    out = [{} for _ in range(rows)]
    for k in compress(range(len(nums)), nums):
        i, c = divmod(k, cols)
        out[i][c] = nums[k]
    return out


def _axpy(row, f, other, p):
    """row += f * other, in place, for int dict rows and a nonzero f; mod p if p.

    The one inner loop of products and _reduce: it touches only
    the nonzero entries of other and drops the entries of row that cancel.
    """
    for c, x in other.items():
        v = row.get(c)
        if v is None:
            row[c] = f * x % p if p else f * x   # nonzero: no zero divisors
        else:
            v += f * x
            if p:
                v %= p
            if v:
                row[c] = v
            else:
                del row[c]


def _eliminate(row, prow, c, p):
    """Clear column c of the int row with the pivot row prow, in place.

    With a = prow[c] and f = row[c], row becomes a multiple of
    a row - f prow, in which c cancels, divided by its content.  prow is
    normalized, so over GF(p) a is 1 and this is row -= f prow.
    """
    f, a = row[c], prow[c]
    if a == 1:
        _axpy(row, -f, prow, p)
        return
    g = gcd(f, a)
    a, f = a // g, f // g
    for k, x in row.items():
        row[k] = x * a
    _axpy(row, -f, prow, p)
    g = gcd(*row.values())
    if g > 1:
        for k, x in row.items():
            row[k] = x // g
