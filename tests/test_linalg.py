import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from digrep import random_representation, seeded_rng
from digrep.linalg import (_block_rows, DimensionError, FieldMismatchError, FpElement, Matrix,
                           PrimeField, QQ, SubspaceError, block_diag, block_image,
                           block_kernel, block_operator, block_permutation, complete,
                           coordinates, devectorize, ext_classes, hstack, intertwiners,
                           lead_coordinates, quotient, solve, span_basis, contains,
                           sparse_kernel, vectorize, vstack)
from _instances import sample_digroup
from _oracles import (former_block_diag, former_block_rows, former_int_rows,
                      former_sparse_kernel, hom_rho_oracle, matrix_rank_oracle)

FIELDS = (QQ, PrimeField(5), PrimeField(7))


def rand_matrix(rng, rows, cols, lo=-4, hi=4, field=QQ):
    return Matrix.from_rows(field, [[rng.randint(lo, hi) for _ in range(cols)]
                                    for _ in range(rows)])


def kernel_basis(m):
    """Dense reference: a basis of the right null space, read off the RREF."""
    R, piv = m.rref()
    z, o = m.field.of(0), m.field.of(1)
    basis = []
    for f in (c for c in range(m.cols) if c not in piv):
        v = [z] * m.cols
        v[f] = o
        for i, pc in enumerate(piv):
            v[pc] = -R[i, f]
        basis.append(Matrix(m.field, m.cols, 1, v))
    return basis


def test_field_parsing_and_formatting():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.fmt(Fraction(-5, 2)) == "-5/2"
    f5 = PrimeField(5)
    x = f5.parse("7")
    assert x == f5.of(2)
    assert f5.fmt(x) == "2"
    assert (f5.of(2) / f5.of(3)) * f5.of(3) == f5.of(2)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_mixing_rejected():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(PrimeField(3), 2)
    with pytest.raises(FieldMismatchError):
        a + b
    # an entry of another prime field is refused, not read as a residue
    f5 = PrimeField(5)
    c = Matrix.from_rows(f5, [[PrimeField(7).of(3)]])
    with pytest.raises(FieldMismatchError):
        c * Matrix.identity(f5, 1)
    with pytest.raises(FieldMismatchError):
        c.rref()


def test_fields_mix_by_value_not_by_object():
    m = Matrix.identity(PrimeField(7), 2)
    n = Matrix.identity(PrimeField(7), 2)   # a second, separately built GF(7)
    assert m == n and m + n == m.scale(m.field.of(2)) and m * n == m
    assert hstack([m, n]) == hstack([m, m]) and vstack([m, n]) == vstack([m, m])
    assert span_basis([m.col_vector(0), n.col_vector(1)]) == [m.col_vector(0),
                                                              m.col_vector(1)]
    assert devectorize(n.reshape(4, 1), [0], 2, 2, m.field) == {0: m}
    for other in (Matrix.identity(QQ, 2), Matrix.identity(PrimeField(5), 2)):
        assert m != other
        for mix in (lambda: m + other, lambda: m - other, lambda: m * other,
                    lambda: hstack([m, other]), lambda: vstack([m, other]),
                    lambda: span_basis([m.col_vector(0), other.col_vector(0)]),
                    lambda: devectorize(other.reshape(4, 1), [0], 2, 2, m.field)):
            with pytest.raises(FieldMismatchError):
                mix()


def test_basic_shapes_and_arithmetic():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert a.transpose().transpose() == a
    assert (-a + a).is_zero()
    with pytest.raises(DimensionError):
        a * Matrix.identity(QQ, 3)
    with pytest.raises(DimensionError):
        Matrix(QQ, 2, 2, [QQ.of(1)] * 3)


def test_rref_and_rank_against_oracle():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        assert m.rank() == matrix_rank_oracle(m.to_lists())
        r, piv = m.rref()
        assert len(piv) == m.rank()
        # pivot columns carry unit vectors
        for i, c in enumerate(piv):
            col = [r[k, c] for k in range(rows)]
            assert col[i] == 1 and all(x == 0 for k, x in enumerate(col) if k != i)


def test_kernel_basis_is_a_kernel_and_spans_it():
    rng = random.Random(12)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        ker = kernel_basis(m)
        for v in ker:
            assert (m * v).is_zero()
        assert len(ker) == cols - m.rank()
        assert len(span_basis(ker)) == len(ker)


def test_solve_consistent_and_inconsistent():
    a = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    b = Matrix.column(QQ, [1, 2])
    x = solve(a, b)
    assert x is not None and a * x == b
    assert solve(a, Matrix.column(QQ, [1, 3])) is None
    rng = random.Random(13)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols)
        x0 = rand_matrix(rng, cols, 1)
        b = m * x0
        x = solve(m, b)
        assert x is not None and m * x == b


def test_inverse_round_trip_and_singular():
    rng = random.Random(14)
    count = 0
    while count < 15:
        m = rand_matrix(rng, 3, 3)
        if m.rank() < 3:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        assert m * m.inverse() == Matrix.identity(QQ, 3)
        count += 1


def test_stack_operations():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[3, 4]])
    assert vstack([a, b]).to_lists() == [[1, 2], [3, 4]]
    assert hstack([a.transpose(), b.transpose()]).to_lists() == [[1, 3], [2, 4]]
    m = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    assert m.block(0, 1, 2, 2).to_lists() == [[2, 3], [5, 6]]
    assert m.block(1, 0, 0, 3) == Matrix(QQ, 0, 3, [])
    assert block_diag(QQ, [a, Matrix.identity(QQ, 1)]).to_lists() == \
        [[1, 2, 0], [0, 0, 1]]
    assert block_diag(QQ, []) == Matrix(QQ, 0, 0, [])


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_block_diag_matches_the_former_construction(field):
    def m(rows, cols, entries):
        return Matrix(field, rows, cols, [field.parse(x) for x in entries])

    blocks = [m(0, 0, []), m(0, 2, []), m(2, 0, []), m(1, 1, ["2"]),
              m(2, 2, ["1/2", "0", "3", "-1/3"] if field == QQ else ["4", "0", "3", "6"]),
              m(1, 3, ["5/7", "1", "0"] if field == QQ else ["5", "1", "0"])]
    cases = [[], *([b] for b in blocks), blocks, blocks[::-1], blocks[2:] + blocks[:2],
             [blocks[1], blocks[2]], [blocks[2], blocks[1]], [blocks[0]] * 3]
    for case in cases:
        got = block_diag(field, case)
        assert got == former_block_diag(field, case)
        assert (got.rows, got.cols) == (sum(b.rows for b in case), sum(b.cols for b in case))
    other = PrimeField(5) if field == QQ else QQ
    for case in ([Matrix.identity(other, 1)], [Matrix.identity(field, 2), Matrix.zeros(other, 0, 1)],
                 [Matrix.identity(field, 1), Matrix.identity(PrimeField(11), 1)]):
        with pytest.raises(FieldMismatchError):
            block_diag(field, case)


def test_block_permutation_moves_blocks():
    # block g goes to block perm[g]: the columns of block g are those of block
    # perm[g] of the identity
    p = block_permutation(QQ, [2, 0, 1], 2)
    ident = Matrix.identity(QQ, 6)
    assert p == hstack([ident.block(0, 2 * h, 6, 2) for h in (2, 0, 1)])
    assert block_permutation(PrimeField(3), [0], 0) == Matrix(PrimeField(3), 0, 0, [])


def test_span_basis_is_canonical():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(1, 4)
        vecs = [rand_matrix(rng, n, 1) for _ in range(rng.randint(1, 4))]
        b1 = span_basis(vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scaled = [v.scale(QQ.of(rng.choice([1, 2, -3]))) for v in shuffled]
        b2 = span_basis(scaled + shuffled)
        assert b1 == b2
        for v in vecs:
            assert contains(b1, v)


def test_quotient_matches_complete_and_rejects_an_escaping_vector():
    rng = random.Random(29)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 6)
            gens = [rand_matrix(rng, n, 1, field=field) for _ in range(rng.randint(0, n))]
            ambient = span_basis(gens)
            # sub: a random subspace of span(ambient), given by a basis
            sub = span_basis([sum((v.scale(field.of(rng.randint(-3, 3))) for v in ambient),
                                  Matrix.zeros(field, n, 1))
                              for _ in range(rng.randint(0, len(ambient)))])
            reps = quotient(sub, ambient)
            assert reps == complete(sub, ambient)
            assert len(reps) == len(ambient) - len(sub)
            if len(ambient) == n:
                continue
            # one vector of sub outside span(ambient): the quotient refuses
            out = next(v for v in (Matrix.identity(field, n).col_vector(c)
                                   for c in range(n)) if not contains(ambient, v))
            with pytest.raises(SubspaceError):
                quotient(sub + [out], ambient)


def test_ext_classes_refuses_a_dependent_coboundary_list():
    # B is passed as a basis: a repeated column counts twice against dim Z,
    # so the one quotient elimination refuses it
    for field in FIELDS:
        same = [[(1, None, 0, None), (-1, None, 1, None)]]   # X_0 = X_1
        z, reps = ext_classes(2, 1, 1, same, [], field)
        assert len(z) == 1 and reps == z
        assert ext_classes(2, 1, 1, same, z, field) == (z, [])
        with pytest.raises(SubspaceError):
            ext_classes(2, 1, 1, same, z + z, field)


def int_image(rng, field, values):
    """An integer image of a homogeneous row, as sparse_kernel takes it: over Q
    the row times a common denominator and a random nonzero factor, over
    GF(p) ints congruent to its residues."""
    if field == QQ:
        k = rng.choice((1, -1, 2, -3)) * lcm(*(x.denominator for x in values))
        return [int(x * k) for x in values]
    return [x.v + field.p * rng.randint(-2, 2) for x in values]


def test_sparse_kernel_matches_dense():
    rng = random.Random(16)
    for field in (QQ, PrimeField(5), PrimeField(7)):
        systems = []
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            systems.append(rand_matrix(rng, rows, cols, -2, 2, field))
        # tall and redundant, like the derivation system: rows >> columns,
        # every row a repeat or a combination of a few sparse generators
        for _ in range(10):
            cols = rng.randint(4, 16)
            gens = [[rng.randint(-2, 2) if rng.random() < 0.3 else 0
                     for _ in range(cols)] for _ in range(rng.randint(1, cols))]
            rows = []
            for _ in range(6 * cols):
                a, b, k = rng.choice(gens), rng.choice(gens), rng.randint(-2, 2)
                rows.append(a if rng.random() < 0.5
                            else [x + k * y for x, y in zip(a, b)])
            systems.append(Matrix.from_rows(field, rows))
        # over Q with non-unit denominators and entries near 10^12
        for _ in range(15):
            systems.append(rand_sparse(rng, field, rng.randint(1, 6), rng.randint(1, 6),
                                       rng.uniform(0.2, 1.0)))
        for dense in systems:
            cols = dense.cols
            sparse_rows = [{j: x for j, x in enumerate(int_image(rng, field, dense.row_list(i)))
                            if x or rng.random() < 0.2}
                           for i in range(dense.rows)]
            ker = sparse_kernel(cols, sparse_rows, field)
            for v in ker:
                assert (dense * v).is_zero()
            assert len(ker) == cols - dense.rank()
            assert span_basis(ker) == span_basis(kernel_basis(dense))


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3), PrimeField(7)), ids=repr)
def test_sparse_kernel_is_the_rref_basis_of_the_former_kernel(field):
    # one highest-pivot elimination gives span_basis of the former kernel:
    # no rows, rows that vanish (empty, zero entries, multiples of p),
    # repeated rows (one object and equal copies), columns no row touches
    rng = random.Random(26)
    p = field.char
    systems = [(0, []), (3, []), (4, [{}, {1: 0}]), (2, [{0: 3, 1: -3}] * 3)]
    for _ in range(120):
        ncols = rng.randint(1, 10)
        used = rng.sample(range(ncols), rng.randint(1, ncols))
        rows = [{c: rng.randint(-3, 3) for c in used if rng.random() < 0.4}
                for _ in range(rng.randint(1, 2 * ncols))]
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))]
        rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
        if p:
            rows.append({c: p * rng.randint(1, 3) for c in used[:2]})
        rows.append({})
        rng.shuffle(rows)
        systems.append((ncols, rows))
    for ncols, rows in systems:
        kernel = sparse_kernel(ncols, rows, field)
        assert kernel == span_basis(former_sparse_kernel(ncols, rows, field)), (ncols, rows)
        for v in kernel:
            assert_canonical_image(v)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(7)), ids=repr)
def test_block_rows_match_the_former_assembly(field):
    # each term shape on its own (L only, R only, L and R, neither) and
    # mixed, with integer factors (no scaling) and over Q with fractional
    # factors (the common-denominator path)
    rng = random.Random(27)
    shapes = {"L": (True, False), "R": (False, True), "LR": (True, True), "-": (False, False)}
    for kind in list(shapes) + ["mixed"] * 4:
        for integral in (True, False):
            for _ in range(15):
                nblocks, h, w = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
                eqs = []
                for _ in range(rng.randint(0, 4)):
                    eq = []
                    for _ in range(rng.randint(1, 4)):
                        has_l, has_r = shapes[kind if kind in shapes else rng.choice(list(shapes))]
                        if integral:
                            l = rand_matrix(rng, h, h, -2, 2, field) if has_l else None
                            r = rand_matrix(rng, w, w, -2, 2, field) if has_r else None
                            c = rng.choice((1, -1, 2))
                        else:
                            l = rand_sparse(rng, field, h, h, 0.6) if has_l else None
                            r = rand_sparse(rng, field, w, w, 0.6) if has_r else None
                            c = rng.choice((-3, -2, -1, 1, 2, 3))
                        eq.append((c, l, rng.randrange(nblocks), r))
                    eqs.append(eq)
                    if rng.random() < 0.3:
                        eqs.append(eq)
                assert _block_rows(h, w, eqs, field)[0] == former_block_rows(h, w, eqs, field)
                other = PrimeField(5) if field == QQ else QQ
                for l, r in ((Matrix.identity(other, h), None), (None, Matrix.identity(other, w))):
                    with pytest.raises(FieldMismatchError):
                        _block_rows(h, w, eqs + [[(1, l, 0, r)]], field)


def dense_product(a, b):
    """Reference: the triple-loop product over every entry pair."""
    z = a.field.of(0)
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = z
            for t in range(a.cols):
                if a[i, t]:
                    acc = acc + a[i, t] * b[t, j]
            out.append(acc)
    return Matrix(a.field, a.rows, b.cols, out)


def dense_rref(m):
    """Reference: the whole-row Gauss-Jordan elimination."""
    rows = [m.row_list(i) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.field, m.rows, m.cols, [x for row in rows for x in row]), tuple(pivots)


# over Q, non-unit denominators and entries near 10^12 as well as small ints
BIG = 10 ** 12
RATIONALS = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-5, 7),
             Fraction(BIG + 1), Fraction(-BIG + 3), Fraction(BIG, 7))


def rand_value(rng, field):
    """A nonzero scalar of the field."""
    if field == QQ and rng.random() < 0.3:
        return rng.choice(RATIONALS)
    return field.of(rng.choice((-3, -2, -1, 1, 2, 3)))


def rand_sparse(rng, field, rows, cols, density):
    return Matrix(field, rows, cols,
                  [rand_value(rng, field) if rng.random() < density else field.of(0)
                   for _ in range(rows * cols)])


def assert_field_scalars(m):
    for x in m.entries:
        if m.field == QQ:
            assert type(x) is Fraction
        else:
            assert type(x) is FpElement and x.p == m.field.p


def assert_canonical_image(m):
    """The image is canonical and the entries are its values."""
    nums, d = m._image()
    assert len(nums) == m.rows * m.cols
    if m.field == QQ:
        assert d > 0 and gcd(d, *nums) == 1
        assert m.entries == tuple(Fraction(x, d) for x in nums)
    else:
        assert d == 1 and all(0 <= x < m.field.p for x in nums)
        assert m.entries == tuple(FpElement(x, m.field.p) for x in nums)


def kernel_cases(rng, field):
    """Random shapes and densities 0.1-1.0, all-zero matrices and empty shapes."""
    shapes = [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]
    shapes += [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    for n, m, k in shapes:
        for density in (0.0, rng.choice((0.1, 0.2, 0.3)), rng.uniform(0.3, 1.0), 1.0):
            yield (rand_sparse(rng, field, n, m, density),
                   rand_sparse(rng, field, m, k, rng.uniform(0.1, 1.0)))


def test_product_matches_the_triple_loop():
    rng = random.Random(21)
    for field in FIELDS:
        for a, b in kernel_cases(rng, field):
            got = a * b
            assert got == dense_product(a, b)
            assert (got.rows, got.cols) == (a.rows, b.cols)
            assert_field_scalars(got)


def test_rref_matches_whole_row_elimination():
    rng = random.Random(22)
    for field in FIELDS:
        for a, b in kernel_cases(rng, field):
            for m in (a, b, vstack([a, a])):
                r, piv = m.rref()
                assert (r, piv) == dense_rref(m)
                assert_field_scalars(r)


def test_equality_and_hash_follow_the_entries():
    """== and hash read the cached integer image; they must agree with
    entrywise equality whichever kernel made the matrix."""
    rng = random.Random(25)
    for field in FIELDS:
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_sparse(rng, field, n, m, rng.uniform(0.2, 1.0))
            r = a.rref()[0]
            made = {
                "a": [a, Matrix.from_rows(field, a.to_lists()), Matrix(field, n, m, a.entries),
                      Matrix.identity(field, n) * a, a * Matrix.identity(field, m),
                      solve(Matrix.identity(field, n), a)],
                "rref": [r, r.rref()[0], Matrix.from_rows(field, r.to_lists()),
                         dense_rref(a)[0], vstack([r]) * Matrix.identity(field, m)],
            }
            # one entry changed, the transpose's shape, twice a
            k = rng.randrange(n * m)
            bumped = list(a.entries)
            bumped[k] = bumped[k] + rand_value(rng, field)
            made["bumped"] = [Matrix(field, n, m, bumped)]
            made["reshaped"] = [Matrix(field, m, n, a.entries)]
            made["twice"] = [a + a, a * Matrix.identity(field, m).scale(field.of(2))]
            # every constructor that works on the integer image, against the
            # same matrix built from scalars
            half, third = field.of(1) / field.of(2), field.of(1) / field.of(3)
            rows = a.to_lists()
            i, j = rng.randint(0, n), rng.randint(0, m)
            made["a"] += [a.block(0, 0, n, m), -(-a), a.scale(third).scale(field.of(3)),
                          a.transpose().transpose(), a.reshape(m, n).reshape(n, m),
                          a.reshape(n * m, 1).reshape(n, m), (a - a) + a,
                          hstack([a.block(0, 0, n, j), a.block(0, j, n, m - j)]),
                          vstack([a.block(0, 0, i, m), a.block(i, 0, n - i, m)])]
            made["reshaped"].append(a.reshape(m, n))
            i0, j0 = rng.randrange(n), rng.randrange(m)
            h, w = rng.randint(1, n - i0), rng.randint(1, m - j0)
            made["block"] = [a.block(i0, j0, h, w),
                             Matrix.from_rows(field, [r[j0:j0 + w] for r in rows[i0:i0 + h]])]
            # parts over different denominators
            made["hstack"] = [hstack([a, a.scale(half)]),
                              Matrix.from_rows(field, [r + [x * half for x in r] for r in rows])]
            made["vstack"] = [vstack([a.scale(third), a]),
                              Matrix.from_rows(field, [[x * third for x in r] for r in rows]
                                               + rows)]
            made["transpose"] = [a.transpose(),
                                 Matrix.from_rows(field, [list(c) for c in zip(*rows)])]
            made["zeros"] = [a - a, Matrix.zeros(field, n, m), a.scale(field.of(0)),
                             Matrix.from_rows(field, [[0] * m for _ in range(n)])]
            made["identity"] = [Matrix.identity(field, n), Matrix.identity(field, n).transpose(),
                                Matrix.from_rows(field, [[int(r == c) for c in range(n)]
                                                         for r in range(n)])]
            # left factor rows with no, one and two nonzero entries
            picks = [rng.sample(range(n), min(n, r % 3)) for r in range(n)]
            sel = Matrix(field, n, n, [rand_value(rng, field) if c in picks[r] else field.of(0)
                                       for r in range(n) for c in range(n)])
            made["product"] = [sel * a, dense_product(sel, a)]
            lazy = sel * a   # no scalar is made until one is asked for
            assert lazy._ents is None and lazy.entries == made["product"][1].entries
            pool = [(x, name) for name, group in made.items() for x in group]
            for x, _ in pool:
                assert_canonical_image(x)
                assert_field_scalars(x)
            for x, xn in pool:
                for y, yn in pool:
                    same = (x.rows, x.cols) == (y.rows, y.cols) and x.entries == y.entries
                    assert (x == y) == same, (xn, yn)
                    assert (x != y) == (not same)
                    if same:
                        assert hash(x) == hash(y), (xn, yn)
    assert Matrix.identity(QQ, 2) != Matrix.identity(PrimeField(5), 2)
    assert Matrix.identity(PrimeField(5), 2) != Matrix.identity(PrimeField(7), 2)


def test_prime_field_linear_algebra():
    f3 = PrimeField(3)
    m = Matrix.from_rows(f3, [[1, 2], [2, 2]])
    assert m.rank() == 2
    assert m * m.inverse() == Matrix.identity(f3, 2)
    sing = Matrix.from_rows(f3, [[1, 2], [2, 4]])
    assert sing.rank() == 1
    assert len(kernel_basis(sing)) == 1


def dense_intertwiners(pairs, d_src, d_dst, field):
    """Reference: the f A = B f system, one dense row per pair and entry."""
    n = d_src * d_dst
    rows = []
    for a, b in pairs:
        for i in range(d_dst):
            for j in range(d_src):
                row = [field.of(0)] * n
                for k in range(d_src):
                    row[i * d_src + k] += a[k, j]
                for k in range(d_dst):
                    row[k * d_src + j] -= b[i, k]
                rows.append(row)
    ker = kernel_basis(Matrix.from_rows(field, rows)) if rows else []
    return [Matrix(field, d_dst, d_src, v.entries) for v in span_basis(ker)]


def test_intertwiners_match_dense_reference_and_oracle():
    rng = random.Random(17)
    for field in FIELDS:
        for seed in range(12):
            srng = seeded_rng(3000 + seed)
            d = sample_digroup(srng)
            q = random_representation(d, srng.randint(1, 3), srng, field)
            w = random_representation(d, srng.randint(1, 3), srng, field)
            # both operator families, with the repeats the tables carry
            pairs = [(t1[x], t2[x]) for x in d.elements
                     for t1, t2 in ((q.lam, w.lam), (q.rho, w.rho))]
            rho_pairs = [(q.rho[(g, 0)], w.rho[(g, 0)])
                         for g in range(d.group.order)]
            # unrelated random pairs, and a pair fixed by the identity map
            a = rand_matrix(rng, 2, 2, -2, 2, field)
            b = rand_matrix(rng, 3, 3, -2, 2, field)
            for fam, ds, dd in ((pairs, q.dim, w.dim), (rho_pairs, q.dim, w.dim),
                                ([(a, b), (a, b)], 2, 3), ([(a, a)], 2, 2)):
                basis = intertwiners(fam, ds, dd, field)
                assert basis == dense_intertwiners(fam, ds, dd, field)
                for f in basis:
                    assert all(f * x == y * f for x, y in fam)
            # the identity commutes with a, so it lies in the span
            flat = [Matrix(field, 4, 1, f.entries)
                    for f in intertwiners([(a, a)], 2, 2, field)]
            assert contains(flat, Matrix(field, 4, 1, Matrix.identity(field, 2).entries))
            if field == QQ:
                oracle = [Matrix(QQ, q.dim * w.dim, 1, v)
                          for v in hom_rho_oracle(q, w)]
                flat = [Matrix(QQ, f.rows * f.cols, 1, f.entries)
                        for f in intertwiners(rho_pairs, q.dim, w.dim, QQ)]
                assert flat == span_basis(oracle)
    assert intertwiners([], 0, 3, QQ) == []


def greedy_complete(small, big):
    """Reference: add the vectors of big one by one, keeping rank raisers."""
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


def rand_vectors(rng, field, n, count):
    """Column vectors with deliberate dependencies: some are combinations."""
    vecs = []
    for _ in range(count):
        if vecs and rng.random() < 0.4:
            a, b = rng.choice(vecs), rng.choice(vecs)
            vecs.append(a + b.scale(field.of(rng.randint(-2, 2))))
        else:
            vecs.append(rand_matrix(rng, n, 1, -2, 2, field))
    return vecs


def test_complete_matches_the_greedy_loop():
    rng = random.Random(18)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 6)
            small = rand_vectors(rng, field, n, rng.randint(0, 4))
            big = rand_vectors(rng, field, n, rng.randint(0, 6))
            if small and rng.random() < 0.5:
                big = big + [small[0].scale(field.of(2))]
            assert complete(small, big) == greedy_complete(small, big)


def test_contains_several_vectors_is_the_conjunction():
    rng = random.Random(19)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 5)
            basis = rand_vectors(rng, field, n, rng.randint(0, 3))
            vecs = rand_vectors(rng, field, n, rng.randint(1, 3))
            vecs += [sum(basis[1:], basis[0]) if basis else Matrix.zeros(field, n, 1)]
            single = [contains(basis, v) for v in vecs]
            ref = [len(span_basis(basis + [v])) == len(span_basis(basis))
                   if basis else v.is_zero() for v in vecs]
            assert single == ref
            assert contains(basis, *vecs) == all(single)
            assert contains(basis)


def test_coordinates_of_several_columns_are_the_column_by_column_answers():
    rng = random.Random(24)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 5)
            # non-unit denominators over Q, and dependent basis vectors
            basis = [v.scale(rand_value(rng, field))
                     for v in rand_vectors(rng, field, n, rng.randint(1, 4))]
            k = rng.randint(1, 3)
            coeffs = Matrix(field, len(basis), k,
                            [rand_value(rng, field) if rng.random() < 0.7 else field.of(0)
                             for _ in range(len(basis) * k)])
            x = hstack(basis) * coeffs
            c = coordinates(basis, x)
            assert hstack(basis) * c == x
            assert c == hstack([coordinates(basis, x.col_vector(j)) for j in range(k)])
            outside = rand_matrix(rng, n, 1, -2, 2, field)
            if not contains(basis, outside):
                j = rng.randrange(k + 1)
                cols = [x.col_vector(i) for i in range(k)]
                assert coordinates(basis, hstack(cols[:j] + [outside] + cols[j:])) is None
        for k in (0, 1, 3):
            assert coordinates([], Matrix.zeros(field, 2, k)) == Matrix(field, 0, k, [])
        assert coordinates([], hstack([Matrix.zeros(field, 2, 1),
                                       Matrix.column(field, [0, 1])])) is None


def dense_block_system(nblocks, h, w, equations, field):
    """Reference: the coefficient matrix of the block equations, entry by entry.

    Row (e * h + i) * w + j is entry (i, j) of equation e, column
    (b * h + k) * w + l is the unknown X_b[k, l]; a missing L or R is the
    identity.
    """
    n = nblocks * h * w
    ident_h, ident_w = Matrix.identity(field, h), Matrix.identity(field, w)
    rows = []
    for eq in equations:
        for i in range(h):
            for j in range(w):
                row = [field.of(0)] * n
                for c, l, b, r in eq:
                    lm = ident_h if l is None else l
                    rm = ident_w if r is None else r
                    for k in range(h):
                        for kk in range(w):
                            u = (b * h + k) * w + kk
                            row[u] = row[u] + field.of(c) * lm[i, k] * rm[kk, j]
                rows.append(row)
    return Matrix(field, len(rows), n, [x for row in rows for x in row])


def rand_block_equations(rng, field, nblocks, h, w):
    """Random equations with every term kind, several terms on one block,
    int coefficients other than +-1, and an equation repeated as the same object."""
    coeffs = [1, -1, 2, -3, 4]
    eqs = []
    for _ in range(rng.randint(0, 4)):
        eq, b0 = [], rng.randrange(nblocks)
        for _ in range(rng.randint(1, 4)):
            b = b0 if rng.random() < 0.5 else rng.randrange(nblocks)
            l = rand_sparse(rng, field, h, h, rng.uniform(0.2, 1.0)) if rng.random() < 0.5 else None
            r = rand_sparse(rng, field, w, w, rng.uniform(0.2, 1.0)) if rng.random() < 0.5 else None
            c = rng.choice(coeffs)
            eq.append((c, l, b, r))
        eqs.append(eq)
        if rng.random() < 0.3:
            eqs.append(eq)
    return eqs


def fresh_copies(eqs, field):
    """The equations again, made lazily, each matrix a new object."""
    def fresh(m):
        return None if m is None else Matrix(field, m.rows, m.cols, m.entries)
    return ([(c, fresh(l), b, fresh(r)) for c, l, b, r in eq] for eq in eqs)


def test_block_kernel_and_image_match_the_dense_system():
    rng = random.Random(23)
    for field in FIELDS:
        shapes = [(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(60)]
        shapes += [(0, 2, 2), (2, 0, 2), (2, 2, 0), (1, 1, 1)]
        for nblocks, h, w in shapes:
            eqs = rand_block_equations(rng, field, max(nblocks, 1), h, w)
            if nblocks == 0:
                eqs = []
            dense = dense_block_system(nblocks, h, w, eqs, field)
            kernel = block_kernel(nblocks, h, w, eqs, field)
            assert kernel == span_basis(kernel_basis(dense))
            image = block_image(nblocks, h, w, eqs, field)
            assert image == span_basis([dense.col_vector(c) for c in range(dense.cols)])
            for v in kernel + image:
                assert_field_scalars(v)
            # new matrix objects, built from their entries, assemble the same rows
            assert block_kernel(nblocks, h, w, fresh_copies(eqs, field), field) == kernel
            assert block_image(nblocks, h, w, fresh_copies(eqs, field), field) == image


def test_block_operator_is_the_dense_system():
    # the exact matrix of the assembled map, over the common denominator of
    # the rows: fractional factors over Q, zero shapes
    rng = random.Random(27)
    for field in FIELDS + (PrimeField(2),):
        shapes = [(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(40)]
        for nblocks, h, w in shapes + [(0, 2, 2), (2, 0, 2), (2, 2, 0)]:
            eqs = rand_block_equations(rng, field, max(nblocks, 1), h, w) if nblocks else []
            op = block_operator(nblocks, h, w, eqs, field)
            assert op == dense_block_system(nblocks, h, w, eqs, field)
            assert_field_scalars(op)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(7)), ids=repr)
def test_lead_coordinates_are_the_coordinates_in_a_canonical_basis(field):
    """The rows of x at the leads of a span_basis or sparse_kernel basis,
    certified: equal to coordinates, and None exactly where it is None."""
    rng = random.Random(28)
    answered = refused = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            basis = span_basis(rand_vectors(rng, field, n, rng.randint(1, 4)))
        else:
            rows = [{c: rng.randint(-3, 3) for c in rng.sample(range(n), rng.randint(1, n))}
                    for _ in range(rng.randint(0, n))]
            basis = sparse_kernel(n, rows, field)
        k = rng.randint(0, 3)
        coeffs = Matrix(field, len(basis), k, [rand_value(rng, field) if rng.random() < 0.7
                                               else field.of(0) for _ in range(len(basis) * k)])
        x = (hstack(basis) if basis else Matrix(field, n, 0, [])) * coeffs
        if rng.random() < 0.4:   # a column that may lie outside the span
            x = hstack([x, rand_matrix(rng, n, 1, -2, 2, field)])
        got = lead_coordinates(basis, x)
        assert got == coordinates(basis, x)
        answered += got is not None
        refused += got is None
    assert answered > 20 and refused > 10
    for k in (0, 2):
        assert lead_coordinates([], Matrix.zeros(field, 3, k)) == Matrix(field, 0, k, [])
    assert lead_coordinates([], Matrix.column(field, [0, 1])) is None


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(7)), ids=repr)
def test_rows_match_the_former_scan(field):
    # _rows() of random images, 0 x n and n x 0 shapes included, and the
    # rows block_permutation hands its matrix
    rng = random.Random(29)
    shapes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)]
    for rows, cols in shapes + [(0, 3), (3, 0), (0, 0)]:
        m = rand_sparse(rng, field, rows, cols, rng.uniform(0.0, 1.0))
        assert m._rows() == former_int_rows(m._image()[0], rows, cols)
    for perm, k in (([2, 0, 1], 2), ([0], 3), ([1, 0], 0), ([], 2)):
        p = block_permutation(field, perm, k)
        assert p._rows() == former_int_rows(p._image()[0], p.rows, p.cols)


def test_block_layout_round_trip():
    rng = random.Random(24)
    for field in FIELDS:
        blocks = {k: rand_matrix(rng, 2, 3, -2, 2, field) for k in "xyz"}
        v = vectorize(blocks, "zxy", 2, 3)
        # X_b[i, j] sits at (b * h + i) * w + j, b the position in keys
        assert v[(1 * 2 + 1) * 3 + 2, 0] == blocks["x"][1, 2]
        assert devectorize(v, "zxy", 2, 3, field) == blocks
