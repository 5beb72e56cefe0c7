import sys
from collections import Counter
from dataclasses import replace

import pytest

from digrep import (CocycleFamily, Matrix, MaschkeError, PrimeField, QQ,
                    Representation, RepresentationError, average_section,
                    block_decompose, change_of_splitting_check, check_cocycle,
                    coboundary, cocycle_space, demo_digroup, demo_representation,
                    demo_ses, demo_subspace_basis,
                    direct_sum, ext1_dim, extension_from_cocycle, hom_rho,
                    is_split, require_valid, semisimplicity_probe, short_exact,
                    ShortExactSeq, sub_quotient)
from digrep.digroup import Digroup, FiniteGroup, GAction
from digrep.ext import check_cocycle_on_generators, vectorize, coboundary_space
from digrep.halo import hom_BE
from digrep.linalg import FieldMismatchError, SubspaceError, span_basis, solve, hstack
from digrep.reps import hom_rep, random_representation, seeded_rng, to_semilinear
from digrep.serialize import ses_from_json, ses_to_json

from _instances import corrupted_tables, induced_pair, sample_pair
from _oracles import (cocycle_dim_oracle, exhaustive_average_section,
                      exhaustive_block_decompose, ext1_dim_oracle, former_check_cocycle,
                      full_family_ext1, hom_rho_oracle)


def demo_parts():
    s = demo_ses()
    return s, s.W, s.Q


def test_short_exact_validation_rejects_nonmorphisms():
    s, w, q = demo_parts()
    with pytest.raises(RepresentationError):
        short_exact(w, s.V, q, s.iota.scale(QQ.of(0)), s.pi)
    with pytest.raises(RepresentationError):
        short_exact(q, s.V, w, s.iota, s.pi)


@pytest.mark.parametrize("field", (QQ, PrimeField(3)), ids=repr)
def test_short_exact_refuses_each_corrupted_demo_sequence(field):
    # the demo sequence 0 -> W -> V -> Q -> 0 read over field, then broken
    # one way at a time; each refusal names what broke
    s = ses_from_json(ses_to_json(demo_ses()), field=field)
    w, v, q, iota, pi = s.W, s.V, s.Q, s.iota, s.pi
    assert short_exact(w, v, q, iota, pi) == s
    elsewhere = replace(w, digroup=Digroup(w.digroup.group, w.digroup.action))
    cases = [
        ("sequence members live over different digroups", (elsewhere, v, q, iota, pi)),
        ("iota shape mismatch", (w, v, q, iota.transpose(), pi)),
        ("pi shape mismatch", (w, v, q, iota, pi.transpose())),
        ("dimensions do not add up", (w, v, v, iota, Matrix.identity(field, v.dim))),
        ("pi is not surjective", (w, v, q, iota, pi.scale(field.of(0)))),
        ("pi o iota != 0", (w, v, q, iota, pi + iota.transpose())),
        ("pi is not a morphism at L_0", (w, v, w, iota, pi)),
    ]
    for message, args in cases:
        with pytest.raises(RepresentationError) as err:
            short_exact(*args)
        assert str(err.value) == message


def test_average_section_properties_on_the_demo():
    s, _, _ = demo_parts()
    sec = average_section(s)
    assert s.pi * sec == Matrix.identity(QQ, s.Q.dim)
    for x in s.V.digroup.elements:
        assert s.V.rho[x] * sec == sec * s.Q.rho[x]
    # the obvious coordinate section is already equivariant here, so the
    # averaging changes nothing
    s0 = solve(s.pi, Matrix.identity(QQ, s.Q.dim))
    assert sec == s0


def test_average_section_on_direct_sums():
    for seed in range(6):
        d, q, w = sample_pair(seed + 900, max_dim=2)
        v = direct_sum(w, q)
        require_valid(v)
        field = QQ
        iota = Matrix(field, v.dim, w.dim,
                      [field.of(1) if i == j else field.of(0)
                       for i in range(v.dim) for j in range(w.dim)])
        pi = Matrix(field, q.dim, v.dim,
                    [field.of(1) if j == w.dim + i else field.of(0)
                     for i in range(q.dim) for j in range(v.dim)])
        s = short_exact(w, v, q, iota, pi)
        sec = average_section(s)
        assert s.pi * sec == Matrix.identity(field, q.dim)
        for g, m in s.V.rho.items():
            assert m * sec == sec * s.Q.rho[g]


def test_maschke_failure_over_f2_with_c2():
    f2 = PrimeField(2)
    c2 = FiniteGroup.cyclic(2)
    d = Digroup(c2, GAction.trivial(c2, 1))
    ident = {x: Matrix.identity(f2, 2) for x in d.elements}
    v = require_valid(Representation(d, 2, dict(ident), dict(ident)))
    w, q, iota, pi = sub_quotient(v, [Matrix.column(f2, [0, 1])])
    require_valid(w)
    require_valid(q)
    s = short_exact(w, v, q, iota, pi)
    with pytest.raises(MaschkeError):
        average_section(s)


def test_block_decompose_extracts_the_demo_cocycle():
    s, w, q = demo_parts()
    fam = block_decompose(s, average_section(s))
    assert fam.theta[(0, 0)].is_zero()
    assert fam.theta[(1, 0)].is_zero()
    assert fam.theta[(0, 1)].to_lists() == [[1]]
    assert fam.theta[(1, 1)].to_lists() == [[-1]]


def test_block_decompose_rejects_nonequivariant_sections():
    for seed in range(6):
        d, q, w = sample_pair(seed + 950, max_dim=2)
        v = direct_sum(w, q)
        require_valid(v)
        iota = Matrix(QQ, v.dim, w.dim,
                      [QQ.of(1) if i == j else QQ.of(0)
                       for i in range(v.dim) for j in range(w.dim)])
        pi = Matrix(QQ, q.dim, v.dim,
                    [QQ.of(1) if j == w.dim + i else QQ.of(0)
                     for i in range(q.dim) for j in range(v.dim)])
        s = short_exact(w, v, q, iota, pi)
        sec = average_section(s)
        fam = block_decompose(s, sec)
        assert all(m.is_zero() for m in fam.theta.values())


def test_cocycle_space_dimension_matches_brute_force_oracle():
    s, w, q = demo_parts()
    assert len(cocycle_space(q, w)) == 2
    assert cocycle_dim_oracle(q, w) == 2
    # the swapped pair is asserted only through the oracle
    assert len(cocycle_space(w, q)) == cocycle_dim_oracle(w, q)
    for seed in range(8):
        d, rq, rw = sample_pair(seed + 200, max_dim=2,
                                group_names=("C1", "C2", "C3"))
        assert len(cocycle_space(rq, rw)) == cocycle_dim_oracle(rq, rw)


def test_cocycle_members_pass_all_three_identities():
    for seed in range(5):
        d, rq, rw = sample_pair(seed + 250, max_dim=2)
        for fam in cocycle_space(rq, rw):
            assert check_cocycle(fam.theta, rq, rw).ok


def test_hom_rho_dimensions():
    s, w, q = demo_parts()
    assert len(hom_rho(q, w)) == 1
    # trivial rho against the sign character forces zero
    c2 = FiniteGroup.cyclic(2)
    d = Digroup(c2, GAction.trivial(c2, 1))
    ident = {x: Matrix.identity(QQ, 1) for x in d.elements}
    triv = require_valid(Representation(d, 1, dict(ident), dict(ident)))
    sign = {x: Matrix.from_rows(QQ, [[1 if x[0] == 0 else -1]])
            for x in d.elements}
    sgn = require_valid(Representation(d, 1, dict(sign), dict(sign)))
    assert len(hom_rho(triv, sgn)) == 0
    assert len(hom_rho(triv, triv)) == 1
    for seed in range(6):
        _, rq, rw = sample_pair(seed + 300, max_dim=2)
        assert len(hom_rho(rq, rw)) == len(hom_rho_oracle(rq, rw))


def test_coboundary_values_on_the_demo():
    s, w, q = demo_parts()
    t = Matrix.from_rows(QQ, [[1]])
    fam = coboundary(t, q, w)
    # lam on the subobject vanishes, lam on the quotient is the sign
    assert fam.theta[(0, 0)].to_lists() == [[-1]]
    assert fam.theta[(1, 0)].to_lists() == [[1]]
    assert fam.theta[(0, 1)].to_lists() == [[-1]]
    assert fam.theta[(1, 1)].to_lists() == [[1]]
    zero = coboundary(Matrix.zeros(QQ, 1, 1), q, w)
    assert all(m.is_zero() for m in zero.theta.values())
    # identity intertwiner of a representation with itself has zero coboundary
    ident = coboundary(Matrix.identity(QQ, 1), q, q)
    assert all(m.is_zero() for m in ident.theta.values())


def test_coboundary_rejects_non_intertwiners():
    c2 = FiniteGroup.cyclic(2)
    d = Digroup(c2, GAction.trivial(c2, 1))
    ident = {x: Matrix.identity(QQ, 1) for x in d.elements}
    triv = require_valid(Representation(d, 1, dict(ident), dict(ident)))
    sign = {x: Matrix.from_rows(QQ, [[1 if x[0] == 0 else -1]])
            for x in d.elements}
    sgn = require_valid(Representation(d, 1, dict(sign), dict(sign)))
    with pytest.raises(RepresentationError):
        coboundary(Matrix.identity(QQ, 1), triv, sgn)


def test_every_coboundary_lies_in_the_cocycle_space():
    for seed in range(8):
        d, rq, rw = sample_pair(seed + 350, max_dim=2)
        zvecs = [vectorize(f.theta, d.elements, rw.dim, rq.dim)
                 for f in cocycle_space(rq, rw)]
        for t in hom_rho(rq, rw):
            fam = coboundary(t, rq, rw)   # verifies the identities itself
            bv = vectorize(fam.theta, d.elements, rw.dim, rq.dim)
            assert len(span_basis(zvecs + [bv])) == len(span_basis(zvecs))


def test_ext1_dim_on_the_demo_and_degenerate_cases():
    s, w, q = demo_parts()
    res = ext1_dim(q, w)
    assert (res.dim_Z, res.dim_B, res.dim_ext) == (2, 1, 1)
    assert len(res.class_basis) == 1

    # trivial digroup, one-dimensional idempotent left action
    c1 = FiniteGroup.cyclic(1)
    d1 = Digroup(c1, GAction.trivial(c1, 1))
    one = {(0, 0): Matrix.identity(QQ, 1)}
    triv = require_valid(Representation(d1, 1, dict(one), dict(one)))
    res1 = ext1_dim(triv, triv)
    assert res1.dim_ext == 0

    zero = require_valid(Representation(d1, 0,
                                        {(0, 0): Matrix(QQ, 0, 0, [])},
                                        {(0, 0): Matrix(QQ, 0, 0, [])}))
    assert ext1_dim(triv, zero).dim_ext == 0
    assert ext1_dim(zero, triv).dim_ext == 0


def test_ext1_matches_the_sympy_oracle():
    for seed in range(8):
        d, rq, rw = sample_pair(seed + 400, max_dim=2,
                                group_names=("C1", "C2", "C3"))
        assert ext1_dim(rq, rw).dim_ext == ext1_dim_oracle(rq, rw)


def test_extension_round_trip_recovers_the_cocycle_exactly():
    for seed in range(6):
        d, rq, rw = sample_pair(seed + 450, max_dim=2)
        for fam in cocycle_space(rq, rw):
            s = extension_from_cocycle(fam, rq, rw)
            # the canonical coordinate section of the block model is already
            # rho-equivariant, so decomposition returns theta on the nose
            sec = average_section(s)
            back = block_decompose(s, sec)
            assert back.theta == fam.theta


def test_verified_registry_lets_no_corrupted_cocycle_through():
    s, w, q = demo_parts()
    assert ext1_dim(q, w).dim_ext == 1   # registers the Z^1 families
    fam = cocycle_space(q, w)[0]
    good = extension_from_cocycle(fam, q, w)
    x = (1, 1)
    m = fam.theta[x]
    bumped = Matrix(m.field, m.rows, m.cols,
                    (m.entries[0] + QQ.of(1),) + m.entries[1:])
    bad = dict(fam.theta)
    bad[x] = bumped
    assert not check_cocycle(bad, q, w).ok
    with pytest.raises(RepresentationError, match="cocycle identities fail"):
        extension_from_cocycle(bad, q, w)
    # the same corruption inside an unvalidated extension reaches is_split,
    # which refuses V by its view: (1, 1) is not a generator
    k = w.dim
    lam = dict(good.V.lam)
    lm = lam[x]
    lam[x] = Matrix(lm.field, lm.rows, lm.cols,
                    [lm[i, j] + QQ.of(1) if (i, j) == (0, k) else lm[i, j]
                     for i in range(lm.rows) for j in range(lm.cols)])
    V = Representation(good.V.digroup, good.V.dim, lam, good.V.rho)
    corrupted = ShortExactSeq(w, V, q, good.iota, good.pi)
    with pytest.raises(RepresentationError, match="lam factorization fails"):
        is_split(corrupted)


def test_extension_from_coboundary_splits():
    s, w, q = demo_parts()
    t = Matrix.from_rows(QQ, [[1]])
    fam = coboundary(t, q, w)
    built = extension_from_cocycle(fam, q, w)
    flag, witness = is_split(built)
    assert flag
    for x in built.V.digroup.elements:
        assert built.V.lam[x] * witness == witness * built.Q.lam[x]
        assert built.V.rho[x] * witness == witness * built.Q.rho[x]


def test_is_split_on_demo_and_direct_sum():
    s, w, q = demo_parts()
    flag, certificate = is_split(s)
    assert not flag
    assert isinstance(certificate, CocycleFamily)
    assert not all(m.is_zero() for m in certificate.theta.values())

    v = direct_sum(w, q)
    require_valid(v)
    iota = Matrix(QQ, 2, 1, [QQ.of(1), QQ.of(0)])
    pi = Matrix(QQ, 1, 2, [QQ.of(0), QQ.of(1)])
    flag, witness = is_split(short_exact(w, v, q, iota, pi))
    assert flag


def test_change_of_splitting_identity():
    s, w, q = demo_parts()
    assert change_of_splitting_check(s, Matrix.from_rows(QQ, [[1]]))
    assert change_of_splitting_check(s, Matrix.zeros(QQ, 1, 1))
    for seed in range(5):
        d, rq, rw = sample_pair(seed + 650, max_dim=2)
        for fam in cocycle_space(rq, rw)[:2]:
            built = extension_from_cocycle(fam, rq, rw)
            for t in hom_rho(rq, rw)[:2]:
                assert change_of_splitting_check(built, t)


def test_two_starting_sections_give_cohomologous_cocycles():
    for seed in range(5):
        d, rq, rw = sample_pair(seed + 700, max_dim=2)
        fams = cocycle_space(rq, rw)
        if not fams:
            continue
        s = extension_from_cocycle(fams[0], rq, rw)
        s0 = solve(s.pi, Matrix.identity(QQ, s.Q.dim))
        # a second linear section: shift by an arbitrary map through iota
        shift = Matrix.from_rows(QQ, [[1 + i + j for j in range(s.Q.dim)]
                                      for i in range(s.W.dim)])
        s1 = s0 + s.iota * shift
        assert s.pi * s1 == Matrix.identity(QQ, s.Q.dim)
        f0 = block_decompose(s, average_section(s, s0))
        f1 = block_decompose(s, average_section(s, s1))
        diff = f0 - f1
        bvecs = coboundary_space(rq, rw)
        dv = vectorize(diff.theta, d.elements, rw.dim, rq.dim)
        if bvecs:
            assert solve(hstack(bvecs), dv) is not None
        else:
            assert dv.is_zero()


def test_semisimplicity_probe():
    s, w, q = demo_parts()
    report = semisimplicity_probe([w, q])
    assert report["pairs_checked"] == 4
    assert not report["semisimple"]
    assert any(f["dim_ext"] == 1 for f in report["findings"])

    assert semisimplicity_probe([])["semisimple"]

    c1 = FiniteGroup.cyclic(1)
    d1 = Digroup(c1, GAction.trivial(c1, 1))
    one = {(0, 0): Matrix.identity(QQ, 1)}
    triv = require_valid(Representation(d1, 1, dict(one), dict(one)))
    assert semisimplicity_probe([triv])["semisimple"]


def test_a_wrong_splitting_witness_raises(monkeypatch):
    from digrep import ext
    s = demo_ses()
    with pytest.raises(RepresentationError, match="not a section"):
        block_decompose(s, Matrix.zeros(QQ, s.V.dim, s.Q.dim))
    # a sequence that splits, with a t that is not a homomorphism Q -> W
    _, q, w = sample_pair(1000)
    split = extension_from_cocycle(cocycle_space(q, w)[0], q, w)
    assert is_split(split)[0]
    monkeypatch.setattr(ext, "_splitting_maps", with_a_non_hom_unit(ext._splitting_maps))
    with pytest.raises(RepresentationError, match="the witness is not a morphism"):
        is_split(split)


def test_a_pair_over_two_fields_raises():
    # the integer images of Q and GF(7) do not mix: every solver refuses
    # the pair instead of returning an answer for neither field
    d = demo_digroup()

    def answers(a, b):
        return [len(hom_rep(a, b)), len(hom_rho(a, b)),
                len(hom_BE(to_semilinear(a), to_semilinear(b))),
                len(cocycle_space(a, b)), ext1_dim(a, b).dim_ext]

    # seeds -> the answers on (q, w) and on (w, q), over either field alone
    expected = {(5, 6): ([0, 0, 2, 0, 0], [0, 0, 2, 0, 0]),
                (1, 2): ([0, 2, 2, 4, 2], [0, 2, 2, 2, 0])}
    for (sq, sw), (forward, backward) in expected.items():
        for field in (QQ, PrimeField(7)):
            q = random_representation(d, 2, seeded_rng(sq), field)
            w = random_representation(d, 2, seeded_rng(sw), field)
            assert (answers(q, w), answers(w, q)) == (forward, backward)
        q = random_representation(d, 2, seeded_rng(sq))
        w = random_representation(d, 2, seeded_rng(sw), PrimeField(7))
        for a, b in ((q, w), (w, q)):
            for solve_pair in (hom_rep, hom_rho, cocycle_space, ext1_dim,
                               lambda x, y: hom_BE(to_semilinear(x), to_semilinear(y))):
                with pytest.raises(FieldMismatchError):
                    solve_pair(a, b)


def without_coboundaries(engine):
    """engine (linalg.ext_classes) with every coboundary direction taken out of Z.

    One more Z equation per pivot of the canonical B basis sets that
    coordinate to zero, which cuts Z down to a complement of B in Z: a
    vector of B vanishing at every pivot of B is zero.
    """
    def unit(field, n, i):
        return Matrix.from_rows(field, [[field.of(int(r == c == i)) for c in range(n)]
                                        for r in range(n)])

    def faulty(nblocks, h, w, z_equations, coboundaries, field):
        b = span_basis(coboundaries)
        assert b
        cut = []
        for v in b:
            k = next(k for k in range(v.rows) if v[k, 0])
            i, j = divmod(k % (h * w), w)
            cut.append([(1, unit(field, h, i), k // (h * w), unit(field, w, j))])
        return engine(nblocks, h, w, list(z_equations) + cut, coboundaries, field)
    return faulty


def test_a_coboundary_outside_the_verified_cocycle_basis_is_refused(
        monkeypatch, tmp_path, capsys):
    from digrep import ext
    from digrep.cli import main
    # the Z^1 basis with every coboundary direction taken out
    monkeypatch.setattr(ext, "ext_classes", without_coboundaries(ext.ext_classes))
    _, w, q = demo_parts()   # a fresh pair, dim B = 1
    with pytest.raises(RepresentationError, match="coboundary"):
        ext1_dim(q, w)
    with pytest.raises(RepresentationError, match="coboundary"):
        is_split(demo_ses())
    assert main(["example", "nonsplit", "--out", str(tmp_path)]) == 0
    rep = str(tmp_path / "nonsplit_representation.json")
    capsys.readouterr()
    assert main(["ext1", rep, rep]) == 1
    assert "coboundary" in capsys.readouterr().err


def with_a_non_kernel_vector(kernel):
    """kernel (linalg.sparse_kernel) with one more vector when ext_classes
    calls it: the unit vector of the first column a row constrains, which
    that row does not annihilate."""
    def faulty(ncols, rows, field):
        basis = kernel(ncols, rows, field)
        c = next((c for row in rows for c, x in sorted(row.items()) if field.of(x)), None)
        if sys._getframe(1).f_code.co_name != "ext_classes" or c is None:
            return basis
        return basis + [Matrix.from_rows(field, [[int(i == c)] for i in range(ncols)])]
    return faulty


@pytest.mark.parametrize("model", ["envalg", "halo", "kernel"])
def test_a_coboundary_outside_z_is_refused_by_every_model(model, monkeypatch, tmp_path,
                                                          capsys):
    # derivation_ext1 (inner derivations outside the derivations) and ext1_BE
    # (B outside the eta space) refuse the same fault as the cocycle model;
    # a kernel solve that returns a vector outside the kernel is refused by
    # the residual of linalg.ext_classes in all three models
    import importlib
    from digrep import linalg
    from digrep.cli import main
    from digrep.envalg import build_enveloping_algebra, derivation_ext1, rep_to_module
    from digrep.halo import ext1_BE
    _, w, q = demo_parts()
    if model == "kernel":
        q = w = demo_representation()   # Z is a proper subspace in all three models
    alg = build_enveloping_algebra(q.digroup)
    solves = {
        "cocycle": lambda: ext1_dim(q, w),
        "envalg": lambda: derivation_ext1(alg, rep_to_module(q, alg), rep_to_module(w, alg)),
        "halo": lambda: ext1_BE(to_semilinear(q), to_semilinear(w)),
    }
    if model == "kernel":
        monkeypatch.setattr(linalg, "sparse_kernel",
                            with_a_non_kernel_vector(linalg.sparse_kernel))
        refused, message = (RepresentationError, SubspaceError), "does not solve"
    else:
        module = importlib.import_module("digrep." + model)
        monkeypatch.setattr(module, "ext_classes", without_coboundaries(module.ext_classes))
        solves = {model: solves[model]}
        refused, message = SubspaceError, "outside"
    for solve in solves.values():
        with pytest.raises(refused):
            solve()
    assert main(["example", "nonsplit", "--out", str(tmp_path)]) == 0
    rep = str(tmp_path / "nonsplit_representation.json")
    capsys.readouterr()
    assert main(["ext1", rep, rep]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_the_bar_unit_solve_matches_the_full_family_layout(field):
    """ext1_dim, coboundary_space and is_split on every 8th corpus pair equal
    the former solve on families over every element (_oracles); is_split
    runs on the extensions of the class basis and of two Z^1 families."""
    flags = []
    for seed in range(1000, 1200, 8):
        _, q, w = sample_pair(seed, field=field)
        dim_z, dim_b, classes, bvecs, split = full_family_ext1(q, w)
        res = ext1_dim(q, w)
        assert (res.dim_Z, res.dim_B, res.dim_ext) == (dim_z, dim_b, len(classes)), seed
        assert [f.theta for f in res.class_basis] == classes, seed
        assert coboundary_space(q, w) == bvecs, seed
        for fam in res.class_basis + cocycle_space(q, w)[:2]:
            s = extension_from_cocycle(fam, q, w)
            flag, payload = is_split(s)
            assert (flag, payload if flag else payload.theta) == split(s), seed
            flags.append(flag)
    assert flags.count(True) >= 3 and flags.count(False) >= 3, flags


@pytest.mark.parametrize("field", (QQ, PrimeField(7), PrimeField(3)), ids=repr)
def test_is_split_with_a_zero_end_matches_the_full_family_layout(field):
    """is_split on 0 -> 0 -> r -> r -> 0 and 0 -> r -> r -> 0 -> 0
    (sub_quotient on the whole space and on the empty basis) for both
    members of every 8th corpus pair, against the former is_split
    (_oracles) where it averages.  With W = 0 nothing is averaged, so
    where p divides |G| is_split returns the linear section pi^-1 and
    raises no MaschkeError."""
    maschke_fails = 0
    for seed in range(1000, 1200, 8):
        _, q, w = sample_pair(seed, field=field)
        for r in (q, w):
            ident = Matrix.identity(field, r.dim)
            for basis in ([], [ident.col_vector(c) for c in range(r.dim)]):
                W, Q, iota, pi = sub_quotient(r, basis)
                s = short_exact(W, r, Q, iota, pi)
                flag, payload = is_split(s)
                assert flag, seed
                if field.char and r.digroup.group.order % field.char == 0:
                    maschke_fails += 1
                    assert payload == (solve(pi, Matrix.identity(field, Q.dim)) if Q.dim
                                       else Matrix(field, r.dim, 0, [])), seed
                else:
                    assert (flag, payload) == full_family_ext1(Q, W)[4](s), seed
    assert (maschke_fails > 0) == (field.char == 3)


def test_is_split_refuses_a_pi_without_section_when_w_is_zero():
    # a ShortExactSeq built without short_exact, whose pi (scaled by 0)
    # has no section: with W = 0 is_split solves for a linear section
    # itself, and refuses the sequence as average_section does when W != 0
    for field in (QQ, PrimeField(7)):
        _, q, w = sample_pair(1000, field=field)
        zero = field.of(0)
        W, Q, iota, pi = sub_quotient(q, [])
        with pytest.raises(RepresentationError, match="pi admits no linear section"):
            is_split(ShortExactSeq(W, q, Q, iota, pi.scale(zero)))
        v, ident = direct_sum(w, q), Matrix.identity(field, w.dim + q.dim)
        W, Q, iota, pi = sub_quotient(v, [ident.col_vector(c) for c in range(w.dim)])
        with pytest.raises(RepresentationError, match="pi admits no linear section"):
            is_split(ShortExactSeq(W, v, Q, iota, pi.scale(zero)))


def splitting_cases(s):
    """(label, sequence, shift) for an extension s and seeded corruptions of
    it; the section is the averaged one, plus iota shift when shift is given.
    The corruptions: a shift that is not a rho-intertwiner, V.lam changed
    at an (g, a) with g != 1 and V.rho at a g outside S_G and 1 (neither a
    generator of V), and iota of rank dim W - 1."""
    field, k, group = s.V.field, s.W.dim, s.V.digroup.group
    yield "extension", s, None
    yield "shifted", s, Matrix.from_rows(field, [[1 + i + 2 * j for j in range(s.Q.dim)]
                                                 for i in range(k)])
    gens = {group.identity, *group.generators()}
    for label, outside in (("lam", {group.identity}), ("rho", gens)):
        for (g, _a), bad in corrupted_tables(getattr(s.V, label)):
            if g not in outside:
                V = replace(s.V, **{label: bad})
                yield label, ShortExactSeq(s.W, V, s.Q, s.iota, s.pi), None
    drop = Matrix.from_rows(field, [[int(i == j != 0) for j in range(k)] for i in range(k)])
    yield "iota", ShortExactSeq(s.W, s.V, s.Q, s.iota * drop, s.pi), None


def split_or_refuse(average, decompose, s, shift):
    """The theta of decompose on the averaged section (shifted by iota
    shift), or None when either step raises RepresentationError."""
    try:
        sec = average(s)
        return decompose(s, sec if shift is None else sec + s.iota * shift).theta
    except RepresentationError:
        return None


@pytest.mark.parametrize("field", (QQ, PrimeField(5), PrimeField(7)), ids=repr)
def test_splitting_on_generators_decides_like_the_element_scan(field):
    """average_section and block_decompose, which read the m + |S_G|
    generators of V, against the former scans of every element
    (_oracles.exhaustive_*): on the extension of every class and every
    coboundary of corpus and induced pairs, and on seeded corruptions of
    each, both refuse or both return the same theta."""
    pairs = [sample_pair(seed, field=field)[1:] for seed in range(1000, 1200, 10)]
    for i, name in enumerate(("C2", "C3", "C6", "S3")):
        _, lift, w = induced_pair(7400 + i, field, (name,))
        pairs += [(lift, w), (w, lift)]
    outcomes = Counter()
    for q, w in pairs:
        thetas = [f.theta for f in ext1_dim(q, w).class_basis]
        thetas += [coboundary(t, q, w).theta for t in hom_rho(q, w)]
        for theta in thetas:
            for label, s, shift in splitting_cases(extension_from_cocycle(theta, q, w)):
                got = split_or_refuse(average_section, block_decompose, s, shift)
                assert got == split_or_refuse(exhaustive_average_section,
                                              exhaustive_block_decompose, s, shift), label
                if label == "extension":
                    assert got == theta
                outcomes[label, got is None] += 1
    assert all(outcomes[label, True] >= 5 for label in ("shifted", "lam", "rho", "iota")), \
        outcomes


def test_ext1_dim_scans_only_the_cocycle_basis(monkeypatch):
    # the coboundaries are certified by span inclusion in the verified Z^1,
    # not by an exhaustive scan of each coboundary family
    from digrep import ext
    scans = []
    check = ext.check_cocycle
    monkeypatch.setattr(ext, "check_cocycle",
                        lambda theta, Q, W: scans.append(1) or check(theta, Q, W))
    _, w, q = demo_parts()
    pairs = [(q, w)] + [sample_pair(seed)[1:] for seed in range(1000, 1010)]
    for q, w in pairs:   # fresh objects, so nothing is in the registry yet
        scans.clear()
        res = ext1_dim(q, w)
        assert len(scans) <= res.dim_Z
    assert ext1_dim(*pairs[0]).dim_B == 1


@pytest.mark.parametrize("field", (QQ, PrimeField(7), PrimeField(2), PrimeField(3)), ids=repr)
def test_every_cocycle_space_family_passes_the_exhaustive_check(field):
    """The Z^1 basis is registered without a scan (_ext1); each family still
    passes check_cocycle, on corpus pairs, induced pairs and their direct
    sums, also where the characteristic divides |G|."""
    pairs = [sample_pair(seed, field=field)[1:] for seed in range(1000, 1200, 10)]
    for i, name in enumerate(("C2", "C3", "C6", "S3")):
        _, lift, w = induced_pair(7200 + i, field, (name,))
        both = direct_sum(lift, w)
        pairs += [(lift, w), (w, lift), (both, lift), (w, both)]
    families = 0
    for q, w in pairs:
        for fam in cocycle_space(q, w):
            assert check_cocycle(fam.theta, q, w).ok
            families += 1
    assert families >= 40


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_cocycle_check_on_generators_decides_like_check_cocycle(field):
    # Z^1 families and coboundaries of corpus and induced pairs over C1,
    # cyclic groups and S3, each value changed one element at a time
    pairs = [sample_pair(seed, field=field)[1:] for seed in range(1000, 1040, 4)]
    for i, name in enumerate(("C1", "C2", "C3", "C6", "S3")):
        _, lift, w = induced_pair(7300 + i, field, (name,))
        pairs += [(lift, w), (w, lift)]
    refused = 0
    for q, w in pairs:
        families = [f.theta for f in cocycle_space(q, w)[:2]]
        families += [coboundary(t, q, w).theta for t in hom_rho(q, w)[:1]]
        for theta in families:
            assert check_cocycle_on_generators(theta, q, w).ok
            for x, bad in corrupted_tables(theta):
                ok = check_cocycle(bad, q, w).ok
                assert check_cocycle_on_generators(bad, q, w).ok == ok, x
                refused += not ok
    assert refused >= 50


def split_outcome(split):
    """(flag, witness or certificate theta) of split(), or the type of the
    error it raises."""
    try:
        flag, payload = split()
    except (RepresentationError, MaschkeError) as err:
        return type(err)
    return flag, payload if flag else payload.theta


@pytest.mark.parametrize("field", (QQ, PrimeField(5), PrimeField(7)), ids=repr)
def test_split_cocycle_decides_like_is_split_on_the_built_extension(field):
    """_split_cocycles, which never builds V, against is_split on the
    extension_from_cocycle sequence: every Z^1 basis family and every class
    family of every 5th corpus seed, of induced pairs and of pairs with a
    dimension-0 side (their zero family) give the same flag, the same
    witness and the same certificate, one family at a time and all of a
    pair's families in one call."""
    from digrep.ext import _split_cocycles
    pairs = [sample_pair(seed, field=field)[1:] for seed in range(1000, 1200, 5)]
    for i, name in enumerate(("C1", "C2", "C3", "C6", "S3")):
        _, lift, w = induced_pair(7500 + i, field, (name,))
        pairs += [(lift, w), (w, lift)]
    q = pairs[0][0]
    zero = random_representation(q.digroup, 0, seeded_rng(1), field)
    pairs += [(q, zero), (zero, q), (zero, zero)]
    flags = Counter()
    for q, w in pairs:
        thetas = [f.theta for f in cocycle_space(q, w) + ext1_dim(q, w).class_basis]
        if 0 in (q.dim, w.dim):
            thetas.append({x: Matrix.zeros(field, w.dim, q.dim) for x in q.digroup.elements})
        singles = []
        for theta in thetas:
            got = split_outcome(lambda: _split_cocycles([theta], q, w)[0])
            assert got == split_outcome(lambda: is_split(extension_from_cocycle(theta, q, w)))
            flags[got[0]] += 1
            singles.append(got)
        assert [split_outcome(lambda: r) for r in _split_cocycles(thetas, q, w)] == singles
    assert flags[True] >= 40 and flags[False] >= 40, flags


def test_split_cocycle_refuses_like_is_split_where_maschke_fails():
    from digrep.ext import _split_cocycles
    _, q, w = sample_pair(1000, field=PrimeField(3))   # |G| = 6
    fam = cocycle_space(q, w)[0]
    assert split_outcome(lambda: _split_cocycles([fam], q, w)[0]) is MaschkeError
    assert split_outcome(lambda: is_split(extension_from_cocycle(fam, q, w))) is MaschkeError


def test_split_cocycle_refuses_a_family_changed_off_the_bar_units():
    from digrep.ext import _split_cocycles
    _, q, w = sample_pair(1000)
    fam = cocycle_space(q, w)[0]
    refused = 0
    for (g, _a), bad in corrupted_tables(fam.theta):
        if g != q.digroup.group.identity:
            with pytest.raises(RepresentationError, match="cocycle identities fail"):
                _split_cocycles([bad], q, w)
            refused += 1
    assert refused >= 10


def with_a_non_hom_unit(helper):
    """helper, with each t shifted by the first matrix unit that is not a
    homomorphism Q -> W."""
    from digrep.reps import _generators

    def faulty(etas, Q, W, field):
        units = (Matrix.from_rows(field, [[int((r, c) == (i, j)) for c in range(Q.dim)]
                                          for r in range(W.dim)])
                 for i in range(W.dim) for j in range(Q.dim))
        unit = next(e for e in units if any(x * e != e * y for _, x, y in _generators(W, Q)))
        return [None if t is None else t + unit for t in helper(etas, Q, W, field)]
    return faulty


def test_a_wrong_splitting_map_is_refused_by_collapse(monkeypatch, tmp_path, capsys):
    from digrep import ext
    from digrep.cli import main
    from digrep.halo import verify_collapse
    from digrep.serialize import rep_to_json, save_path
    _, q, w = sample_pair(1000)
    res = ext1_dim(q, w)
    assert res.dim_ext == 0 < res.dim_Z
    monkeypatch.setattr(ext, "_splitting_maps", with_a_non_hom_unit(ext._splitting_maps))
    with pytest.raises(RepresentationError, match="the witness is not a morphism"):
        ext._split_cocycles(cocycle_space(q, w)[:1], q, w)
    with pytest.raises(RepresentationError, match="the witness is not a morphism"):
        verify_collapse(q, w)
    paths = [str(tmp_path / name) for name in ("q.json", "w.json")]
    for path, r in zip(paths, (q, w)):
        save_path(path, rep_to_json(r))
    assert main(["collapse", *paths]) == 1
    assert "the witness is not a morphism" in capsys.readouterr().err


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_check_cocycle_reports_like_the_former_scan(field):
    # every Z^1 basis family and each of its entries perturbed in turn:
    # the shared pair scan reports like the former scan per identity
    failed = set()
    pairs = [sample_pair(seed, field=field) for seed in range(1000, 1200, 8)]
    pairs += [induced_pair(7500 + i, field, (name,)) for i, name in enumerate(("C3", "S3"))]
    for _, q, w in pairs:
        for fam in cocycle_space(q, w)[:2]:
            for theta in [fam.theta] + [bad for _, bad in corrupted_tables(fam.theta)]:
                report = check_cocycle(theta, q, w)
                assert report.results == former_check_cocycle(theta, q, w).results
                failed.update(report.failures())
    assert failed == {"Z1a", "Z1b", "Z1c"}


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_the_band_law_on_spokes_solves_like_every_pair(field):
    # Z1a and the band model's Z written on the spoke pairs of band_spokes
    # have the kernel of the system written on every pair of halo indices
    from digrep.halo import ext1_BE
    from digrep.linalg import block_kernel
    from digrep.reps import band_spokes, lambda_factorization, rho_group_form

    pairs = [sample_pair(seed, field=field) for seed in range(1000, 1200, 8)]
    pairs += [induced_pair(7500 + i, field, (name,)) for i, name in enumerate(("C3", "S3"))]
    halos = set()
    for d, q, w in pairs:
        m, halos = d.halo_size, halos | {d.halo_size}
        lw, lq = lambda_factorization(w), lambda_factorization(q)

        def z1a(ab):
            return [[(1, lw[a], b, None), (1, None, a, lq[b]), (-1, None, a, None)]
                    for a, b in ab]

        every = [(a, b) for a in range(m) for b in range(m)]
        spokes = band_spokes(m)
        assert len(spokes) == (1 if m == 1 else 2 * (m - 1))
        z = block_kernel(m, w.dim, q.dim, z1a(every), field)
        assert block_kernel(m, w.dim, q.dim, z1a(spokes), field) == z
        z1b = [[(1, rho_group_form(w)[s], a, None),
                (-1, None, d.action.apply(s, a), rho_group_form(q)[s])]
               for s in d.group.generators() for a in range(m)]
        families = block_kernel(m, w.dim, q.dim, z1a(every) + z1b, field)
        assert [vectorize({(d.group.identity, a): f.theta[(d.group.identity, a)]
                           for a in range(m)}, d.halo(), w.dim, q.dim)
                for f in cocycle_space(q, w)] == families
        assert ext1_BE(to_semilinear(q), to_semilinear(w)).dim_Z == len(z)
    assert halos == {1, 2, 3}
