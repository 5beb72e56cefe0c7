import pytest

from digrep import (Matrix, QQ, build_enveloping_algebra, build_halo_algebra,
                    check_relations, demo_digroup, demo_representation,
                    demo_subspace_basis, derivation_ext1, module_to_rep,
                    rep_to_module, require_valid, sub_quotient,
                    tau_automorphism)
from digrep.envalg import AlgebraError, FDAlgebra, check_module
from digrep.digroup import Digroup, FiniteGroup, GAction, all_actions

from _instances import sample_pair
from _oracles import ext1_dim_oracle


def test_enveloping_algebra_dimension_and_unit():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    assert a.dim == d.group.order * (1 + d.halo_size)
    assert a.unit == a.basis_vector(a.index(("R", 0)))
    one = a.basis_vector(a.index(("M", 1, 1)))
    assert a.multiply(a.unit, one) == one


def test_enveloping_product_rules():
    s3 = FiniteGroup.symmetric3()
    act = all_actions(s3, 2)[1]
    d = Digroup(act.group, act)
    a = build_enveloping_algebra(d)

    def bv(label):
        return a.basis_vector(a.index(label))

    for g in range(6):
        for h in range(6):
            gh = s3.mul[g][h]
            assert a.multiply(bv(("R", g)), bv(("R", h))) == bv(("R", gh))
            for al in range(2):
                assert a.multiply(bv(("R", g)), bv(("M", al, h))) \
                    == bv(("M", act.apply(g, al), gh))
                assert a.multiply(bv(("M", al, g)), bv(("R", h))) \
                    == bv(("M", al, gh))
                for be in range(2):
                    assert a.multiply(bv(("M", al, g)), bv(("M", be, h))) \
                        == bv(("M", al, gh))


def test_associativity_checker_catches_corruption():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    structure = [list(row) for row in a.structure]
    i = a.index(("M", 0, 1))
    j = a.index(("R", 1))
    structure[i][j] = a.basis_vector(a.index(("R", 0)))
    bad = FDAlgebra(a.field, a.basis_labels, tuple(tuple(r) for r in structure),
                    a.unit)
    with pytest.raises(AlgebraError):
        bad.check()


def test_defining_relations_hold_on_embedded_elements():
    for g in (FiniteGroup.cyclic(3), FiniteGroup.symmetric3()):
        for m in (1, 2):
            for act in all_actions(g, m)[:3]:
                d = Digroup(act.group, act)
                a = build_enveloping_algebra(d)
                report = check_relations(a, d)
                assert report.ok, report.failures()


def test_rep_module_round_trip_is_exact():
    for seed in range(12):
        d, q, w = sample_pair(seed + 100)
        a = build_enveloping_algebra(d)
        for r in (q, w):
            back = module_to_rep(rep_to_module(r, a), d)
            assert back.lam == r.lam
            assert back.rho == r.rho


def test_module_structure_checker_rejects_bad_actions():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    r = demo_representation(d)
    mod = rep_to_module(r, a)
    action = list(mod.action)
    action[a.index(("R", 1))] = Matrix.identity(QQ, 2).scale(QQ.of(2))
    from digrep.envalg import AlgebraModule
    with pytest.raises(AlgebraError):
        check_module(AlgebraModule(a, 2, tuple(action)))


def test_rep_to_module_checks_once_and_corrupted_modules_still_raise(monkeypatch):
    from digrep import envalg
    from digrep.envalg import AlgebraModule
    checked = []
    full_check = envalg.check_module
    monkeypatch.setattr(envalg, "check_module",
                        lambda m: checked.append(m) or full_check(m))
    for seed in range(4):
        d, q, _ = sample_pair(seed + 300)
        a = build_enveloping_algebra(d)
        mod = rep_to_module(q, a)
        assert rep_to_module(q, a) is mod and rep_to_module(q) is mod
        assert checked.count(mod) == 1
        # one corrupted action matrix in a hand-built module is still caught,
        # both by a direct check and on the way back to a representation
        for k in range(a.dim):
            action = list(mod.action)
            action[k] = action[k] + Matrix.identity(q.field, q.dim)
            bad = AlgebraModule(a, q.dim, tuple(action))
            with pytest.raises(AlgebraError):
                check_module(bad)
            with pytest.raises(AlgebraError):
                module_to_rep(bad, d)


def test_derivation_ext1_on_the_demo():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    v = demo_representation(d)
    w, q, _, _ = sub_quotient(v, demo_subspace_basis())
    require_valid(w)
    require_valid(q)
    dim, fams = derivation_ext1(a, rep_to_module(q, a), rep_to_module(w, a))
    assert dim == 1
    assert len(fams) == 1
    # each representative satisfies the derivation rule on products
    for fam in fams:
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = Matrix.zeros(QQ, w.dim, q.dim)
                for k, c in enumerate(a.structure[i][j]):
                    if c:
                        lhs = lhs + fam[k].scale(c)
                mw = rep_to_module(w, a).action[i]
                mq = rep_to_module(q, a).action[j]
                assert lhs == mw * fam[j] + fam[i] * mq


def test_derivation_ext1_matches_the_sympy_oracle():
    for seed in range(8):
        d, q, w = sample_pair(seed + 40, max_dim=2,
                              group_names=("C1", "C2", "C3"))
        a = build_enveloping_algebra(d)
        dim, _ = derivation_ext1(a, rep_to_module(q, a), rep_to_module(w, a))
        assert dim == ext1_dim_oracle(q, w)


def test_halo_algebra_products():
    b = build_halo_algebra(3)
    assert b.dim == 4
    for al in range(3):
        ea = b.basis_vector(b.index(("eps", al)))
        for be in range(3):
            eb = b.basis_vector(b.index(("eps", be)))
            assert b.multiply(ea, eb) == ea
        assert b.multiply(b.unit, ea) == ea


def test_tau_automorphism_is_an_algebra_map():
    c3 = FiniteGroup.cyclic(3)
    act = GAction(c3, 3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    b = build_halo_algebra(3)
    for g in range(3):
        for h in range(3):
            tg = tau_automorphism(g, act)
            th = tau_automorphism(h, act)
            assert tg * th == tau_automorphism(c3.mul[g][h], act)
    # tau respects the band product
    for g in range(3):
        tg = tau_automorphism(g, act)
        for al in range(3):
            ea = Matrix.column(QQ, [0] + [1 if i == al else 0 for i in range(3)])
            img = tg * ea
            target = b.basis_vector(b.index(("eps", act.apply(g, al))))
            assert tuple(img.flat()) == target
