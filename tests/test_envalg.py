from dataclasses import replace

import pytest

from digrep import (Matrix, PrimeField, QQ, build_enveloping_algebra,
                    build_halo_algebra, check_relations, demo_digroup,
                    demo_representation, demo_subspace_basis, derivation_ext1,
                    module_to_rep, random_representation, rep_to_module,
                    require_valid, seeded_rng, sub_quotient, tau_automorphism)
from digrep import envalg, linalg
from digrep.envalg import (AlgebraError, AlgebraModule, FDAlgebra, check_module,
                           check_module_on_generators)
from digrep.linalg import SubspaceError
from digrep.digroup import (Digroup, FiniteGroup, GAction, all_actions,
                            table_generators)

from _instances import GROUPS, corrupted_tables, induced_pair, sample_digroup, sample_pair
from _oracles import (ext1_dim_oracle, flat, former_algebra_check, former_check_relations,
                      former_derivation_ext1, former_presentation, former_table_generators,
                      full_table_derivation_ext1, outcome)


def test_enveloping_algebra_dimension_and_unit():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    assert a.dim == d.group.order * (1 + d.halo_size)
    assert a.unit == a.index(("R", 0))
    one = a.index(("M", 1, 1))
    assert a.product[a.unit][one] == one == a.product[one][a.unit]


def test_enveloping_product_rules():
    s3 = FiniteGroup.symmetric3()
    act = all_actions(s3, 2)[1]
    d = Digroup(act.group, act)
    a = build_enveloping_algebra(d)
    bv = a.index

    def mul(x, y):
        return a.product[bv(x)][bv(y)]

    for g in range(6):
        for h in range(6):
            gh = s3.mul[g][h]
            assert mul(("R", g), ("R", h)) == bv(("R", gh))
            for al in range(2):
                assert mul(("R", g), ("M", al, h)) \
                    == bv(("M", act.apply(g, al), gh))
                assert mul(("M", al, g), ("R", h)) == bv(("M", al, gh))
                for be in range(2):
                    assert mul(("M", al, g), ("M", be, h)) == bv(("M", al, gh))


def test_associativity_checker_catches_corruption():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    product = [list(row) for row in a.product]
    i = a.index(("M", 0, 1))
    j = a.index(("R", 1))
    product[i][j] = a.index(("R", 0))
    bad = FDAlgebra(a.field, a.basis_labels, tuple(tuple(r) for r in product),
                    a.unit)
    with pytest.raises(AlgebraError):
        bad.check()


def _with_table(a, edits):
    """a with some product entries replaced: edits maps (i, j) to k."""
    product = [list(row) for row in a.product]
    for (i, j), k in edits.items():
        product[i][j] = k
    return replace(a, product=tuple(tuple(r) for r in product))


def _both_algebras():
    d = demo_digroup()
    return build_enveloping_algebra(d), build_halo_algebra(2)


def test_table_check_rejects_malformed_tables_over_both_algebras():
    for a in _both_algebras():
        n = a.dim
        assert a.check()
        product = [list(row) for row in a.product]
        ragged = product[:-1] + [product[-1][:-1]]
        for rows in (ragged, product[:-1], product + [list(range(n))]):
            with pytest.raises(AlgebraError, match="not %d x %d" % (n, n)):
                replace(a, product=rows).check()
        for k in (n, -1, True, 1.0, None):
            with pytest.raises(AlgebraError, match="outside range"):
                _with_table(a, {(n - 1, n - 1): k}).check()
            with pytest.raises(AlgebraError, match="outside range"):
                replace(a, unit=k).check()


def test_table_check_rejects_a_wrong_unit_on_either_side():
    for a in _both_algebras():
        u = a.unit
        other = next(i for i in range(a.dim) if i != u)
        with pytest.raises(AlgebraError, match="unit fails"):
            replace(a, unit=other).check()
        # the unit row alone, then the unit column alone, is corrupted
        for edit in ({(u, other): u}, {(other, u): u}):
            with pytest.raises(AlgebraError, match="unit fails"):
                _with_table(a, edit).check()


def test_associativity_scan_reaches_the_last_index_in_each_slot():
    # one-entry and two-entry corruptions of the band algebra on {1, eps_0,
    # eps_1} whose only failing triples (i, j, k) have i, j or k = eps_1
    b = build_halo_algebra(2)
    for edits in ({(2, 1): 0},                 # fails only at i = 2
                  {(1, 2): 2, (2, 2): 0},      # fails only at j = 2
                  {(2, 2): 1}):                # fails only at k = 2
        with pytest.raises(AlgebraError, match="associativity fails"):
            _with_table(b, edits).check()
    # a single-entry corruption over the enveloping algebra: M_(1,0) M_(0,0) = 1
    a = build_enveloping_algebra(demo_digroup())
    m0, m1 = a.index(("M", 0, 0)), a.index(("M", 1, 0))
    with pytest.raises(AlgebraError, match="associativity fails"):
        _with_table(a, {(m1, m0): a.unit}).check()


def test_check_relations_names_the_relation_a_corrupted_table_breaks():
    d = demo_digroup()
    a = build_enveloping_algebra(d)
    ix = a.index
    r1, m0 = ix(("R", 1)), ix(("M", 0, 0))
    for edit, name in (({(r1, r1): r1}, "r_vdash"),
                       ({(m0, m0): ix(("M", 1, 0))}, "ell_dashv"),
                       ({(r1, m0): m0}, "r_ell"),
                       ({(m0, r1): m0}, "ell_r")):
        report = check_relations(_with_table(a, edit), d)
        assert name in report.failures(), (name, report.failures())
    report = check_relations(replace(a, unit=r1), d)
    assert "r_unit" in report.failures()


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
    check = envalg.check_module_on_generators
    monkeypatch.setattr(envalg, "check_module_on_generators",
                        lambda m: checked.append(m) or check(m))
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
                lhs = fam[a.product[i][j]]
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


def _both_solvers(d, q, w):
    a = build_enveloping_algebra(d, q.field)
    mq, mw = rep_to_module(q, a), rep_to_module(w, a)
    got = derivation_ext1(a, mq, mw)
    assert got == full_table_derivation_ext1(a, mq, mw)
    return got[0]


def test_generator_system_matches_the_all_pairs_system():
    """Same (dim, families) as one equation per basis pair: every 10th
    corpus pair over Q, ten pairs over GF(7) and ten over GF(5), induced
    pairs both ways over all three fields, and modular pairs."""
    for seed in range(1000, 1200, 10):
        _both_solvers(*sample_pair(seed))
    for field, base in ((PrimeField(7), 5000), (PrimeField(5), 5500)):
        for seed in range(10):
            rng = seeded_rng(base + seed)
            d = sample_digroup(rng)
            _both_solvers(d, random_representation(d, rng.randint(1, 3), rng, field),
                          random_representation(d, rng.randint(1, 3), rng, field))
    for field in (QQ, PrimeField(5), PrimeField(7)):
        for i, name in enumerate(sorted(GROUPS)):
            d, lift, w = induced_pair(7600 + i, field, (name,))
            _both_solvers(d, lift, w)
            _both_solvers(d, w, lift)
    # p divides |G|: no Maschke, and Ext^1 > 0 is common
    dims = []
    for p, names in ((2, ("C2", "C6", "S3")), (3, ("C3", "C6", "S3"))):
        field = PrimeField(p)
        for seed in range(12):
            rng = seeded_rng(6000 + 100 * p + seed)
            d = sample_digroup(rng, group_names=names)
            assert d.group.order % p == 0
            dims.append(_both_solvers(
                d, random_representation(d, rng.randint(1, 3), rng, field),
                random_representation(d, rng.randint(1, 3), rng, field)))
    assert len(dims) == 24 and sum(x > 0 for x in dims) >= 10, dims


def _against_former(d, q, w):
    """The dimensions of derivation_ext1 in the (q, w), (w, q) and (q, q)
    orders, each with the very (dim, families) of the former solver."""
    a = build_enveloping_algebra(d, q.field)
    mq, mw = rep_to_module(q, a), rep_to_module(w, a)
    dims = []
    for x, y in ((mq, mw), (mw, mq), (mq, mq)):
        got = derivation_ext1(a, x, y)
        assert got == former_derivation_ext1(a, x, y)
        dims.append(got[0])
    return dims


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3), PrimeField(5),
                                   PrimeField(7)), ids=repr)
def test_fox_system_matches_the_former_solver(field):
    """Unknowns on the generators, one Fox equation per rule: the same
    (dim, families) as unknowns on every block, on every 5th corpus pair,
    the induced pairs and pairs with a dimension-0 side."""
    dims = []
    for seed in range(1000, 1200, 5):
        dims += _against_former(*sample_pair(seed, field=field))
    for i, name in enumerate(sorted(GROUPS)):
        dims += _against_former(*induced_pair(7600 + i, field, (name,)))
    rng = seeded_rng(7700)
    d = sample_digroup(rng)
    dims += _against_former(d, random_representation(d, 0, rng, field),
                            random_representation(d, 2, rng, field))
    assert dims[-3:] == [0, 0, 0] and any(dims)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3), PrimeField(7)), ids=repr)
def test_dropped_fox_rules_leave_the_solution_unchanged(monkeypatch, field):
    """_fox_rules drops rules, and the Z_S basis and the answer equal those of
    the system of every rule, on every 4th corpus pair and on S3 pairs."""
    ext_classes, fox_rules, solved = envalg.ext_classes, envalg._fox_rules, []

    def spy(*args):   # (number of Fox equations, Z_S basis)
        out = ext_classes(*args)
        solved.append((len(args[3]), out[0]))
        return out

    def solve(rules, a, x, y):
        monkeypatch.setattr(envalg, "_fox_rules", rules)
        solved.clear()
        return derivation_ext1(a, x, y), list(solved)

    monkeypatch.setattr(envalg, "ext_classes", spy)
    pairs = [sample_pair(seed, field=field) for seed in range(1000, 1200, 4)]
    pairs += [sample_pair(seed, field=field, group_names=("S3",)) for seed in range(8)]
    dropped = 0
    for d, q, w in pairs:
        a = build_enveloping_algebra(d, field)
        mq, mw = rep_to_module(q, a), rep_to_module(w, a)
        for x, y in ((mq, mw), (mw, mq)):
            got, kept = solve(fox_rules, a, x, y)
            every_got, every = solve(lambda p, gens, rules: rules, a, x, y)
            assert got == every_got
            assert [z for _, z in kept] == [z for _, z in every]
            dropped += sum(n for n, _ in every) - sum(n for n, _ in kept)
    assert dropped > 50


def test_fox_system_matches_the_former_solver_beyond_the_caps():
    # the smallest rung of tools/size_ladder.py: C6, halo 6, dim 6
    field = PrimeField(32003)
    rng = seeded_rng(0)
    c6 = FiniteGroup.cyclic(6)
    d = Digroup(c6, rng.choice(all_actions(c6, 6)))
    q, w = (random_representation(d, 6, rng, field) for _ in range(2))
    a = build_enveloping_algebra(d, field)
    mq, mw = rep_to_module(q, a), rep_to_module(w, a)
    got = derivation_ext1(a, mq, mw)
    assert got[0] == 13
    assert got == former_derivation_ext1(a, mq, mw)


def test_fox_system_on_a_group_algebra():
    """The group algebra of S3 with its permutation module P on 3 points:
    Ext^1(P, k) = H^1(C2, k) (Shapiro), 1 over GF(2) and 0 over GF(3).
    Its representatives, unlike those over an enveloping algebra, are
    nonzero on letters whose suffix is a product of noncommuting letters."""
    s3 = FiniteGroup.symmetric3()
    act = next(x for x in all_actions(s3, 3) if len({x.apply(g, 0) for g in range(6)}) == 3)
    for p, ext in ((2, 1), (3, 0)):
        f = PrimeField(p)
        a = FDAlgebra(f, tuple(range(6)), s3.mul, s3.identity)
        perm = check_module(AlgebraModule(a, 3, tuple(
            Matrix.from_rows(f, [[int(act.apply(g, j) == i) for j in range(3)]
                                 for i in range(3)]) for g in range(6))))
        triv = AlgebraModule(a, 1, (Matrix.identity(f, 1),) * 6)
        for q, w in ((perm, triv), (triv, perm), (perm, perm)):
            got = derivation_ext1(a, q, w)
            assert got == former_derivation_ext1(a, q, w)
        assert derivation_ext1(a, perm, triv)[0] == ext


def test_a_solution_that_breaks_one_fox_rule_is_refused(monkeypatch):
    """Solving without the rows of one Fox equation gives Z_S vectors that
    break it whenever the kernel grows; ext_classes' residual refuses them."""
    d, q, w = sample_pair(1040, field=PrimeField(2))
    a = build_enveloping_algebra(d, q.field)
    mq, mw = rep_to_module(q, a), rep_to_module(w, a)
    expected = derivation_ext1(a, mq, mw)
    kernel, blk = linalg.sparse_kernel, q.dim * w.dim
    refused = 0
    for k in range(len(a.presentation()[1])):
        monkeypatch.setattr(linalg, "sparse_kernel", lambda n, rows, f: kernel(
            n, rows[:k * blk] + rows[(k + 1) * blk:], f))
        try:
            got = derivation_ext1(a, mq, mw)
        except SubspaceError as e:
            assert "does not solve" in str(e)
            refused += 1
        else:
            assert got == expected
    assert refused > 0


def test_generating_set_is_group_generators_plus_one_per_orbit():
    assert {name: make().generators() for name, make in GROUPS.items()} == {
        "C1": [], "C2": [1], "C3": [1], "C6": [1], "S3": [1, 2]}
    seen = set()
    for seed in range(1000, 1200):
        d, _, _ = sample_pair(seed)
        if (d.group.mul, d.action.act) in seen:
            continue
        seen.add((d.group.mul, d.action.act))
        gens = build_enveloping_algebra(d).generators()
        assert len(gens) == (len(d.group.generators())
                             + len(d.action.orbits())), seed
    assert len(seen) == 36


def test_generating_set_certificate_rejects_a_table_it_cannot_close():
    # the closure grows from the given unit by right multiplication, so a
    # unit whose row is not the identity leaves elements unreached
    with pytest.raises(AlgebraError, match="reaches 1 of 2"):
        table_generators(((1, 1), (1, 1)), 1)
    with pytest.raises(AlgebraError, match="reaches 2 of 3"):
        table_generators(((0, 0, 0), (1, 1, 1), (0, 0, 2)), 2)
    assert table_generators(((0, 1), (1, 0)), 0) == [1]


def rewrite(word, rules):
    """word with the first left side of a rule replaced by its right side,
    repeatedly, until no left side occurs; rules maps left to right sides."""
    for _ in range(1000):   # each step of a correct rule set lowers the shortlex order
        hit = next(((i, lhs) for i in range(len(word)) for lhs in rules
                    if word[i:i + len(lhs)] == lhs), None)
        if hit is None:
            return word
        i, lhs = hit
        word = word[:i] + rules[lhs] + word[i + len(lhs):]
    raise AssertionError("rewriting does not stop at %r" % (word,))


def presentation_algebras():
    """The enveloping algebras of the corpus digroups and of S3 and C6 with
    every action on 1 to 4 points."""
    seen = {}
    for seed in range(1000, 1200):
        d, _, _ = sample_pair(seed)
        seen[d.group.mul, d.action.act] = d
    for group in (FiniteGroup.symmetric3(), FiniteGroup.cyclic(6)):
        for m in range(1, 5):
            for act in all_actions(group, m):
                seen[group.mul, act.act] = Digroup(group, act)
    return [build_enveloping_algebra(d) for d in seen.values()]


def test_presentation_rules_rewrite_every_word_to_its_normal_form():
    """The rules of FDAlgebra.presentation are the minimal non-normal words
    w(x) s, and rewriting with them takes every w(x) s to w(x s)."""
    algebras = presentation_algebras()
    assert len(algebras) == 89
    for a in algebras:
        tree, rules = a.presentation()
        words = {a.unit: ()}
        for x, s in tree:
            words[a.product[x][s]] = words[x] + (s,)
        assert len(words) == a.dim
        normal = set(words.values())
        edges = [(x, s) for x in words for s in a.generators()]
        # in shortlex order of w(x) s, as the scan meets them
        shortlex = sorted(edges, key=lambda e: (len(words[e[0]]), words[e[0]], e[1]))
        assert rules == [(x, s) for x, s in shortlex
                         if (x, s) not in tree and (words[x] + (s,))[1:] in normal]
        lhs = {words[x] + (s,): words[a.product[x][s]] for x, s in rules}
        for x, s in edges:
            assert rewrite(words[x] + (s,), lhs) == words[a.product[x][s]]


def test_halo_algebra_products():
    b = build_halo_algebra(3)
    assert b.dim == 4
    assert b.unit == b.index("1")
    for al in range(3):
        ea = b.index(("eps", al))
        for be in range(3):
            assert b.product[ea][b.index(("eps", be))] == ea
        assert b.product[b.unit][ea] == ea == b.product[ea][b.unit]


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
            target = b.index(("eps", act.apply(g, al)))
            assert tuple(flat(img)) == tuple(int(k == target) for k in range(b.dim))


def decision(check, m):
    try:
        check(m)
    except AlgebraError:
        return False
    return True


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_module_check_on_generators_decides_like_check_module(field):
    # every action matrix, the unit's included, of the modules of induced
    # and random representations over C1, cyclic groups and S3, changed one
    # at a time; most basis elements are not among the algebra's generators
    refused = off_gens = 0
    for i, name in enumerate(("C1", "C2", "C3", "C6", "S3")):
        d, lift, w = induced_pair(7100 + i, field, (name,))
        alg = build_enveloping_algebra(d, field)
        gens = alg.generators()
        for r in (lift, w):
            mod = rep_to_module(r, alg)
            assert decision(check_module, mod)
            for k, action in corrupted_tables(dict(enumerate(mod.action))):
                bad = AlgebraModule(alg, mod.dim, tuple(action.values()))
                ok = decision(check_module, bad)
                assert decision(check_module_on_generators, bad) == ok, (name, k)
                refused += not ok
                off_gens += not ok and k not in gens
    assert refused > off_gens >= 20


def test_table_check_fails_like_the_former_scan_on_every_edit():
    # every product entry of a small enveloping algebra and of a band algebra
    # set to every basis index in turn, and every unit: the same outcome,
    # exception type, message and first failing triple, as the former scan
    c3 = FiniteGroup.cyclic(3)
    algebras = [build_enveloping_algebra(Digroup(c3, all_actions(c3, 3)[1])),
                build_halo_algebra(2)]
    failures = set()
    for a in algebras:
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    bad = _with_table(a, {(i, j): k})
                    got = outcome(bad.check)
                    assert got == outcome(lambda: former_algebra_check(bad)), (i, j, k)
                    failures.add(got[1])
        for u in range(a.dim):
            assert outcome(replace(a, unit=u).check) \
                == outcome(lambda: former_algebra_check(replace(a, unit=u)))
    assert len([f for f in failures if "associativity" in str(f)]) > 50
    assert "associativity fails at (1,7,8)" in failures


def relation_cases():
    """(algebra, digroup): the enveloping algebras of every action of C1,
    C2, C3, C6 and S3 on 1 to 3 points."""
    for name in ("C1", "C2", "C3", "C6", "S3"):
        group = GROUPS[name]()
        for m in (1, 2, 3):
            for act in all_actions(group, m):
                d = Digroup(group, act)
                yield build_enveloping_algebra(d), d


def test_check_relations_reports_like_the_former_scan():
    cases = list(relation_cases())
    assert len(cases) == 37
    for a, d in cases:
        report = check_relations(a, d)
        assert report.ok
        assert report.results == former_check_relations(a, d).results
    # one algebra with each product entry moved to the next index, and with
    # each unit: every relation fails somewhere, first at the former's pair
    c3 = FiniteGroup.cyclic(3)
    d = Digroup(c3, all_actions(c3, 3)[1])
    a = build_enveloping_algebra(d)
    failed, firsts = set(), set()
    for i in range(a.dim):
        for j in range(a.dim):
            bad = _with_table(a, {(i, j): (a.product[i][j] + 1) % a.dim})
            report = check_relations(bad, d)
            assert report.results == former_check_relations(bad, d).results, (i, j)
            failed.update(report.failures())
            firsts.update(report.failures().values())
    for u in range(a.dim):
        bad = replace(a, unit=u)
        assert check_relations(bad, d).results == former_check_relations(bad, d).results
    assert failed == {"ell_dashv", "r_vdash", "r_ell", "ell_r"}
    assert len(firsts) > 30


def test_generators_and_presentation_match_the_former_closure():
    # the greedy set and (tree, rules) against the former closure walks, on
    # the corpus algebras, on tables with one entry moved, and on random
    # tables (where the set may fail to close: the same message)
    algebras = presentation_algebras()
    for a in algebras:
        assert a.generators() == former_table_generators(a.product, a.unit)
        assert a.presentation() == former_presentation(a)
    rng = seeded_rng(5)
    outcomes = set()
    for a in algebras[:20]:
        for _ in range(10):
            i, j = rng.randrange(a.dim), rng.randrange(a.dim)
            bad = _with_table(a, {(i, j): rng.randrange(a.dim)})
            got = outcome(bad.generators)
            assert got == outcome(lambda: former_table_generators(bad.product, bad.unit))
            assert outcome(bad.presentation) == outcome(lambda: former_presentation(bad))
            outcomes.add(str(got[1]))
    for _ in range(200):
        n = rng.randint(1, 6)
        table = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        unit = rng.randrange(n)
        got = outcome(lambda: table_generators(table, unit))
        assert got == outcome(lambda: former_table_generators(table, unit)), (table, unit)
        outcomes.add(str(got[1]))
    assert len(outcomes) > 30 and any("reaches" in o for o in outcomes)
