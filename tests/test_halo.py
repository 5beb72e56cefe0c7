import pytest

from digrep import (Digroup, FiniteGroup, GAction, Matrix, PrimeField, QQ, all_actions,
                    build_enveloping_algebra, demo_digroup, demo_representation,
                    demo_subspace_basis, derivation_ext1, hom_rep,
                    random_representation, random_semilinear, rep_to_module,
                    require_valid, require_valid_semilinear, seeded_rng, sub_quotient,
                    to_semilinear)
from digrep.halo import (BEModule, check_be_module, ext1_BE, g_action_on_hom,
                         hom_BE, induction_L, invariant_class_dim, invariants,
                         underlying_module, verify_adjunction, verify_collapse)
from digrep import halo, reps
from digrep.reps import RepresentationError, SemilinearObject

from _instances import (corrupted_tables, induced_pair, random_band_module, sample_digroup,
                        sample_pair, sample_semilinear_pair)
from _oracles import (ext1_dim_gfp_oracle, exhaustive_halo_actions, former_induction_L,
                      per_vector_halo_actions)


def demo_sub_and_quotient():
    r = demo_representation()
    w, q, _, _ = sub_quotient(r, demo_subspace_basis())
    require_valid(w)
    require_valid(q)
    return w, q


def test_be_module_validation():
    good = BEModule(1, {0: Matrix.identity(QQ, 1), 1: Matrix.identity(QQ, 1)})
    check_be_module(good)
    bad = BEModule(1, {0: Matrix.identity(QQ, 1),
                       1: Matrix.zeros(QQ, 1, 1)})
    # eps_1 eps_0 = 0 != eps_1 would need eps_1 absorbing, which zero is,
    # but eps_0 eps_1 = 0 != eps_0 fails
    with pytest.raises(RepresentationError):
        check_be_module(BEModule(1, {0: Matrix.identity(QQ, 1),
                                     1: Matrix.from_rows(QQ, [[2]])}))
    with pytest.raises(RepresentationError):
        check_be_module(BEModule(2, {0: Matrix.identity(QQ, 1)}))
    assert bad is not None


def test_hom_BE_on_the_demo_pieces():
    w, q = demo_sub_and_quotient()
    sw, sq = to_semilinear(w), to_semilinear(q)
    # the demo quotient has identity idempotents, the sub has rank-zero
    # idempotents, so no nonzero band-linear map exists in either direction
    assert len(hom_BE(sq, sw)) == 0
    assert len(hom_BE(sw, sq)) == 0
    assert len(hom_BE(sw, sw)) == 1
    assert len(hom_BE(sq, sq)) == 1


def test_hom_BE_with_identity_idempotents_is_full():
    eps2 = {0: Matrix.identity(QQ, 2), 1: Matrix.identity(QQ, 2)}
    eps3 = {0: Matrix.identity(QQ, 3), 1: Matrix.identity(QQ, 3)}
    basis = hom_BE(BEModule(2, eps2), BEModule(3, eps3))
    assert len(basis) == 6


def test_hom_BE_members_are_band_linear():
    for seed in range(8):
        _, a, b = sample_semilinear_pair(seed)
        for f in hom_BE(a, b):
            for al in a.eps:
                assert f * a.eps[al] == b.eps[al] * f


def test_g_action_on_hom_satisfies_the_action_laws():
    # g_action_on_hom verifies identity and composition internally and
    # raises on failure, so a clean return is the assertion
    for seed in range(8):
        _, a, b = sample_semilinear_pair(seed, max_dim=2)
        space = g_action_on_hom(a, b)
        assert len(space.g_action) == a.action.group.order


def test_invariant_homs_match_digroup_intertwiners():
    w, q = demo_sub_and_quotient()
    sw, sq = to_semilinear(w), to_semilinear(q)
    assert len(invariants(g_action_on_hom(sw, sw))) == len(hom_rep(w, w)) == 1
    assert len(invariants(g_action_on_hom(sq, sw))) == len(hom_rep(q, w)) == 0
    for seed in range(10):
        _, r1, r2 = sample_pair(seed + 200, max_dim=2)
        space = g_action_on_hom(to_semilinear(r1), to_semilinear(r2))
        assert len(invariants(space)) == len(hom_rep(r1, r2))


def test_ext1_BE_on_the_demo_pieces():
    w, q = demo_sub_and_quotient()
    res = ext1_BE(to_semilinear(q), to_semilinear(w))
    assert (res.dim_Z, res.dim_B, res.dim_ext) == (2, 1, 1)
    assert invariant_class_dim(res) == 1
    # each representative satisfies the compatibility condition
    sq, sw = to_semilinear(q), to_semilinear(w)
    for eta in res.eta_basis:
        for a in range(2):
            for b in range(2):
                assert sw.eps[a] * eta[b] + eta[a] * sq.eps[b] == eta[a]


def test_ext1_BE_rejects_a_group_lift_that_leaves_the_eta_space():
    # the demo's V with t_1 swapped for a permutation: not a valid
    # semilinear object (t_1 does not intertwine the idempotents), built
    # without validation so only ext1_BE's own lift check can catch it
    v = to_semilinear(demo_representation())
    t = dict(v.t)
    t[1] = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    bad = SemilinearObject(v.action, v.dim, dict(v.eps), t)
    with pytest.raises(RepresentationError, match="does not preserve"):
        ext1_BE(bad, v)
    with pytest.raises(RepresentationError, match="does not preserve"):
        ext1_BE(v, bad)


def test_g_action_on_hom_rejects_a_group_lift_that_leaves_the_band_maps():
    # the same unvalidated t_1 as above: g.f is not band-linear, so it lies
    # outside the span of the hom_BE basis and the coordinates solve refuses it
    v = to_semilinear(demo_representation())
    t = dict(v.t)
    t[1] = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    bad = SemilinearObject(v.action, v.dim, dict(v.eps), t)
    with pytest.raises(RepresentationError, match="leaves the span"):
        g_action_on_hom(bad, v)
    with pytest.raises(RepresentationError, match="leaves the span"):
        g_action_on_hom(v, bad)


def test_group_law_inverses_are_certified():
    # t[g^-1] is no longer the inverse of t[g], built without validation:
    # the halo G-actions read t_g^-1 as t[g^-1] and must refuse it
    rng = seeded_rng(17)
    d = sample_digroup(rng, group_names=("C3",))
    v = random_semilinear(d, 2, rng)
    t = dict(v.t)
    t[d.group.inv[1]] = t[d.group.inv[1]].scale(QQ.of(2))
    bad = SemilinearObject(v.action, v.dim, dict(v.eps), t)
    for f in (g_action_on_hom, ext1_BE):
        with pytest.raises(RepresentationError, match=r"t_g t_\(g\^-1\) != I"):
            f(bad, v)


def test_verify_collapse_inverts_no_matrix(monkeypatch):
    _, q, w = sample_pair(1000)
    calls = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
    report = verify_collapse(q, w)
    assert report["collapse_ok"] and report["splitting_criterion_checked"]
    assert calls == []


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3), PrimeField(7)), ids=repr)
def test_halo_actions_match_the_per_vector_reference(field):
    """One operator per generator gives the actions that solving each vector
    gives: on random digroups, on S3 (two generators), with a dimension-0
    side, and over GF(2) and GF(3), which divide |S3|."""
    pairs = []
    for seed in range(16):
        rng = seeded_rng(5000 + seed)
        d = sample_digroup(rng, group_names=("S3",) if seed >= 12 else None)
        q = random_representation(d, rng.randint(1, 3), rng, field)
        w = random_representation(d, rng.randint(1, 3), rng, field)
        pairs.append((to_semilinear(q), to_semilinear(w)))
    rng = seeded_rng(5100)
    d = sample_digroup(rng)
    zero, r = (to_semilinear(random_representation(d, k, rng, field)) for k in (0, 2))
    pairs += [(zero, r), (r, zero), (zero, zero)]
    if field == QQ:
        pairs += [sample_semilinear_pair(seed)[1:] for seed in range(6)]
    classes = 0
    for q, w in pairs:
        on_hom, on_classes = per_vector_halo_actions(q, w)
        assert g_action_on_hom(q, w).g_action == on_hom
        res = ext1_BE(q, w)
        assert res.g_action_on_classes == on_classes
        classes += res.dim_ext > 0
    assert classes >= 3
    assert any(len(q.group.generators()) == 2 for q, _ in pairs)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3)), ids=repr)
def test_a_corrupted_t_of_w_raises_each_halo_action_error(field):
    """Built without validation, so only the halo actions' own certificates
    can refuse it.  A transposition for t_1 of the demo's V (C2 acting
    trivially on halo 2) moves g.f off Hom_BE and g.eta off Z.  On
    W = C + K, eps_a = [[I, 0], [L_a, 0]] with kernel K (halo 3) and Q = k
    with eps_a = 1, a t_1 that is I on C and M on K keeps Z = K^3, but B is
    {(k - L_a c)_a}, and M L_2 c = L_2 c' fails for c' = M c when
    M L_2 != L_2 M."""
    c2 = FiniteGroup.cyclic(2)
    one, one2, one4 = (Matrix.identity(field, n) for n in (1, 2, 4))
    v = require_valid_semilinear(SemilinearObject(GAction.trivial(c2, 2), 2, {
        0: Matrix.from_rows(field, [[1, 0], [0, 0]]),
        1: Matrix.from_rows(field, [[1, 0], [1, 0]])}, {0: one2, 1: -one2}))
    swapped = SemilinearObject(v.action, 2, v.eps, {0: one2, 1: Matrix.from_rows(
        field, [[0, 1], [1, 0]])})
    with pytest.raises(RepresentationError, match=r"^g\.f leaves the span at g=1$"):
        g_action_on_hom(v, swapped)
    with pytest.raises(RepresentationError,
                       match="^group action does not preserve the eta space at g=1$"):
        ext1_BE(v, swapped)
    act = GAction.trivial(c2, 3)
    ls = ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 1], [0, 0]])
    eps = {a: Matrix.from_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0], l[0] + [0, 0], l[1] + [0, 0]])
           for a, l in enumerate(ls)}
    q = require_valid_semilinear(SemilinearObject(act, 1, dict.fromkeys(range(3), one),
                                                  {0: one, 1: one}))
    w = require_valid_semilinear(SemilinearObject(act, 4, eps, {0: one4, 1: one4}))
    res = ext1_BE(q, w)
    assert (res.dim_Z, res.dim_ext) == (6, 2)
    m = Matrix.from_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])
    bad = SemilinearObject(act, 4, eps, {0: one4, 1: m})
    with pytest.raises(RepresentationError,
                       match="^group action does not preserve coboundaries at g=1$"):
        ext1_BE(q, bad)


def test_ext1_BE_vanishes_for_identity_idempotents():
    # with eps = identity on both sides the compatibility condition forces
    # eta_a = eps^W eta_b, so Z is the diagonal and B covers it
    d = demo_digroup()
    rng = seeded_rng(7)
    a = random_semilinear(d, 2, rng)
    ident = {al: Matrix.identity(QQ, 2) for al in range(d.halo_size)}
    from digrep.reps import SemilinearObject, require_valid_semilinear
    b = require_valid_semilinear(SemilinearObject(d.action, 2, ident, a.t))
    res = ext1_BE(b, b)
    assert res.dim_ext == 0


def test_ext1_BE_degenerate_dimensions():
    d = demo_digroup()
    rng = seeded_rng(9)
    a = random_semilinear(d, 2, rng)
    zero = random_semilinear(d, 0, rng)
    assert ext1_BE(a, zero).dim_ext == 0
    assert ext1_BE(zero, a).dim_ext == 0


def test_verify_collapse_on_the_demo():
    w, q = demo_sub_and_quotient()
    report = verify_collapse(q, w)
    assert report["collapse_ok"]
    assert report["hom_rep_dim"] == report["invariants_dim"] == 0
    assert report["ext1_BE_dim"] == 1
    assert report["ext1_BE_invariant_dim"] == 1
    assert report["ext1_rep_dim"] == 1


def test_verify_collapse_on_random_instances():
    for seed in range(12):
        _, q, w = sample_pair(seed + 300, max_dim=2)
        report = verify_collapse(q, w)
        assert report["collapse_ok"], (seed, report)
        assert report["ext1_BE_invariant_dim"] == report["ext1_rep_dim"]
        assert report["invariants_dim"] == report["hom_rep_dim"]


def test_induction_on_the_trivial_group_reproduces_the_module():
    c1 = FiniteGroup.cyclic(1)
    d = Digroup(c1, GAction.trivial(c1, 2))
    m = BEModule(2, {0: Matrix.from_rows(QQ, [[1, 0], [0, 0]]),
                     1: Matrix.from_rows(QQ, [[1, 0], [1, 0]])})
    check_be_module(m)
    lm = induction_L(m, d)
    assert lm.dim == 2
    for a in range(2):
        assert lm.eps[a] == m.eps[a]
    assert lm.t[0] == Matrix.identity(QQ, 2)


def test_induction_block_structure_over_c2():
    d = demo_digroup()
    m = BEModule(1, {0: Matrix.zeros(QQ, 1, 1), 1: Matrix.zeros(QQ, 1, 1)})
    lm = induction_L(m, d)
    assert lm.dim == 2
    # t at the nonidentity element swaps the two blocks
    assert lm.t[1].to_lists() == [[0, 1], [1, 0]]
    assert lm.t[1] * lm.t[1] == Matrix.identity(QQ, 2)


def test_induction_twists_idempotents_by_the_action():
    c2 = FiniteGroup.cyclic(2)
    act = GAction(c2, 2, [[0, 1], [1, 0]])
    d = Digroup(c2, act)
    m = BEModule(1, {0: Matrix.identity(QQ, 1), 1: Matrix.identity(QQ, 1)})
    lm = induction_L(m, d)
    # block g sees the idempotent at the index g^-1 . a
    for a in range(2):
        for g in range(2):
            expect = m.eps[act.apply(c2.inv[g], a)][0, 0]
            assert lm.eps[a][g, g] == expect


@pytest.mark.parametrize("field", (QQ, PrimeField(5), PrimeField(7)), ids=repr)
def test_induction_matches_the_former_construction(field):
    """Every eps^L_a and t^L_h equal those of the identity-block construction,
    for every action of C1, C2, C3, C6, S3 and S3 x C2 on halos 1-3 and
    band modules of dimension 0 to 3."""
    rng = seeded_rng(2200)
    groups = [FiniteGroup.cyclic(n) for n in (1, 2, 3, 6)] + [
        FiniteGroup.symmetric3(),
        FiniteGroup.direct_product(FiniteGroup.symmetric3(), FiniteGroup.cyclic(2))]
    for group in groups:
        for halo_size in (1, 2, 3):
            for action in all_actions(group, halo_size):
                d = Digroup(group, action)
                for dm in range(4):
                    m = random_band_module(rng, halo_size, dm, field)
                    lm, former = induction_L(m, d), former_induction_L(m, d)
                    assert lm.dim == former.dim == group.order * dm
                    assert lm.eps == former.eps and lm.t == former.t


@pytest.mark.parametrize("bad", [
    BEModule(1, {0: Matrix.identity(QQ, 1), 1: Matrix.from_rows(QQ, [[2]])}),
    BEModule(2, {0: Matrix.from_rows(QQ, [[1, 0], [0, 0]]),
                 1: Matrix.from_rows(QQ, [[0, 0], [0, 1]])}),
    BEModule(2, {0: Matrix.identity(QQ, 2), 1: Matrix.identity(QQ, 1)}),
], ids=("not-idempotent", "band-law", "eps-shape"))
def test_a_broken_band_module_is_refused_on_every_call(bad):
    d = Digroup(FiniteGroup.cyclic(2), GAction.trivial(FiniteGroup.cyclic(2), 2))
    for _ in range(2):
        with pytest.raises(RepresentationError):
            check_be_module(bad)
    for _ in range(2):
        with pytest.raises(RepresentationError):
            induction_L(bad, d)


def test_adjunction_refuses_an_unchecked_n_that_breaks_the_band_law():
    c2 = FiniteGroup.cyclic(2)
    m = BEModule(2, {0: Matrix.identity(QQ, 2), 1: Matrix.identity(QQ, 2)})
    one = Matrix.identity(QQ, 2)
    n = SemilinearObject(GAction.trivial(c2, 2), 2,
                         {0: Matrix.from_rows(QQ, [[1, 0], [0, 0]]),
                          1: Matrix.from_rows(QQ, [[0, 0], [0, 1]])}, {0: one, 1: one})
    for _ in range(2):
        with pytest.raises(RepresentationError):
            verify_adjunction(m, n)


def test_adjunction_scans_each_band_law_once(monkeypatch):
    """One verify_adjunction call scans the band law of M, of L(M) and of an
    unchecked N once each, and answers as before."""
    scanned, band_law = [], reps.band_law

    def counting(eps):
        scanned.append(eps)
        return band_law(eps)

    monkeypatch.setattr(reps, "band_law", counting)
    monkeypatch.setattr(halo, "band_law", counting)
    for seed in range(6):
        _, a, b = sample_semilinear_pair(seed + 70, max_dim=2)
        n = SemilinearObject(b.action, b.dim, dict(b.eps), dict(b.t))
        scanned.clear()
        report = verify_adjunction(underlying_module(a), n)
        assert report["ok"], (seed, report)
        assert len(scanned) == 3, seed
        assert len({tuple(map(id, eps.values())) for eps in scanned}) == 3, seed


def test_adjunction_on_the_demo_data():
    w, q = demo_sub_and_quotient()
    sw, sq = to_semilinear(w), to_semilinear(q)
    for m in (underlying_module(sw), underlying_module(sq)):
        for n in (sw, sq):
            report = verify_adjunction(m, n)
            assert report["ok"], report


def test_adjunction_on_seeded_instances():
    for seed in range(15):
        d, a, b = sample_semilinear_pair(seed + 50, max_dim=2)
        report = verify_adjunction(underlying_module(a), b)
        assert report["ok"], (seed, report)


@pytest.mark.parametrize("p", (5, 7))
def test_three_way_ext1_agreement_over_prime_fields(p):
    """derivation_ext1, the cocycle model and the band invariants agree over
    GF(p) with p prime to |G|, and match a rank oracle over GF(p)."""
    field = PrimeField(p)
    for seed in range(10):
        rng = seeded_rng(4000 + seed)
        d = sample_digroup(rng)
        assert d.group.order % p
        q = random_representation(d, rng.randint(1, 3), rng, field)
        w = random_representation(d, rng.randint(1, 3), rng, field)
        alg = build_enveloping_algebra(d, field)
        der, _ = derivation_ext1(alg, rep_to_module(q, alg), rep_to_module(w, alg))
        col = verify_collapse(q, w)
        assert col["collapse_ok"], seed
        assert (der == col["ext1_rep_dim"] == col["ext1_BE_invariant_dim"]
                == ext1_dim_gfp_oracle(q, w)), seed


def package_halo_actions(q, w):
    """(action on Hom_BE, action on the classes), or None where refused."""
    try:
        return g_action_on_hom(q, w).g_action, ext1_BE(q, w).g_action_on_classes
    except RepresentationError:
        return None


@pytest.mark.parametrize("field", (QQ, PrimeField(5), PrimeField(7)), ids=repr)
def test_generator_built_halo_actions_decide_like_the_per_g_solve(field):
    """The actions solved on S_G and extended along the closure equal the
    solve at every g, and are refused exactly where the exhaustive checks
    refuse: for each eps_a and t_g of either side changed in turn."""
    pairs = []
    for i, name in enumerate(("C1", "C2", "C3", "C6", "S3")):
        _, lift, w = induced_pair(7400 + i, field, (name,))
        lift, w = to_semilinear(lift), to_semilinear(w)
        pairs += [(lift, w), (w, lift)]
    refused = moved = 0
    for q, w in pairs:
        expected = exhaustive_halo_actions(q, w)
        assert expected is not None and package_halo_actions(q, w) == expected
        on_hom = expected[0].values()
        moved += any(m != Matrix.identity(m.field, m.rows) for m in on_hom)
        gens = q.group.generators()
        for side in (0, 1):
            obj = (q, w)[side]
            for part in ("eps", "t"):
                for key, table in corrupted_tables(getattr(obj, part)):
                    bad = [q, w]
                    bad[side] = SemilinearObject(obj.action, obj.dim,
                                                 **{"eps": obj.eps, "t": obj.t, part: table})
                    expected = exhaustive_halo_actions(*bad)
                    assert (package_halo_actions(*bad) is None) == (expected is None), \
                        (side, part, key)
                    refused += expected is None and part == "t" and key not in gens
    assert refused >= 20 and moved >= 3


def adjunction_instance():
    """(M, N) with equal nonzero Hom dimensions on both sides, |G| = 6."""
    d, a, b = sample_semilinear_pair(64, max_dim=2)
    report = verify_adjunction(underlying_module(a), b)
    assert (d.group.order, report["left_dim"], report["ok"]) == (6, 2, True)
    return underlying_module(a), b


def test_the_adjunction_refuses_a_left_map_its_identity_block_does_not_determine(monkeypatch):
    # the first left basis map, changed in a block off the identity: the
    # dimensions still agree, and only restrict-then-spread tells it apart
    m, n = adjunction_instance()
    left_dim, intertwiners = m.dim * n.action.group.order, halo.intertwiners
    off = (n.action.group.identity + 1) * m.dim   # the first column of block 1

    def injected(pairs, d_src, d_dst, field):
        found = intertwiners(pairs, d_src, d_dst, field)
        if d_src != left_dim:   # hom_BE's call
            return found
        bump = Matrix(field, d_dst, d_src, [field.of(int(j == off)) for i in range(d_dst)
                                            for j in range(d_src)])
        return [found[0] + bump] + found[1:]

    monkeypatch.setattr(halo, "intertwiners", injected)
    report = verify_adjunction(m, n)
    assert (report["dims_equal"], report["unit_counit_ok"], report["ok"]) == (True, False, False)


def test_the_adjunction_refuses_a_right_map_that_is_not_band_linear(monkeypatch):
    # the first right basis map plus the unit matrix at (0, 0): not
    # band-linear, so its spread is not a map of L(M)
    m, n = adjunction_instance()
    hom = halo.hom_BE

    def injected(q, w):
        found = hom(q, w)
        f = found[0] + Matrix(w.field, w.dim, q.dim, [w.field.of(int(k == 0))
                                                      for k in range(w.dim * q.dim)])
        assert any(f * q.eps[a] != w.eps[a] * f for a in q.eps)
        return [f] + found[1:]

    monkeypatch.setattr(halo, "hom_BE", injected)
    report = verify_adjunction(m, n)
    assert (report["dims_equal"], report["unit_counit_ok"], report["ok"]) == (True, False, False)
