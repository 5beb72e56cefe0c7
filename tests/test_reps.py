import time
from itertools import permutations

import pytest

from digrep import (Matrix, PrimeField, QQ, Representation, RepresentationError,
                    check_representation, demo_representation,
                    demo_subspace_basis, direct_sum, from_semilinear, hom_rep,
                    lambda_factorization, random_representation,
                    random_semilinear, require_valid, rho_group_form,
                    seeded_rng, sub_quotient, to_semilinear)
from dataclasses import replace

from digrep.reps import (band_law, sign_characters, check_semilinear,
                         check_semilinear_on_generators, SemilinearObject,
                         require_valid_semilinear)
from digrep.digroup import FiniteGroup, GAction
from digrep.halo import BEModule, verify_adjunction

from _instances import (corrupted_tables, induced_pair, ladder_groups, sample_pair,
                        sample_semilinear_pair, symmetric4)
from _oracles import former_band_law, former_check_representation, former_sign_characters


def test_demo_representation_passes_all_axioms():
    r = demo_representation()
    report = check_representation(r)
    assert report.ok, report.failures()


def test_demo_operator_tables_match_the_worked_values():
    r = demo_representation()
    assert r.rho[(0, 0)] == Matrix.identity(QQ, 2)
    assert r.rho[(1, 1)] == Matrix.identity(QQ, 2).scale(QQ.of(-1))
    assert r.lam[(0, 0)].to_lists() == [[1, 0], [0, 0]]
    assert r.lam[(0, 1)].to_lists() == [[1, 0], [1, 0]]
    assert r.lam[(1, 1)].to_lists() == [[-1, 0], [-1, 0]]


def test_rho_group_form_and_lambda_factorization():
    r = demo_representation()
    rho = rho_group_form(r)
    assert rho[1] == Matrix.identity(QQ, 2).scale(QQ.of(-1))
    left = lambda_factorization(r)
    assert left[0].to_lists() == [[1, 0], [0, 0]]
    assert left[1].to_lists() == [[1, 0], [1, 0]]
    for seed in range(10):
        _, q, _ = sample_pair(seed)
        rho = rho_group_form(q)
        left = lambda_factorization(q)
        for (g, a), m in q.lam.items():
            assert m == left[a] * rho[g]


def test_rho_group_form_verifies_once_and_rejects_on_every_call():
    r = demo_representation()
    first = rho_group_form(r)
    first[1] = None   # callers get copies, not the verified map itself
    assert rho_group_form(r)[1] == Matrix.identity(QQ, 2).scale(QQ.of(-1))
    rho = dict(r.rho)
    rho[(1, 1)] = Matrix.identity(QQ, 2)   # differs from rho[(1, 0)]
    broken = Representation(r.digroup, 2, r.lam, rho)
    for _ in range(2):
        with pytest.raises(RepresentationError, match="halo index"):
            rho_group_form(broken)


def test_fault_injection_pinpoints_broken_axioms():
    r = demo_representation()
    bad_lam = dict(r.lam)
    bad_lam[(1, 1)] = Matrix.identity(QQ, 2)
    broken = Representation(r.digroup, 2, bad_lam, r.rho)
    report = check_representation(broken)
    assert not report.ok
    assert "R1" in report.failures() or "R5" in report.failures()

    bad_rho = dict(r.rho)
    bad_rho[(0, 1)] = Matrix.from_rows(QQ, [[1, 0], [0, 2]])
    broken = Representation(r.digroup, 2, r.lam, bad_rho)
    report = check_representation(broken)
    assert "R3" in report.failures()

    singular = {k: Matrix.zeros(QQ, 2, 2) for k in r.rho}
    report = check_representation(Representation(r.digroup, 2, r.lam, singular))
    assert "rho_invertible" in report.failures()


def corruptions(r, rng):
    """(what, lam, rho): r's tables with one fault each."""
    d, field, n = r.digroup, r.field, r.dim

    def bumped(m):
        i, j = rng.randrange(n), rng.randrange(n)
        return m + Matrix.from_rows(field, [[int((a, b) == (i, j)) for b in range(n)]
                                            for a in range(n)])

    def one(table, x, m):
        out = dict(table)
        if m is None:
            del out[x]
        else:
            out[x] = m
        return out

    e = d.group.identity
    x = rng.choice(d.elements)
    bar = (e, rng.randrange(d.halo_size))
    yield "lam entry", one(r.lam, x, bumped(r.lam[x])), r.rho
    yield "rho entry at a bar-unit", r.lam, one(r.rho, bar, bumped(r.rho[bar]))
    others = [y for y in d.elements if y[0] != e]
    if others:
        y = rng.choice(others)
        yield "rho entry off the bar-units", r.lam, one(r.rho, y, bumped(r.rho[y]))
    yield "singular rho", r.lam, one(r.rho, x, Matrix.zeros(field, n, n))
    yield "missing lam key", one(r.lam, x, None), r.rho
    yield "missing rho key", r.lam, one(r.rho, x, None)
    # rho_g changed at a g outside the generating set, at every halo index,
    # with lam still L_a rho_g: only the group law and C3 off S_G fail
    gens = d.group.generators()
    off = [g for g in range(d.group.order) if g != e and g not in gens]
    if off:
        g = rng.choice(off)
        t = bumped(r.rho[(g, 0)])
        halo = range(d.halo_size)
        yield ("rho_g off the generators",
               {**r.lam, **{(g, a): r.lam[(e, a)] * t for a in halo}},
               {**r.rho, **{(g, a): t for a in halo}})


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_require_valid_decides_like_the_exhaustive_report(field):
    # require_valid raises exactly when check_representation fails or
    # check_shapes refuses the tables, and the views raise with it
    rng = seeded_rng(71)
    refused = {}
    pairs = [sample_pair(seed, field=field) for seed in range(1000, 1200, 8)]
    pairs += [induced_pair(7500 + i, field, (name,)) for i, name in enumerate(("C3", "S3"))]
    for d, q, w in pairs:
        for r in (q, w):
            for what, lam, rho in [("unchanged", r.lam, r.rho)] + list(corruptions(r, rng)):
                broken = Representation(d, r.dim, lam, rho)
                try:
                    valid = check_representation(broken).ok
                except RepresentationError:
                    valid = False
                refused[what] = refused.get(what, 0) + (not valid)
                for view in (require_valid, rho_group_form, lambda_factorization,
                             to_semilinear):
                    if valid:
                        view(broken)
                    else:
                        with pytest.raises(RepresentationError):
                            view(broken)
    # a bumped entry can leave a valid table (an idempotent L_a = 0 made 1)
    assert refused.pop("unchanged") == 0 and min(refused.values()) >= 10, refused


def test_sub_quotient_of_the_demo():
    r = demo_representation()
    w, q, iota, pi = sub_quotient(r, demo_subspace_basis())
    assert (w.dim, q.dim) == (1, 1)
    require_valid(w)
    require_valid(q)
    # the subobject carries the zero left family and the sign right family
    assert w.lam[(0, 1)].is_zero()
    assert w.rho[(1, 0)].to_lists() == [[-1]]
    # the quotient carries the sign character on both families
    assert q.lam[(1, 1)].to_lists() == [[-1]]
    assert q.rho[(1, 1)].to_lists() == [[-1]]
    for x in r.digroup.elements:
        assert r.lam[x] * iota == iota * w.lam[x]
        assert pi * r.lam[x] == q.lam[x] * pi


def test_sub_quotient_rejects_unstable_subspaces():
    r = demo_representation()
    with pytest.raises(RepresentationError):
        sub_quotient(r, [Matrix.column(QQ, [1, 0])])


def test_direct_sum_is_valid_and_block_structured():
    r = demo_representation()
    w, q, _, _ = sub_quotient(r, demo_subspace_basis())
    require_valid(w)
    require_valid(q)
    s = direct_sum(w, q)
    require_valid(s)
    assert s.dim == 2
    for x in r.digroup.elements:
        assert s.lam[x][1, 0] == QQ.of(0)
        assert s.lam[x][0, 1] == QQ.of(0)


def test_hom_rep_dimensions_on_the_demo():
    r = demo_representation()
    w, q, _, _ = sub_quotient(r, demo_subspace_basis())
    require_valid(w)
    require_valid(q)
    assert len(hom_rep(w, w)) == 1
    assert len(hom_rep(q, q)) == 1
    assert len(hom_rep(q, w)) == 0
    assert len(hom_rep(w, q)) == 0
    for f in hom_rep(w, w):
        for x in r.digroup.elements:
            assert f * w.lam[x] == w.lam[x] * f


def test_semilinear_round_trip_is_exact():
    for seed in range(15):
        d, q, w = sample_pair(seed)
        for r in (q, w):
            m = to_semilinear(r)
            back = from_semilinear(m, d)
            assert back.lam == r.lam
            assert back.rho == r.rho


def test_semilinear_axiom_checker():
    d, a, _ = sample_semilinear_pair(3)
    assert check_semilinear(a).ok
    if a.dim:
        bad_t = dict(a.t)
        bad_t[d.group.identity] = Matrix.identity(a.field, a.dim).scale(QQ.of(2))
        broken = SemilinearObject(a.action, a.dim, a.eps, bad_t)
        assert "C1" in check_semilinear(broken).failures()
    # the demo: eps_0 = [[1, 0], [0, 0]], eps_1 = [[1, 0], [1, 0]], t_1 = -I,
    # C2 acting trivially on the halo; the report pins the first failing pair
    m = to_semilinear(demo_representation())
    band = SemilinearObject(m.action, 2, {0: m.eps[0], 1: Matrix.identity(QQ, 2)}, m.t)
    assert check_semilinear(band).failures() == {"band": (1, 0)}
    c3 = SemilinearObject(m.action, 2, m.eps,
                          {0: m.t[0], 1: Matrix.from_rows(QQ, [[1, 0], [0, -1]])})
    assert check_semilinear(c3).failures() == {"C3": (1, 1)}


def test_sign_characters():
    assert len(sign_characters(FiniteGroup.cyclic(1))) == 1
    assert len(sign_characters(FiniteGroup.cyclic(2))) == 2
    assert len(sign_characters(FiniteGroup.cyclic(3))) == 1
    assert len(sign_characters(FiniteGroup.cyclic(6))) == 2
    assert len(sign_characters(FiniteGroup.symmetric3())) == 2


def test_sign_characters_keep_the_brute_force_order():
    # random_semilinear draws chars[rng.randrange(...)], so the list from
    # the enumeration on S_G must be the brute force's, in its mask order
    for group in ladder_groups():
        assert sign_characters(group) == former_sign_characters(group), group.name


def test_sign_characters_of_s4_come_from_its_generators():
    # 2^24 sign vectors for the brute force, 2^|S_G| choices on S_G
    s4 = symmetric4()
    start = time.perf_counter()
    chars = sign_characters(s4)
    assert time.perf_counter() - start < 1.0
    sign = tuple(-1 if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 else 1
                 for p in permutations(range(4)))
    assert chars == [(1,) * 24, sign]


def test_random_generators_always_produce_valid_objects():
    for seed in range(25):
        d, q, w = sample_pair(seed + 500)
        assert check_representation(q).ok
        assert check_representation(w).ok
        rng = seeded_rng(seed)
        m = random_semilinear(d, rng.randint(0, 3), rng)
        assert check_semilinear(m).ok


def test_random_generation_is_deterministic_per_seed():
    d1, q1, w1 = sample_pair(42)
    d2, q2, w2 = sample_pair(42)
    assert q1.lam == q2.lam and q1.rho == q2.rho
    assert w1.lam == w2.lam and w1.rho == w2.rho


def test_to_semilinear_checks_once_and_hands_out_copies(monkeypatch):
    from digrep import reps
    checked = []
    check = reps.check_semilinear_on_generators
    monkeypatch.setattr(reps, "check_semilinear_on_generators",
                        lambda m: checked.append(m) or check(m))
    for seed in range(4):
        d, q, _ = sample_pair(seed + 310)
        r = Representation(d, q.dim, q.lam, q.rho)   # q's tables, not yet checked
        checked.clear()
        require_valid(r)
        first = to_semilinear(r)
        eps, t = dict(first.eps), dict(first.t)
        first.eps.clear()
        first.t[d.group.identity] = None
        again = to_semilinear(r)
        assert again.eps == eps and again.t == t
        assert again.action is d.action and again.dim == q.dim
        lambda_factorization(r)
        assert len(checked) == 1


def test_lambda_factorization_verifies_once_and_rejects_on_every_call(monkeypatch):
    v = demo_representation()
    r = Representation(v.digroup, 2, v.lam, v.rho)   # the demo's tables, not yet checked
    products = []
    full_mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: products.append(1) or full_mul(a, b))
    require_valid(r)
    assert products
    products.clear()
    first = lambda_factorization(r)
    to_semilinear(r)
    expected = dict(first)
    first[0] = None   # callers get copies, not the verified map itself
    assert lambda_factorization(r) == expected
    assert not products
    lam = dict(r.lam)
    lam[(1, 0)] = lam[(1, 0)] + Matrix.identity(QQ, 2)
    broken = Representation(r.digroup, 2, lam, r.rho)
    for _ in range(2):
        with pytest.raises(RepresentationError, match="lam factorization"):
            lambda_factorization(broken)


def test_the_registry_keeps_no_representation_alive():
    import gc
    import weakref
    from digrep import build_enveloping_algebra, ext1_dim, rep_to_module
    d, q, w = sample_pair(1005)   # Z^1 and Ext^1 nonzero both ways
    for src, dst in ((q, q), (q, w), (w, q)):
        ext1_dim(src, dst)
    alg = build_enveloping_algebra(d)
    for r in (q, w):
        rep_to_module(r, alg)
        to_semilinear(r)
        lambda_factorization(r)
    refs = [weakref.ref(q), weakref.ref(w)]
    del q, w, src, dst, r
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("field", (QQ, PrimeField(5), PrimeField(7)), ids=repr)
def test_semilinear_check_on_generators_decides_like_the_exhaustive_report(field):
    # every eps_a and every t_g of induced objects (t_g moves the halo) and
    # of random ones, over C1, cyclic groups and S3, changed one at a time;
    # C3 and C6 have one generator, so most t_g are not generators
    objects = []
    for i, name in enumerate(("C1", "C2", "C3", "C6", "S3") * 2):
        _, lift, w = induced_pair(7000 + i, field, (name,))
        objects += [to_semilinear(lift), to_semilinear(w)]
    refused = {"eps": 0, "t": 0, "t off S_G": 0}
    for m in objects:
        assert check_semilinear(m).ok and check_semilinear_on_generators(m).ok
        gens = m.group.generators()
        for part in ("eps", "t"):
            for key, table in corrupted_tables(getattr(m, part)):
                bad = replace(m, **{part: table})
                ok = check_semilinear(bad).ok
                assert check_semilinear_on_generators(bad).ok == ok, (part, key)
                refused[part] += not ok
                refused["t off S_G"] += not ok and part == "t" and key not in gens
    assert min(refused.values()) >= 10, refused


def random_idempotent(rng, field, dim, c, rank):
    """C [[I_rank, 0], [X, 0]] C^-1 for a random X: an idempotent whose
    kernel is spanned by the last dim - rank columns of C."""
    x = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim - rank)]
    e = Matrix.from_rows(field, [[int(i == j) if i < rank else x[i - rank][j] if j < rank else 0
                                  for j in range(dim)] for i in range(dim)])
    return c * e * c.inverse()


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_band_law_decides_on_the_spokes_like_the_exhaustive_scan(field):
    # idempotents with one kernel obey the band law; one with another
    # kernel and the eps tables of random objects changed one entry at a
    # time make it fail, in families of zero to four members
    rng = seeded_rng(26)
    families = []
    for _ in range(40):
        dim, m = rng.randint(1, 4), rng.randint(0, 4)
        rank = rng.randint(0, dim)
        c = next(c for c in iter(lambda: Matrix.from_rows(
            field, [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]), None)
            if c.rank() == dim)
        eps = {a: random_idempotent(rng, field, dim, c, rank) for a in range(m)}
        families.append(eps)
        if m:
            other = random_idempotent(rng, field, dim, c.transpose(), rng.randint(0, dim))
            families.append({**eps, rng.randrange(m): other})
    for seed in range(16):
        d, _, _ = sample_semilinear_pair(8000 + seed)
        eps = random_semilinear(d, rng.randint(1, 3), rng, field).eps
        families += [eps] + [bad for _, bad in corrupted_tables(eps)]
    failing = set()
    for eps in families:
        got = band_law(eps)
        assert got == former_band_law(eps), eps
        if not got[0]:
            failing.add((len(eps), got[1]))
    # named off the spokes (at (0, 0) when m > 1), on a spoke (a, 0) and
    # when m = 1
    assert {(2, (0, 0)), (1, (0, 0))} <= failing, failing
    assert any(case[0] > 0 for _, case in failing), failing


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=repr)
def test_check_representation_reports_like_the_former_scan(field):
    # the shared pair scan on the int tables against the former scan per
    # identity: every entry of lam and of rho perturbed in turn, and a
    # singular rho; the reports are equal, first failing pairs included
    rng = seeded_rng(29)
    pairs = [sample_pair(seed, field=field) for seed in range(1000, 1200, 16)]
    pairs += [induced_pair(7500 + i, field, (name,)) for i, name in enumerate(("C3", "S3"))]
    failed = set()
    for d, q, w in pairs:
        for r in (q, w):
            x = rng.choice(d.elements)
            cases = [(r.lam, r.rho), (r.lam, {**r.rho, x: Matrix.zeros(field, r.dim, r.dim)})]
            cases += [(lam, r.rho) for _, lam in corrupted_tables(r.lam)]
            cases += [(r.lam, rho) for _, rho in corrupted_tables(r.rho)]
            for lam, rho in cases:
                broken = Representation(d, r.dim, lam, rho)
                report = check_representation(broken)
                assert report.results == former_check_representation(broken).results
                failed.update(report.failures())
    assert failed == {"R1", "R2", "R3", "R4", "R5", "rho_invertible"}


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("size", (1, 3))
def test_semilinear_operators_of_the_wrong_shape_are_refused(order, size):
    # dim 2 with size x size operators: every check raises RepresentationError,
    # with the generator check of a trivial group (no C3 product) included
    group = FiniteGroup.cyclic(order)
    action = GAction.trivial(group, 1)
    ident, wrong = Matrix.identity(QQ, 2), Matrix.identity(QQ, size)
    objects = [SemilinearObject(action, 2, {0: wrong}, {g: ident for g in range(order)}),
               SemilinearObject(action, 2, {0: ident}, {g: wrong for g in range(order)})]
    for m in objects:
        for check in (check_semilinear, check_semilinear_on_generators,
                      require_valid_semilinear):
            with pytest.raises(RepresentationError, match="shape"):
                check(m)
        with pytest.raises(RepresentationError, match="shape"):
            verify_adjunction(BEModule(1, {0: Matrix.identity(QQ, 1)}), m)
