import random

import pytest

from digrep import Matrix, QQ, to_semilinear
from digrep.digroup import (Digroup, FiniteGroup, GAction, GroupTableError,
                            all_actions, generated_homomorphism)

from _instances import corrupted_tables, ladder_groups, sample_pair
from _oracles import (former_action_check, former_all_actions, former_associativity_failure,
                      former_check_axioms, former_generated_homomorphism,
                      former_table_generators, outcome, right_group_at)


def test_cyclic_group_tables():
    c4 = FiniteGroup.cyclic(4)
    assert c4.order == 4
    assert c4.identity == 0
    assert c4.mul[3][2] == 1
    assert c4.inv[3] == 1
    assert c4.associativity_failure() is None
    with pytest.raises(ValueError):
        FiniteGroup.cyclic(0)
    with pytest.raises(ValueError):
        FiniteGroup.cyclic(13)


def test_symmetric3_is_a_nonabelian_group_of_order_6():
    s3 = FiniteGroup.symmetric3()
    assert s3.order == 6
    assert s3.associativity_failure() is None
    assert any(s3.mul[a][b] != s3.mul[b][a]
               for a in range(6) for b in range(6))
    for g in range(6):
        assert s3.mul[g][s3.inv[g]] == s3.identity


def test_direct_product():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    assert g.order == 6
    assert g.associativity_failure() is None
    # an element of order 6 exists, so this is the cyclic group of order 6
    orders = set()
    for x in range(6):
        acc, k = x, 1
        while acc != g.identity:
            acc = g.mul[acc][x]
            k += 1
        orders.add(k)
    assert 6 in orders


def test_bad_tables_rejected():
    with pytest.raises(GroupTableError):
        FiniteGroup([[0, 1], [1, 1]])  # no inverses / not a group
    with pytest.raises(GroupTableError):
        FiniteGroup([[1, 0], [1, 0]])  # no identity
    # associativity failure caught when strict
    tbl = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(GroupTableError):
        FiniteGroup(tbl)


def test_generators_generate():
    for g in (FiniteGroup.cyclic(6), FiniteGroup.symmetric3()):
        gens = g.generators()
        closed = {g.identity}
        frontier = [g.identity]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = g.mul[x][s]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        assert len(closed) == g.order


def test_action_validation():
    c2 = FiniteGroup.cyclic(2)
    GAction(c2, 2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        GAction(c2, 2, [[1, 0], [0, 1]])  # identity must act trivially
    c4 = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError):
        # order-3 cycle is not compatible with an order-4 generator on 3 points
        GAction(c4, 3, [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2]])


def test_orbits():
    c2 = FiniteGroup.cyclic(2)
    act = GAction(c2, 3, [[0, 1, 2], [1, 0, 2]])
    assert act.orbits() == [[0, 1], [2]]


def test_all_actions_counts():
    c2 = FiniteGroup.cyclic(2)
    # image of the generator must square to the identity
    assert len(all_actions(c2, 2)) == 2
    assert len(all_actions(c2, 3)) == 4   # identity plus three transpositions
    c3 = FiniteGroup.cyclic(3)
    assert len(all_actions(c3, 3)) == 3   # identity plus two 3-cycles
    triv = FiniteGroup.cyclic(1)
    assert len(all_actions(triv, 2)) == 1
    for act in all_actions(FiniteGroup.symmetric3(), 2):
        assert act.group.order == 6


def test_all_actions_keeps_the_former_enumeration_order():
    # corpus and `digrep generate` pick actions[rng.randrange(...)], so the
    # list, not only the set, must equal the former closure walk's
    c2xc3 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    for group in ladder_groups() + [c2xc3]:
        for m in range(1, 5 if group.order <= 6 else 3):
            assert [a.act for a in all_actions(group, m)] == former_all_actions(group, m), \
                (group.name, m)


def test_digroup_products_and_halo():
    c2 = FiniteGroup.cyclic(2)
    act = GAction(c2, 2, [[0, 1], [1, 0]])
    d = Digroup(c2, act)
    assert len(d) == 4
    assert d.vdash((1, 0), (1, 1)) == (0, 0)   # (s,e0) |- (s,e1): index 1 moves
    assert d.dashv((1, 0), (1, 1)) == (0, 0)
    assert d.halo() == [(0, 0), (0, 1)]
    assert d.is_bar_unit((0, 1)) and not d.is_bar_unit((1, 0))


def test_sharp_and_inverses():
    c3 = FiniteGroup.cyclic(3)
    for act in all_actions(c3, 3):
        d = Digroup(act.group, act)
        for x in d.elements:
            s = d.sharp(x)
            assert d.is_bar_unit(d.vdash(x, s))
            assert d.is_bar_unit(d.vdash(s, x))
        for e in d.halo():
            for x in d.elements:
                left, right = d.inverses_at(x, e)
                assert d.dashv(left, x) == e
                assert d.vdash(x, right) == e


def test_right_group_transports_the_reversed_multiplication():
    s3 = FiniteGroup.symmetric3()
    d = Digroup(s3, GAction.trivial(s3, 2))
    for e in d.halo():
        elems, table = right_group_at(d, e)
        assert len(set(elems)) == s3.order
        assert table == [list(row) for row in
                         [[s3.mul[h][g] for h in range(6)] for g in range(6)]]


def test_axioms_pass_on_assorted_digroups():
    cases = []
    for g in (FiniteGroup.cyclic(1), FiniteGroup.cyclic(4),
              FiniteGroup.symmetric3()):
        for m in (1, 2):
            for act in all_actions(g, m):
                cases.append(Digroup(act.group, act))
    assert cases
    for d in cases:
        report = d.check_axioms()
        assert report.ok, report.failures()


def test_axiom_checker_detects_corruption():
    # a non-associative "group" built with strict checking disabled
    tbl = [[0, 1], [1, 1]]
    broken = FiniteGroup.__new__(FiniteGroup)
    broken.mul = tuple(tuple(r) for r in [[0, 1], [1, 0]])
    broken.order = 2
    broken.name = "broken"
    broken.identity = 0
    broken.inv = (0, 1)
    # forge a non-action table: g=1 maps both points to 0
    act = GAction.__new__(GAction)
    act.group = broken
    act.set_size = 2
    act.act = ((0, 1), (0, 0))
    d = Digroup(broken, act)
    report = d.check_axioms()
    assert not report.ok
    assert "unit_left_vdash" in report.failures() or report.failures()


REPORT_GROUPS = {
    "C1": lambda: FiniteGroup.cyclic(1),
    "C2": lambda: FiniteGroup.cyclic(2),
    "C3": lambda: FiniteGroup.cyclic(3),
    "C6": lambda: FiniteGroup.cyclic(6),
    "S3": FiniteGroup.symmetric3,
    "S3xC2": lambda: FiniteGroup.direct_product(FiniteGroup.symmetric3(),
                                                FiniteGroup.cyclic(2)),
}


@pytest.mark.parametrize("name", sorted(REPORT_GROUPS))
def test_check_axioms_reports_like_the_former_scan_on_every_action(name):
    # the row scan on the int tables against the former triple-by-triple scan
    group = REPORT_GROUPS[name]()
    for m in (1, 2, 3):
        for act in all_actions(group, m):
            d = Digroup(group, act)
            assert d.check_axioms().results == former_check_axioms(d).results


def forged_group(rng, n):
    """A table with identity 0 and inverses, usually not associative
    (FiniteGroup with strict=False)."""
    while True:
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        mul[0] = list(range(n))
        for g in range(n):
            mul[g][0] = g
        try:
            return FiniteGroup(mul, name="forged", strict=False)
        except GroupTableError:
            pass


def test_check_axioms_reports_like_the_former_scan_on_forged_tables():
    # random action tables set without the GAction constructor, some over
    # non-associative tables: every report, failures and first failing
    # triple included, equals the former scan's
    rng = random.Random(23)
    groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.symmetric3()]
    failed = set()
    for _ in range(120):
        group = forged_group(rng, rng.randint(2, 4)) if rng.random() < 0.3 \
            else rng.choice(groups)
        m = rng.randint(1, 3)
        table = [[rng.randrange(m) for _ in range(m)] for _ in range(group.order)]
        if rng.random() < 0.5:
            table[group.identity] = list(range(m))
        act = GAction.__new__(GAction)
        act.group, act.set_size, act.act = group, m, tuple(map(tuple, table))
        d = Digroup(group, act)
        report = d.check_axioms()
        assert report.results == former_check_axioms(d).results
        failed.update(report.failures())
    # the identities that such tables can break each fail somewhere
    assert failed == {"unit_left_vdash", "inverses", "assoc_vdash", "assoc_dashv",
                      "mixed_bar"}


def test_product_tables_follow_the_element_order():
    d = Digroup(FiniteGroup.symmetric3(), all_actions(FiniteGroup.symmetric3(), 3)[-1])
    V, D = d.tables()
    assert d.tables() is d.tables()
    elems = d.elements
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            assert elems[V[i][j]] == d.vdash(x, y)
            assert elems[D[i][j]] == d.dashv(x, y)
    # an action entry outside the halo is refused, as vdash refuses it
    act = GAction.__new__(GAction)
    act.group, act.set_size, act.act = d.group, 2, ((0, 1),) * 5 + ((0, 2),)
    with pytest.raises(IndexError):
        Digroup(d.group, act).check_axioms()


def test_group_and_action_checks_name_a_known_first_triple():
    # (1 1) 2 = 2 but 1 (1 2) = 1 1 = 0; every earlier triple associates
    with pytest.raises(GroupTableError) as err:
        FiniteGroup([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    assert str(err.value) == "table not associative at (1, 1, 2)"
    # C3 with both non-identity elements swapping two points: 2.0 = 1 but 1.(1.0) = 0
    with pytest.raises(ValueError) as err:
        GAction(FiniteGroup.cyclic(3), 2, [[0, 1], [1, 0], [1, 0]])
    assert str(err.value) == "action law fails at (1,1,0)"


def former_group(mul):
    """FiniteGroup(mul) as the former constructor decided it: the identity
    and inverse checks, then the former associativity scan."""
    group = FiniteGroup(mul, strict=False)
    bad = former_associativity_failure(group)
    if bad is not None:
        raise GroupTableError("table not associative at %r" % (bad,))
    return group.mul


def test_group_and_action_checks_fail_like_the_former_scans_on_forged_tables():
    # the row scans against the former triple-by-triple scans: the same
    # first failing triple, exception type and message, on group and action
    # tables with one entry changed and on random action tables; an action
    # entry at times outside the halo, refused by its own ValueError
    # (expected_action)
    rng = random.Random(31)
    c2 = FiniteGroup.cyclic(2)
    groups = [FiniteGroup.cyclic(4), FiniteGroup.cyclic(6), FiniteGroup.symmetric3(),
              FiniteGroup.direct_product(c2, c2)]
    group_errors, action_errors = set(), set()
    for group in groups:
        assert group.associativity_failure() is None
        n = group.order
        for a in range(1, n):
            for b in range(1, n):
                for k in range(n):
                    mul = [list(row) for row in group.mul]
                    mul[a][b] = k
                    got = outcome(lambda: FiniteGroup(mul).mul)
                    assert got == outcome(lambda: former_group(mul)), (group.name, a, b, k)
                    group_errors.add(got[1] if got[0] is GroupTableError else None)
        for m in (2, 3):
            for act in all_actions(group, m):
                for g in range(n):
                    if g == group.identity:
                        continue
                    for a in range(m):
                        table = [list(row) for row in act.act]
                        table[g][a] = rng.randrange(-1, m + 1)   # at times outside the halo
                        got = outcome(lambda: GAction(group, m, table).act)
                        assert got == expected_action(group, m, table)
                        action_errors.add(got[1] if got[0] is ValueError else None)
    for _ in range(300):
        group = forged_group(rng, rng.randint(2, 4)) if rng.random() < 0.3 \
            else rng.choice(groups)
        m, low = rng.randint(1, 3), rng.choice((0, 0, -1))
        table = [[rng.randrange(low, m - low) for _ in range(m)] for _ in range(group.order)]
        if rng.random() < 0.9:
            table[group.identity] = list(range(m))
        got = outcome(lambda: GAction(group, m, table).act)
        assert got == expected_action(group, m, table)
        action_errors.add(got[1] if got[0] is ValueError else None)
    # many distinct first failures, the second and third slots running
    # through the group and the halo
    assert len(group_errors) > 20 and len(action_errors) > 10
    assert {"table not associative at (1, 4, 5)", "action law fails at (1,4,2)",
            "action entry -1 at (1,0) is outside range(2)"} <= group_errors | action_errors


def expected_action(group, m, table):
    """The outcome of former_action_check on a table of the right shape
    whose entries all lie in range(m), or whose identity row is wrong;
    otherwise the refusal of the first entry outside range(m), in row
    order."""
    former = outcome(lambda: (former_action_check(group, m, table), tuple(map(tuple, table)))[1])
    outside = [(b, g, a) for g, row in enumerate(table) for a, b in enumerate(row)
               if not 0 <= b < m]
    if not outside or former == (ValueError, "identity does not act trivially"):
        return former
    return ValueError, "action entry %d at (%d,%d) is outside range(%d)" % (outside[0] + (m,))


def test_generating_sets_and_the_law_scan_match_the_former_walks():
    # S_G against the former greedy closure; generated_homomorphism's
    # entries and maps against its former own closure walk, on t tables
    # with one entry perturbed in turn, and on the generators alone
    groups = [FiniteGroup.cyclic(n) for n in range(1, 7)] + [
        FiniteGroup.symmetric3(),
        FiniteGroup.direct_product(FiniteGroup.symmetric3(), FiniteGroup.cyclic(2))]
    for group in groups:
        assert group.generators() == former_table_generators(group.mul, group.identity)
    failures = set()
    for seed in range(1000, 1040):
        d, q, _ = sample_pair(seed)
        t, one = to_semilinear(q).t, Matrix.identity(QQ, q.dim)
        on_gens = {s: t[s] for s in d.group.generators()}
        assert generated_homomorphism(on_gens, d.group, one) \
            == former_generated_homomorphism(on_gens, d.group, one)
        for key, bad in corrupted_tables(t):
            got = generated_homomorphism(bad, d.group, one)
            assert got == former_generated_homomorphism(bad, d.group, one), (seed, key)
            failures.add(got[1])
    assert len(failures - {(True, None)}) > 5
