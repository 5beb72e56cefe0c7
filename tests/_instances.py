"""Seeded random instance helpers shared across the test modules."""

from itertools import permutations

from digrep import (QQ, Digroup, FiniteGroup, Matrix, all_actions, from_semilinear,
                    random_representation, random_semilinear, seeded_rng)
from digrep.halo import BEModule, induction_L, underlying_module

GROUPS = {
    "C1": lambda: FiniteGroup.cyclic(1),
    "C2": lambda: FiniteGroup.cyclic(2),
    "C3": lambda: FiniteGroup.cyclic(3),
    "C6": lambda: FiniteGroup.cyclic(6),
    "S3": FiniteGroup.symmetric3,
}


def ladder_groups():
    """C1-C12, S3, C2xC2, C2xC4, C3xC3 and S3xC2."""
    c2, c3, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(4)
    return [FiniteGroup.cyclic(n) for n in range(1, 13)] + [
        FiniteGroup.symmetric3(), FiniteGroup.direct_product(c2, c2),
        FiniteGroup.direct_product(c2, c4), FiniteGroup.direct_product(c3, c3),
        FiniteGroup.direct_product(FiniteGroup.symmetric3(), c2)]


def symmetric4():
    """S4 from the composition table of the permutations of 4 points."""
    perms = list(permutations(range(4)))
    idx = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[idx[tuple(p[k] for k in q)] for q in perms] for p in perms], name="S4")


def sample_digroup(rng, halo_sizes=(1, 2, 3), group_names=None):
    name = rng.choice(sorted(group_names or GROUPS))
    group = GROUPS[name]()
    m = rng.choice(list(halo_sizes))
    actions = all_actions(group, m)
    action = actions[rng.randrange(len(actions))]
    return Digroup(action.group, action)


def sample_pair(seed, max_dim=3, halo_sizes=(1, 2, 3), group_names=None, field=QQ):
    """A digroup with two random representations over field, deterministic per seed."""
    rng = seeded_rng(seed)
    d = sample_digroup(rng, halo_sizes, group_names)
    q = random_representation(d, rng.randint(1, max_dim), rng, field)
    w = random_representation(d, rng.randint(1, max_dim), rng, field)
    return d, q, w


def sample_semilinear_pair(seed, max_dim=3, halo_sizes=(1, 2, 3),
                           group_names=None):
    rng = seeded_rng(seed)
    d = sample_digroup(rng, halo_sizes, group_names)
    a = random_semilinear(d, rng.randint(0, max_dim), rng)
    b = random_semilinear(d, rng.randint(0, max_dim), rng)
    return d, a, b


def induced_pair(seed, field=QQ, group_names=None):
    """A digroup d, the induced representation L = from_semilinear(induction_L(M, d), d)
    of the band module M of a random 1-dimensional semilinear object, and a
    random representation W of dimension 1 or 2, over field.

    The t_g of L permute its halo blocks, so these pairs move the halo,
    unlike the sign characters of sample_pair.
    """
    rng = seeded_rng(seed)
    d = sample_digroup(rng, group_names=group_names)
    m = underlying_module(random_semilinear(d, 1, rng, field))
    lift = from_semilinear(induction_L(m, d), d)
    w = random_representation(d, rng.randint(1, 2), rng, field)
    return d, lift, w


def random_band_module(rng, halo, dim, field=QQ):
    """A BEModule whose eps_a differ from one halo index to the next (for
    dim > 1): the idempotents [[I_r, 0], [A_a, 0]] (eps_a eps_b = eps_a),
    conjugated by S = L D L^T, L unitriangular and D diagonal in {1, 2, 3}."""
    r = rng.randint(1, dim - 1) if dim > 1 else rng.randint(0, dim)
    lower = Matrix.from_rows(field, [[1 if i == j else rng.randint(-2, 2) if i > j else 0
                                      for j in range(dim)] for i in range(dim)])
    diag = Matrix.from_rows(field, [[rng.randint(1, 3) if i == j else 0 for j in range(dim)]
                                    for i in range(dim)])
    s = lower * diag * lower.transpose()
    s_inv = s.inverse()
    eps = {}
    for a in range(halo):
        rows = [[int(i == j) if i < r else rng.randint(-3, 3) if j < r else 0
                 for j in range(dim)] for i in range(dim)]
        eps[a] = s * Matrix.from_rows(field, rows) * s_inv
    return BEModule(dim, eps)


def corrupted_tables(table):
    """(key, a copy of table with table[key] changed), for each key of a
    table of matrices: first with 1 added to the first entry, then negated
    (where that changes the matrix)."""
    for key, m in table.items():
        f = m.field
        bump = Matrix.from_rows(f, [[f.of(int(i == j == 0)) for j in range(m.cols)]
                                    for i in range(m.rows)])
        for changed in (m + bump, -m):
            if changed != m:
                yield key, {**table, key: changed}
