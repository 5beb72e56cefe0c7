"""Seeded random instance helpers shared across the test modules."""

from digrep import (QQ, Digroup, FiniteGroup, all_actions, random_representation,
                    random_semilinear, seeded_rng)

GROUPS = {
    "C1": lambda: FiniteGroup.cyclic(1),
    "C2": lambda: FiniteGroup.cyclic(2),
    "C3": lambda: FiniteGroup.cyclic(3),
    "C6": lambda: FiniteGroup.cyclic(6),
    "S3": FiniteGroup.symmetric3,
}


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
