"""A small worked instance with a nonsplit extension.

The digroup is the order-two group with a two-element halo and trivial
action.  On a two-dimensional space, the right family acts by the sign
character and the left family by sign times a halo-dependent idempotent:

    P_0 = [[1, 0], [0, 0]]      P_1 = [[1, 0], [1, 0]]

The span of the second basis vector is stable, the quotient is the sign
line, and the resulting extension class is nonzero: the sequence does
not split even though both ends are one-dimensional.
"""

from __future__ import annotations

from .digroup import Digroup, FiniteGroup, GAction
from .linalg import Matrix, QQ
from .reps import Representation, require_valid, sub_quotient
from .ext import short_exact


def demo_digroup():
    group = FiniteGroup.cyclic(2)
    return Digroup(group, GAction.trivial(group, 2))


def demo_representation(d=None):
    if d is None:
        d = demo_digroup()
    sign = {0: QQ.of(1), 1: QQ.of(-1)}
    p = {
        0: Matrix.from_rows(QQ, [[1, 0], [0, 0]]),
        1: Matrix.from_rows(QQ, [[1, 0], [1, 0]]),
    }
    lam = {(g, a): p[a].scale(sign[g]) for g in range(2) for a in range(2)}
    rho = {(g, a): Matrix.identity(QQ, 2).scale(sign[g])
           for g in range(2) for a in range(2)}
    return require_valid(Representation(d, 2, lam, rho))


def demo_subspace_basis():
    """The stable line: the span of the second basis vector."""
    return [Matrix.column(QQ, [0, 1])]


def demo_ses():
    """The bundled nonsplit short exact sequence."""
    v = demo_representation()
    w, q, iota, pi = sub_quotient(v, demo_subspace_basis())
    return short_exact(w, v, q, iota, pi)
