"""Independent reference semantics used to cross-check the kernel.

Interval expressions are evaluated into DM4, the four-element De Morgan
algebra on the lattice 2x2 whose two middle elements are fixed by the
involution.  DM4 generates the variety of De Morgan algebras, so two
expressions are equal in the free algebra iff they agree under every DM4
assignment.

Face formulas are evaluated under three-state valuations: each variable is
set to 0, set to 1, or left unconstrained.

Structural equality of terms is decided by rebuilding both terms with every
interval and face leaf normalized and comparing the results.
"""

from itertools import product

from cctt.interval import (
    F0, F1, FAnd, FEq, FOr,
    I0, I1, IJoin, IMeet, INeg, IVar,
    face_normalize, face_vars, iv_normalize, iv_vars,
)
from cctt.syntax import ZERO_DEPTH, Renaming, rename_term

# DM4 elements as pairs ordered componentwise; the involution reverses the
# order and swaps the components, fixing (0,1) and (1,0).
DM4 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def dm4_neg(x):
    return (1 - x[1], 1 - x[0])


def dm4_meet(x, y):
    return (min(x[0], y[0]), min(x[1], y[1]))


def dm4_join(x, y):
    return (max(x[0], y[0]), max(x[1], y[1]))


def dm4_eval(r, env):
    match r:
        case I0():
            return (0, 0)
        case I1():
            return (1, 1)
        case IVar(ix):
            return env[ix]
        case INeg(arg):
            return dm4_neg(dm4_eval(arg, env))
        case IMeet(l, rr):
            return dm4_meet(dm4_eval(l, env), dm4_eval(rr, env))
        case IJoin(l, rr):
            return dm4_join(dm4_eval(l, env), dm4_eval(rr, env))
    raise TypeError(r)


def dm4_equal(r, s):
    """Oracle for equality in the free De Morgan algebra."""
    vs = sorted(iv_vars(r) | iv_vars(s))
    for values in product(DM4, repeat=len(vs)):
        env = dict(zip(vs, values))
        if dm4_eval(r, env) != dm4_eval(s, env):
            return False
    return True


def face_eval(phi, valuation):
    """valuation maps each variable to 0, 1, or None (unconstrained)."""
    match phi:
        case F0():
            return False
        case F1():
            return True
        case FEq(ix, end):
            return valuation.get(ix) == end
        case FAnd(l, r):
            return face_eval(l, valuation) and face_eval(r, valuation)
        case FOr(l, r):
            return face_eval(l, valuation) or face_eval(r, valuation)
    raise TypeError(phi)


def face_valuations(vs):
    for values in product((None, 0, 1), repeat=len(vs)):
        yield dict(zip(vs, values))


def face_entails_oracle(phi, psi):
    vs = sorted(face_vars(phi) | face_vars(psi))
    return all(
        face_eval(psi, v)
        for v in face_valuations(vs)
        if face_eval(phi, v)
    )


def face_equal_oracle(phi, psi):
    return face_entails_oracle(phi, psi) and face_entails_oracle(psi, phi)


class _LeafNormalizing(Renaming):
    """The identity renaming, which also normalizes every interval and face
    leaf it rebuilds."""

    def iexpr(self, r, depth):
        return iv_normalize(super().iexpr(r, depth))

    def face(self, phi, depth):
        return face_normalize(super().face(phi, depth))


_LEAF_NORMALIZING = _LeafNormalizing()


def canonical(t):
    """Normalize every interval and face leaf; indices are untouched."""
    return rename_term(t, _LEAF_NORMALIZING, ZERO_DEPTH)
