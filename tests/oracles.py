"""Independent reference semantics used to cross-check the kernel.

Interval expressions are evaluated into DM4, the four-element De Morgan
algebra on the lattice 2x2 whose two middle elements are fixed by the
involution.  DM4 generates the variety of De Morgan algebras, so two
expressions are equal in the free algebra iff they agree under every DM4
assignment.

Face formulas are evaluated under three-state valuations: each variable is
set to 0, set to 1, or left unconstrained.  The kernel keeps a face as its
normal form, so the oracle keeps faces as trees of its own: the tuples
TBOT, TTOP, ("eq", ix, end), ("and", l, r) and ("or", l, r).
`kernel_face` builds the kernel's face from a tree, and `face_tree` reads a
kernel face back as one (the join of its clauses).  Substituting interval
expressions into a face is checked by evaluating each expression under the
valuation in strong Kleene logic (`iv_kleene`): an expression is forced to
an endpoint on a face exactly when its Kleene value is that endpoint.

Structural equality of terms is decided by rebuilding both terms with every
interval leaf normalized and comparing the results.
"""

from itertools import product

from cctt.interval import (
    FAnd, FBOT, FEq, FOr, FTOP,
    I0, I1, IJoin, IMeet, INeg, IVar,
    iv_normalize, iv_vars,
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


TBOT = ("bot",)
TTOP = ("top",)


def face_eval(tree, valuation):
    """valuation maps each variable to 0, 1, or None (unconstrained)."""
    match tree:
        case ("bot",):
            return False
        case ("top",):
            return True
        case ("eq", ix, end):
            return valuation.get(ix) == end
        case ("and", l, r):
            return face_eval(l, valuation) and face_eval(r, valuation)
        case ("or", l, r):
            return face_eval(l, valuation) or face_eval(r, valuation)
    raise TypeError(tree)


def face_tree_vars(tree):
    match tree:
        case ("eq", ix, _):
            return {ix}
        case ("and", l, r) | ("or", l, r):
            return face_tree_vars(l) | face_tree_vars(r)
    return set()


def kernel_face(tree):
    """The kernel's face for a tree, built with the kernel's builders."""
    match tree:
        case ("bot",):
            return FBOT
        case ("top",):
            return FTOP
        case ("eq", ix, end):
            return FEq(ix, end)
        case ("and", l, r):
            return FAnd(kernel_face(l), kernel_face(r))
        case ("or", l, r):
            return FOr(kernel_face(l), kernel_face(r))
    raise TypeError(tree)


def face_tree(phi):
    """A kernel face read back as a tree: the join of its clauses, each
    the meet of its literals."""
    out = TBOT
    for clause in phi:
        meet = TTOP
        for ix, end in clause:
            meet = ("and", meet, ("eq", ix, end))
        out = ("or", out, meet)
    return out


def iv_kleene(r, valuation):
    """r under a three-state valuation in strong Kleene logic: 0, 1, or
    None when the valuation does not force it."""
    match r:
        case I0():
            return 0
        case I1():
            return 1
        case IVar(ix):
            return valuation.get(ix)
        case INeg(arg):
            x = iv_kleene(arg, valuation)
            return None if x is None else 1 - x
        case IMeet(l, rr):
            x, y = iv_kleene(l, valuation), iv_kleene(rr, valuation)
            return 0 if 0 in (x, y) else 1 if x == y == 1 else None
        case IJoin(l, rr):
            x, y = iv_kleene(l, valuation), iv_kleene(rr, valuation)
            return 1 if 1 in (x, y) else 0 if x == y == 0 else None
    raise TypeError(r)


def face_eval_under(tree, assignment, valuation):
    """The tree with each variable ix replaced by the interval expression
    assignment[ix] (every variable of the tree has one), under valuation."""
    pulled = {ix: iv_kleene(r, valuation) for ix, r in assignment.items()}
    return face_eval(tree, pulled)


def face_valuations(vs):
    for values in product((None, 0, 1), repeat=len(vs)):
        yield dict(zip(vs, values))


def face_clauses_oracle(tree, vs):
    """The normal form of a tree over the variables vs, read off its
    valuations: the least partial assignments (as frozensets of (ix, end))
    on which it holds."""
    holds = [frozenset((ix, e) for ix, e in v.items() if e is not None)
             for v in face_valuations(vs) if face_eval(tree, v)]
    return {c for c in holds if not any(d < c for d in holds)}


def face_entails_oracle(phi, psi):
    """Entailment of two trees."""
    vs = sorted(face_tree_vars(phi) | face_tree_vars(psi))
    return all(
        face_eval(psi, v)
        for v in face_valuations(vs)
        if face_eval(phi, v)
    )


def face_equal_oracle(phi, psi):
    return face_entails_oracle(phi, psi) and face_entails_oracle(psi, phi)


class _LeafNormalizing(Renaming):
    """The identity renaming, which also normalizes every interval leaf it
    rebuilds (faces are normal forms already)."""

    def iexpr(self, r, depth):
        return iv_normalize(super().iexpr(r, depth))


_LEAF_NORMALIZING = _LeafNormalizing()


def canonical(t):
    """Normalize every interval leaf; indices are untouched."""
    return rename_term(t, _LEAF_NORMALIZING, ZERO_DEPTH)
