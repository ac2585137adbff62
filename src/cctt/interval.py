"""The interval and the face lattice.

Interval expressions form the free De Morgan algebra on the interval
variables in scope; equality is decided through a canonical disjunctive
normal form (a join of meets of literals, kept as an antichain of clauses).
Face formulas form the free distributive lattice on generators (i=0), (i=1)
quotiented by (i=0) /\\ (i=1) = 0.

Variables are de Bruijn indices of the interval sort.
"""

from dataclasses import dataclass
from functools import reduce


# --------------------------------------------------------------------------
# Interval expressions
# --------------------------------------------------------------------------

class IntervalExpr:
    __slots__ = ()


@dataclass(frozen=True)
class I0(IntervalExpr):
    def __repr__(self):
        return "0"


@dataclass(frozen=True)
class I1(IntervalExpr):
    def __repr__(self):
        return "1"


@dataclass(frozen=True)
class IVar(IntervalExpr):
    ix: int

    def __repr__(self):
        return f"i{self.ix}"


@dataclass(frozen=True)
class INeg(IntervalExpr):
    arg: "IntervalExpr"

    def __repr__(self):
        return f"~{self.arg!r}"


@dataclass(frozen=True)
class IMeet(IntervalExpr):
    left: "IntervalExpr"
    right: "IntervalExpr"

    def __repr__(self):
        return f"({self.left!r} /\\ {self.right!r})"


@dataclass(frozen=True)
class IJoin(IntervalExpr):
    left: "IntervalExpr"
    right: "IntervalExpr"

    def __repr__(self):
        return f"({self.left!r} \\/ {self.right!r})"


IZERO = I0()
IONE = I1()

# A literal is (variable index, negated?); a clause is a frozenset of
# literals (their meet); a DNF is a frozenset of clauses (their join).
# No clauses at all is 0; the single empty clause is 1.

_TOP = frozenset([frozenset()])
_BOT = frozenset()


def _absorb(clauses):
    """Drop clauses strictly containing another clause (absorption law)."""
    kept = []
    for c in sorted(clauses, key=len):
        if not any(k <= c for k in kept):
            kept.append(c)
    return frozenset(kept)


def _dnf_join(a, b):
    return _absorb(a | b)


def _dnf_meet(a, b):
    return _absorb(frozenset(ca | cb for ca in a for cb in b))


def iv_dnf(r, positive=True):
    match r:
        case I0():
            return _BOT if positive else _TOP
        case I1():
            return _TOP if positive else _BOT
        case IVar(ix):
            return frozenset([frozenset([(ix, not positive)])])
        case INeg(arg):
            return iv_dnf(arg, not positive)
        case IMeet(l, rr):
            op = _dnf_meet if positive else _dnf_join
            return op(iv_dnf(l, positive), iv_dnf(rr, positive))
        case IJoin(l, rr):
            op = _dnf_join if positive else _dnf_meet
            return op(iv_dnf(l, positive), iv_dnf(rr, positive))
    raise TypeError(f"not an interval expression: {r!r}")


def _lit_term(lit):
    ix, neg = lit
    return INeg(IVar(ix)) if neg else IVar(ix)


def _clause_key(clause):
    return (len(clause), sorted(clause))


def iv_from_dnf(clauses):
    if not clauses:
        return IZERO
    if clauses == _TOP:
        return IONE
    joins = []
    for clause in sorted(clauses, key=_clause_key):
        lits = [_lit_term(l) for l in sorted(clause)]
        joins.append(reduce(IMeet, lits))
    return reduce(IJoin, joins)


def iv_normalize(r):
    return iv_from_dnf(iv_dnf(r))


def iv_equal(r, s):
    return iv_dnf(r) == iv_dnf(s)


def iv_is_zero(r):
    return iv_dnf(r) == _BOT


def iv_is_one(r):
    return iv_dnf(r) == _TOP


def iv_vars(r):
    match r:
        case IVar(ix):
            return {ix}
        case INeg(arg):
            return iv_vars(arg)
        case IMeet(l, rr) | IJoin(l, rr):
            return iv_vars(l) | iv_vars(rr)
        case _:
            return set()


def iv_map_vars(r, fn):
    """Replace every variable ix by the expression fn(ix)."""
    match r:
        case IVar(ix):
            return fn(ix)
        case INeg(arg):
            return INeg(iv_map_vars(arg, fn))
        case IMeet(l, rr):
            return IMeet(iv_map_vars(l, fn), iv_map_vars(rr, fn))
        case IJoin(l, rr):
            return IJoin(iv_map_vars(l, fn), iv_map_vars(rr, fn))
        case _:
            return r


# --------------------------------------------------------------------------
# Face formulas
# --------------------------------------------------------------------------

class FaceFormula:
    __slots__ = ()


@dataclass(frozen=True)
class F0(FaceFormula):
    def __repr__(self):
        return "0F"


@dataclass(frozen=True)
class F1(FaceFormula):
    def __repr__(self):
        return "1F"


@dataclass(frozen=True)
class FEq(FaceFormula):
    ix: int
    end: int  # 0 or 1

    def __repr__(self):
        return f"(i{self.ix}={self.end})"


@dataclass(frozen=True)
class FAnd(FaceFormula):
    left: "FaceFormula"
    right: "FaceFormula"

    def __repr__(self):
        return f"({self.left!r} /\\ {self.right!r})"


@dataclass(frozen=True)
class FOr(FaceFormula):
    left: "FaceFormula"
    right: "FaceFormula"

    def __repr__(self):
        return f"({self.left!r} \\/ {self.right!r})"


FBOT = F0()
FTOP = F1()


def _face_clause_consistent(clause):
    seen = {}
    for ix, end in clause:
        if seen.setdefault(ix, end) != end:
            return False
    return True


def face_dnf(phi):
    match phi:
        case F0():
            return _BOT
        case F1():
            return _TOP
        case FEq(ix, end):
            return frozenset([frozenset([(ix, end)])])
        case FAnd(l, r):
            raw = _dnf_meet(face_dnf(l), face_dnf(r))
            return _absorb(frozenset(c for c in raw if _face_clause_consistent(c)))
        case FOr(l, r):
            return _dnf_join(face_dnf(l), face_dnf(r))
    raise TypeError(f"not a face formula: {phi!r}")


def face_from_dnf(clauses):
    if not clauses:
        return FBOT
    if clauses == _TOP:
        return FTOP
    joins = []
    for clause in sorted(clauses, key=_clause_key):
        gens = [FEq(ix, end) for ix, end in sorted(clause)]
        joins.append(reduce(FAnd, gens))
    return reduce(FOr, joins)


def face_normalize(phi):
    return face_from_dnf(face_dnf(phi))


def face_equal(phi, psi):
    return face_dnf(phi) == face_dnf(psi)


def face_entails(phi, psi):
    """True iff every admissible valuation satisfying phi satisfies psi."""
    pd, qd = face_dnf(phi), face_dnf(psi)
    return all(any(q <= c for q in qd) for c in pd)


def face_is_true(phi):
    return face_dnf(phi) == _TOP


def face_is_false(phi):
    return face_dnf(phi) == _BOT


def face_and(phi, psi):
    return face_from_dnf(face_dnf(FAnd(phi, psi)))


def face_or(phi, psi):
    return face_from_dnf(face_dnf(FOr(phi, psi)))


def face_of_equation(r, b):
    """The face on which the interval expression r equals the endpoint b."""
    match r:
        case I0():
            return FTOP if b == 0 else FBOT
        case I1():
            return FTOP if b == 1 else FBOT
        case IVar(ix):
            return FEq(ix, b)
        case INeg(arg):
            return face_of_equation(arg, 1 - b)
        case IMeet(l, rr):
            if b == 1:
                return face_and(face_of_equation(l, 1), face_of_equation(rr, 1))
            return face_or(face_of_equation(l, 0), face_of_equation(rr, 0))
        case IJoin(l, rr):
            if b == 0:
                return face_and(face_of_equation(l, 0), face_of_equation(rr, 0))
            return face_or(face_of_equation(l, 1), face_of_equation(rr, 1))
    raise TypeError(f"not an interval expression: {r!r}")


def face_map_vars(phi, fn):
    """Replace each generator (i=b) by face_of_equation(fn(i), b); normalized."""
    match phi:
        case F0() | F1():
            return phi
        case FEq(ix, end):
            return face_of_equation(fn(ix), end)
        case FAnd(l, r):
            return face_and(face_map_vars(l, fn), face_map_vars(r, fn))
        case FOr(l, r):
            return face_or(face_map_vars(l, fn), face_map_vars(r, fn))
    raise TypeError(f"not a face formula: {phi!r}")


def face_substitute(phi, assignment):
    """assignment maps variable indices to IntervalExprs (identity if absent)."""
    return face_map_vars(
        phi, lambda ix: assignment[ix] if ix in assignment else IVar(ix)
    )


def face_vars(phi):
    match phi:
        case FEq(ix, _):
            return {ix}
        case FAnd(l, r) | FOr(l, r):
            return face_vars(l) | face_vars(r)
        case _:
            return set()


def face_clauses(phi):
    """The normalized clauses of phi, each as a dict from variable to endpoint.

    Useful for case-splitting a restriction: phi holds iff one clause holds.
    """
    return [dict(sorted(c)) for c in sorted(face_dnf(phi), key=_clause_key)]
