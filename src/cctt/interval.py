"""The interval and the face lattice.

Interval expressions form the free De Morgan algebra on the interval
variables in scope; equality is decided through a canonical disjunctive
normal form (a join of meets of literals, kept as an antichain of clauses).

Face formulas form the free distributive lattice on generators (i=0), (i=1)
quotiented by (i=0) /\\ (i=1) = 0.  A face *is* its normal form, as in
cubicaltt: a `Face` is a frozenset of clauses, each a frozenset of
(ix, end) literals read as their meet, the face being their join.  No
clause sets a variable to both ends and none contains another.  The
builders `FEq`, `FAnd`, `FOr` and `face_join` drop inconsistent clauses and
absorb once, when the face is built, and so does a substitution
(`face_map_vars`); a renaming (`face_rename`) maps literals one to one and
absorbs nothing.  So two faces are equal iff they are `==`, the hash is
cached by the frozenset, and entailment compares clauses by subset.

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


def _absorb(clauses, into=frozenset):
    """Drop repeated clauses and clauses strictly containing another
    (absorption law); the survivors are collected with `into`."""
    kept = []
    for c in sorted(clauses, key=len):
        if not any(k <= c for k in kept):
            kept.append(c)
    return into(kept)


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

class Face(frozenset):
    """A face formula in normal form: the join of its clauses, each the
    meet of its (ix, end) literals.  Build faces with `FEq`, `FAnd`, `FOr`
    and `face_join`, which keep the clauses consistent and absorbed."""

    __slots__ = ()

    def __repr__(self):
        return face_show(self, lambda ix, end: f"(i{ix}={end})", "0F", "1F")


FBOT = Face()
FTOP = Face((frozenset(),))


def face_show(phi, literal, bot, top):
    """phi as text: its clauses in `_clause_key` order, each the meet of
    its literals (`literal(ix, end)`) in order, nested to the left."""
    if not phi:
        return bot
    if phi == FTOP:
        return top
    joins = []
    for clause in sorted(phi, key=_clause_key):
        lits = [literal(ix, end) for ix, end in sorted(clause)]
        joins.append(reduce(lambda l, r: f"({l} /\\ {r})", lits))
    return reduce(lambda l, r: f"({l} \\/ {r})", joins)


def _consistent(clause):
    return len({ix for ix, _ in clause}) == len(clause)


def FEq(ix, end):
    """The generator (i=end), end being 0 or 1."""
    return Face((frozenset(((ix, end),)),))


def FAnd(phi, psi):
    """The meet of two faces."""
    if phi == psi or psi == FTOP or not phi:
        return phi
    if phi == FTOP or not psi:
        return psi
    return _absorb((u for c in phi for d in psi if _consistent(u := c | d)),
                   Face)


def FOr(phi, psi):
    """The join of two faces."""
    if phi == psi or not psi or phi == FTOP:
        return phi
    if not phi or psi == FTOP:
        return psi
    return _absorb(phi | psi, Face)


def face_join(faces):
    """The join of any number of faces, absorbed once."""
    return _absorb((c for phi in faces for c in phi), Face)


def face_dnf(phi):
    """The clauses of phi: the face itself, a frozenset of clauses."""
    return phi


def face_entails(phi, psi):
    """True iff every admissible valuation satisfying phi satisfies psi:
    each clause of phi contains a clause of psi."""
    return all(any(q <= c for q in psi) for c in phi)


def face_is_true(phi):
    return phi == FTOP


def face_is_false(phi):
    return not phi


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
                return FAnd(face_of_equation(l, 1), face_of_equation(rr, 1))
            return FOr(face_of_equation(l, 0), face_of_equation(rr, 0))
        case IJoin(l, rr):
            if b == 0:
                return FAnd(face_of_equation(l, 0), face_of_equation(rr, 0))
            return FOr(face_of_equation(l, 1), face_of_equation(rr, 1))
    raise TypeError(f"not an interval expression: {r!r}")


def face_map_vars(phi, fn):
    """Replace each generator (i=b) by face_of_equation(fn(i), b).  fn is
    called once per variable.  Only when fn is not an injective renaming
    can clauses meet, vanish or contain others, so only then is the result
    absorbed again."""
    image = {}
    for clause in phi:
        for ix, _ in clause:
            if ix not in image:
                image[ix] = fn(ix)
    targets = {r.ix for r in image.values() if type(r) is IVar}
    if len(targets) == len(image):
        return face_rename(phi, lambda ix: image[ix].ix)
    clauses = []
    for clause in phi:
        meet = FTOP
        for ix, end in clause:
            meet = FAnd(meet, face_of_equation(image[ix], end))
        clauses.extend(meet)
    return _absorb(clauses, Face)


def face_rename(phi, fn):
    """phi with each variable ix renamed to fn(ix).  fn must be injective
    on phi's variables, as a weakening or strengthening is; then clauses
    map one to one and nothing needs absorbing again."""
    return Face(frozenset((fn(ix), end) for ix, end in c) for c in phi)


def face_substitute(phi, assignment):
    """assignment maps variable indices to IntervalExprs (identity if absent)."""
    return face_map_vars(
        phi, lambda ix: assignment[ix] if ix in assignment else IVar(ix)
    )


def face_vars(phi):
    return {ix for clause in phi for ix, _ in clause}


def face_split(phi):
    """The clauses of phi, each as a face of its own, in print order."""
    return [Face((c,)) for c in sorted(phi, key=_clause_key)]


def face_clauses(phi):
    """The clauses of phi in print order, each as a dict from variable to
    endpoint.

    Useful for case-splitting a restriction: phi holds iff one clause holds.
    """
    return [dict(sorted(c)) for c in sorted(phi, key=_clause_key)]
