"""The interval and the face lattice, each element held as its normal form.

Interval expressions form the free De Morgan algebra on the interval
variables in scope, and face formulas the free distributive lattice on
generators (i=0), (i=1) quotiented by (i=0) /\\ (i=1) = 0.  Both are held
the same way, as cubicaltt holds faces: an element *is* its disjunctive
normal form, a frozenset of clauses, each a frozenset of (ix, end) literals
read as their meet, the element being their join.  No clause contains
another.  The literal (ix, 1) is the variable ix, or the generator (i=1),
and (ix, 0) its reversal ~ix, or the generator (i=0).  An `IExpr` clause
may hold a variable and its reversal together; a `Face` drops such a
clause, so the face on which r equals 1 is the consistent part of r.

The builders (`IVar`, `INeg`, `IMeet`, `IJoin` and `IZERO`, `IONE`; `FEq`,
`FAnd`, `FOr`, `face_join` and `FBOT`, `FTOP`) absorb once, when an element
is built, and so does a substitution (`iv_map_vars`); a renaming
(`iv_rename`) maps literals one to one and absorbs nothing.  So two
elements are equal iff they are `==`, the hash is cached by the frozenset,
and face entailment compares clauses by subset.

Variables are de Bruijn indices of the interval sort.
"""

from .errors import FaceTooLarge

# A meet or a join (`face_join` too) forming more clauses raises
# `FaceTooLarge`: far above the 28 of the largest normal form in the
# corpus and the benchmark's inputs.
MAX_CLAUSES = 1024


class IExpr(frozenset):
    """An interval expression in normal form.  Build it with `IVar`,
    `INeg`, `IMeet` and `IJoin`, which keep the clauses absorbed."""

    __slots__ = ()

    @staticmethod
    def order(literal):
        """Print order of literals: by variable, a variable before its
        reversal."""
        return literal[0], -literal[1]

    def __repr__(self):
        return iv_show(self, lambda ix, end: f"i{ix}" if end else f"~i{ix}")


class Face(frozenset):
    """A face formula in normal form.  Build it with `FEq`, `FAnd`, `FOr`
    and `face_join`, which keep the clauses consistent and absorbed."""

    __slots__ = ()

    @staticmethod
    def order(literal):
        """Print order of literals: by variable, (i=0) before (i=1)."""
        return literal

    def __repr__(self):
        return iv_show(self, lambda ix, end: f"(i{ix}={end})", "0F", "1F")


# No clauses at all is 0; the single empty clause is 1.
_TOP = frozenset((frozenset(),))
IZERO = IExpr()
IONE = IExpr(_TOP)
FBOT = Face()
FTOP = Face(_TOP)


def _absorb(cls, clauses):
    """The element of cls with these clauses, less repeated clauses and
    clauses strictly containing another (absorption law)."""
    kept = []
    for c in sorted(clauses, key=len):
        if not any(k <= c for k in kept):
            kept.append(c)
    return cls(kept)


def _consistent(clause):
    return len({ix for ix, _ in clause}) == len(clause)


def IVar(ix):
    """The variable ix."""
    return IExpr((frozenset(((ix, 1),)),))


def FEq(ix, end):
    """The generator (i=end), end being 0 or 1."""
    return Face((frozenset(((ix, end),)),))


def meet(x, y):
    """The meet of two interval expressions, or of two faces."""
    if x == y or y == _TOP or not x:
        return x
    if x == _TOP or not y:
        return y
    if len(x) * len(y) > MAX_CLAUSES:
        raise FaceTooLarge(f"a meet of {len(x) * len(y)} clauses")
    clauses = (c | d for c in x for d in y)
    if type(x) is Face:
        clauses = filter(_consistent, clauses)
    return _absorb(type(x), clauses)


def join(x, y):
    """The join of two interval expressions, or of two faces."""
    if x == y or not y or x == _TOP:
        return x
    if not x or y == _TOP:
        return y
    if len(x) + len(y) > MAX_CLAUSES:
        raise FaceTooLarge(f"a join of {len(x) + len(y)} clauses")
    return _absorb(type(x), x | y)


IMeet = FAnd = meet
IJoin = FOr = join


def INeg(r):
    """The reversal ~r: by De Morgan, the meet over r's clauses of the
    join of their reversed literals."""
    out = IONE
    for c in r:
        out = meet(out, IExpr(frozenset(((ix, 1 - end),)) for ix, end in c))
    return out


def iv_normalize(r):
    """r itself: an interval expression is its normal form."""
    return r


def face_join(faces):
    """The join of any number of faces, absorbed once."""
    clauses = [c for phi in faces for c in phi]
    if len(clauses) > MAX_CLAUSES:
        raise FaceTooLarge(f"a join of {len(clauses)} clauses")
    return _absorb(Face, clauses)


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
    """The face on which the interval expression r equals the endpoint b:
    the consistent clauses of r, or of ~r when b is 0."""
    return Face(filter(_consistent, r if b else INeg(r)))


# --------------------------------------------------------------------------
# Clause operations shared by interval expressions and faces
# --------------------------------------------------------------------------

def iv_vars(x):
    """The variables of an interval expression or a face."""
    return {ix for clause in x for ix, _ in clause}


def iv_rename(x, fn):
    """x with each variable ix renamed to fn(ix).  fn must be injective on
    x's variables, as a weakening or strengthening is; then clauses map one
    to one and nothing needs absorbing again."""
    return type(x)(frozenset((fn(ix), end) for ix, end in c) for c in x)


def iv_map_vars(x, fn):
    """x, an interval expression or a face, with each variable ix replaced
    by fn(ix): an index renames it, an interval expression is substituted
    for it.  fn is called once per variable.  Only when some image is an
    expression, or two variables meet in one index, can clauses meet,
    vanish or contain others, so only then is the result absorbed again;
    a face keeps its consistent part."""
    image = {}
    for clause in x:
        for ix, _ in clause:
            if ix not in image:
                image[ix] = fn(ix)
    if (all(type(y) is int for y in image.values())
            and len(set(image.values())) == len(image)):
        return iv_rename(x, image.__getitem__)
    literal = {}   # (ix, end) -> its image, an interval expression
    clauses = []
    for clause in x:
        m = IONE
        for lit in clause:
            y = literal.get(lit)
            if y is None:
                ix, end = lit
                y = image[ix]
                if type(y) is int:
                    y = IExpr((frozenset(((y, end),)),))
                elif not end:
                    y = INeg(y)
                literal[lit] = y
            m = meet(m, y)
            if not m:
                break
        if m == _TOP:
            return type(x)(_TOP)   # a true clause absorbs every other
        clauses.extend(m)
    if type(x) is Face:
        clauses = filter(_consistent, clauses)
    return _absorb(type(x), clauses)


def iv_substitute(x, assignment):
    """x with each variable ix in `assignment` replaced by assignment[ix],
    an interval expression; the others stay."""
    return iv_map_vars(x, lambda ix: assignment.get(ix, ix))


def _in_print_order(x):
    """x's clauses, fewer literals first, then by their literals in the
    order `type(x).order` gives."""
    order = type(x).order
    return sorted(x, key=lambda c: (len(c), sorted(map(order, c))))


def iv_show(x, literal, bot="0", top="1"):
    """x as text: its clauses in print order, each the meet of its
    literals (`literal(ix, end)`) in print order, nested to the left."""
    if not x:
        return bot
    if x == _TOP:
        return top
    joins = []
    for clause in _in_print_order(x):
        lits = [literal(ix, end)
                for ix, end in sorted(clause, key=type(x).order)]
        text = lits[0]
        for lit in lits[1:]:
            text = f"({text} /\\ {lit})"
        joins.append(text)
    text = joins[0]
    for clause in joins[1:]:
        text = f"({text} \\/ {clause})"
    return text


def face_split(phi):
    """The clauses of phi, each as a face of its own, in print order."""
    return [Face((c,)) for c in _in_print_order(phi)]


def face_clauses(phi):
    """The clauses of phi in print order, each as a dict from variable to
    endpoint.

    Useful for case-splitting a restriction: phi holds iff one clause holds.
    """
    return [dict(sorted(c)) for c in _in_print_order(phi)]
