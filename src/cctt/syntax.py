"""Core term language: sorted de Bruijn syntax over four-sort contexts,
and the simultaneous substitution calculus over it.

Contexts are ordered lists whose entries come in four sorts -- term
variables, clocks, ticks and interval variables -- and a restriction, the
face phi of a context Gamma, phi (Cohen, Coquand, Huber and Mortberg,
"Cubical Type Theory", TYPES 2015).  A variable of a given sort is an
index counting binders of that same sort from the inside out, so
inserting an entry of one sort never renumbers the others.  The
restriction binds no variable, so it is no entry: it is one face scoped at
the context's end, true unless `Context.restrict` meets a face into it.
A context keeps, per term variable, its entry's type and the counts of the
entries before it, so `Context.term_type` leaves the shift to the
context's end pending on the type, a `Closure`.  A data signature's
constructor boundaries are ordinary terms, scoped in the constructor's
telescope.

Every record here and the parser's declarations is a class whose
annotations name its fields, made immutable by `record`: construction with
the fields as arguments, `==` and `hash` over the fields, a repr, and the
field names in `_fields` and `__match_args__`.  Its `__init__` is a closure
per number of fields that stores through `object.__setattr__`, so that
`import cctt.cli` loads neither `dataclasses` nor `inspect` (11 ms against
61 ms with frozen dataclasses, Python 3.11, 2 CPUs).

Interval expressions and faces are held as their normal forms
(`cctt.interval`), so alpha-equality (`structural_equal`) compares them
with `==`; `closure_equal` answers as it does on the terms closures stand
for, reading their variables through the environments.  Every term has a
loose-variable bound (`loose_bound`), as Lean 4's kernel keeps one (de
Moura and Ullrich, CADE 2021): per sort, one more than the largest free
index, worked out once without recursion and kept on the term, out of
sight of `==`, `hash`, `repr` and `structural_equal`.

Each term former's fields, and the binders around its subterms, are
written down once, in the binder table (`_WALKED`); the loose bound,
substitution and `closure_equal` read them there (Allais, Atkey, Chapman,
McBride and McKinna, "A type and scope safe universe of syntaxes with
binding", ICFP 2018).

Every count of binders, entries or variables is one 4-tuple, a count per
sort in the order (term, clock, tick, interval): how far `weaken` moves a
term and its cut, a substitution's shift and depth, `Context.counts`, and
the shape of a scope (per sort, the number of variables).  `ZERO`, `T1`,
`C1`, `K1` (a tick) and `I1` are the counts of no binder and of one of
each sort.

A substitution sends each variable to a payload of its own sort, in
shift-plus-explicit form (Abadi, Cardelli, Curien and Lévy, "Explicit
Substitutions", 1991): per sort, the payloads for the innermost variables,
and a shift for every variable outside them.  `subst` builds one and
checks it against the shape of the scope it maps into.  Walking under a
binder only raises a per-sort depth, and a payload is weakened past the
binders once, when a variable first reaches it; a term payload may be a
`Closure`, a term with a substitution pending on it, materialised then.
The walk returns a subterm as it is when its loose bound shows the
substitution cannot change it.  A forcing tick payload names the
substituted clock it pairs with, and turns a simple tick application it
meets into a forcing application under a fresh clock.  `then` composes two
substitutions when the result is first read, each term payload's
environment continuing, again pending, in the second.

A renaming is a substitution whose payloads are variables (`rename_term`).
Weakening (`weaken`, `weaken_tick`) is a shift with no payloads, whose
depth is the cut; strengthening (`strengthen`, and `ticks.mask_subst`)
sends each dropped variable to `ESCAPE`, and a variable that reaches it
raises `TickEscape`.
"""

from functools import cached_property, lru_cache
from math import inf
from operator import attrgetter

from .errors import MalformedSubstitution, NotATick, TickEscape
from .interval import FAnd, FTOP, Face, IExpr, IVar, iv_map_vars, iv_rename

# Entry sorts.
TERM, CLOCK, TICK, IVAL = "term", "clock", "tick", "ival"

# Counts per sort (term, clock, tick, interval), see above: no binder, and
# one binder of each sort (K1 is a tick).
ZERO = (0, 0, 0, 0)
T1, C1, K1, I1 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
# The position of each sort in a count.
_POS = {TERM: 0, CLOCK: 1, TICK: 2, IVAL: 3}

# The clock constant k0, which no binder binds: walks under binders and
# loose bounds (k + 1 = 0) leave it alone, and so does `_shift_clock`.
K0 = -1


# --------------------------------------------------------------------------
# Records
# --------------------------------------------------------------------------

_set = object.__setattr__


# One `__init__` maker per number of fields: the `__init__` stores its
# arguments under the field names.  Closures, since a function made by
# `exec` is what makes `dataclasses` slow to import.
def _init0():
    def __init__(self):
        pass
    return __init__


def _init1(f0):
    def __init__(self, a):
        _set(self, f0, a)
    return __init__


def _init2(f0, f1):
    def __init__(self, a, b):
        _set(self, f0, a)
        _set(self, f1, b)
    return __init__


def _init3(f0, f1, f2):
    def __init__(self, a, b, c):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
    return __init__


def _init4(f0, f1, f2, f3):
    def __init__(self, a, b, c, d):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
        _set(self, f3, d)
    return __init__


def _init5(f0, f1, f2, f3, f4):
    def __init__(self, a, b, c, d, e):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
        _set(self, f3, d)
        _set(self, f4, e)
    return __init__


def _init6(f0, f1, f2, f3, f4, f5):
    def __init__(self, a, b, c, d, e, f):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
        _set(self, f3, d)
        _set(self, f4, e)
        _set(self, f5, f)
    return __init__


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5, _init6)


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set"
                         f" or delete {name!r}")


def _keyword_repr(shown):
    def __repr__(self):
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({parts})"
    return __repr__


def _equality(compared):
    key = attrgetter(*compared) if compared else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))
    return __eq__, __hash__


def record(cls=None, *, hidden=()):
    """Make cls, whose annotations name its fields in order, an immutable
    record: construction with the fields as arguments (trailing fields
    with class-level values may be left out), `==` and `hash` over the
    fields, a `Name(field=value)` repr unless cls has a repr of its own,
    and field order in `_fields` and `__match_args__`.  The `hidden`
    fields are left out of `==`, `hash` and the repr: caches, set through
    `object.__setattr__`."""
    if cls is None:
        return lambda cls: record(cls, hidden=hidden)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    init = _INITS[len(names)](*names)
    # Parameters named as the fields, for messages and keyword arguments.
    init.__code__ = init.__code__.replace(co_varnames=("self", *names))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    defaults = []
    for name in reversed(names):
        if name not in cls.__dict__:
            break
        defaults.insert(0, cls.__dict__[name])
    init.__defaults__ = tuple(defaults) or None
    shown = tuple(name for name in names if name not in hidden)
    cls._fields = cls.__match_args__ = names
    cls.__init__ = init
    cls.__eq__, cls.__hash__ = _equality(shown)
    cls.__setattr__ = cls.__delattr__ = _immutable
    if cls.__repr__ is object.__repr__:
        cls.__repr__ = _keyword_repr(shown)
    return cls


# --------------------------------------------------------------------------
# Ticks
# --------------------------------------------------------------------------

class Tick:
    __slots__ = ()


@record
class TickVar(Tick):
    ix: int

    def __repr__(self):
        return f"a{self.ix}"


@record
class Diamond(Tick):
    """Only legal inside forcing-tick applications."""

    def __repr__(self):
        return "<>"


@record
class Tirr(Tick):
    left: Tick
    right: Tick
    at: IExpr

    def __repr__(self):
        return f"tirr({self.left!r}, {self.right!r}, {self.at!r})"


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------

class Term:
    __slots__ = ()

    # The loose-variable bound, once `loose_bound` has worked it out: it is
    # then set on the instance, past the record's fields.  The leaves know
    # theirs from the start.
    _loose = None

    def __repr__(self):
        parts = ", ".join(repr(getattr(self, name)) for name in self._fields)
        return f"{type(self).__name__}({parts})"


@record
class Var(Term):
    ix: int

    @property
    def _loose(self):
        return (self.ix + 1, 0, 0, 0)

    def __repr__(self):
        return f"x{self.ix}"


@record
class U(Term):
    level: int

    _loose = ZERO

    def __repr__(self):
        return f"U{self.level}"


@record
class Pi(Term):
    dom: Term
    cod: Term  # binds one term variable


@record
class Lam(Term):
    body: Term  # binds one term variable


@record
class App(Term):
    fn: Term
    arg: Term


@record
class Sigma(Term):
    fst: Term
    snd: Term  # binds one term variable


@record
class Pair(Term):
    fst: Term
    snd: Term


@record
class Fst(Term):
    arg: Term


@record
class Snd(Term):
    arg: Term


@record
class PathT(Term):
    ty: Term
    left: Term
    right: Term


@record
class PLam(Term):
    body: Term  # binds one interval variable


@record
class PApp(Term):
    fn: Term
    arg: IExpr


@record
class Forall(Term):
    body: Term  # binds one clock


@record
class CLam(Term):
    body: Term  # binds one clock


@record
class CApp(Term):
    fn: Term
    clock: int


@record
class Later(Term):
    clock: int
    ty: Term  # binds one tick on `clock`


@record
class TickLam(Term):
    clock: int
    body: Term  # binds one tick on `clock`


@record
class TickApp(Term):
    fn: Term
    tick: Tick


@record
class ForceApp(Term):
    """Forcing tick application (kappa.fn)[(clock, tick)]; fn binds a clock."""
    fn: Term
    clock: int
    tick: Tick


@record
class DFix(Term):
    clock: int
    fn: Term


@record
class PFix(Term):
    clock: int
    fn: Term


@record
class Comp(Term):
    """comp^i ty [face -> tube] base; ty and tube bind the interval variable."""
    ty: Term
    face: Face
    tube: Term
    base: Term


@record
class HComp(Term):
    """Homogeneous composition at a fixed type; tube binds the line variable."""
    ty: Term
    face: Face
    tube: Term
    base: Term


@record
class Trans(Term):
    """Transport along a type line (binds the line variable) under a face."""
    ty: Term
    face: Face
    base: Term


@record
class Hit(Term):
    name: str
    params: tuple


@record
class Con(Term):
    name: str
    label: str
    params: tuple  # HIT parameters delta
    args: tuple    # non-recursive arguments
    recs: tuple    # recursive arguments
    ivals: tuple   # interval arguments


@record
class ElimCase:
    label: str
    n_args: int   # gamma binders (term sort)
    n_recs: int   # x-bar and y-bar binders (term sort, n_recs each)
    n_ivars: int  # interval binders
    body: Term

    __repr__ = Term.__repr__

    @property
    def binders(self):
        """The count of the binders around the body: the arguments, the
        recursive arguments and their induction hypotheses (terms), and
        the interval variables."""
        return (self.n_args + 2 * self.n_recs, 0, 0, self.n_ivars)

    def with_body(self, body):
        """The same case with `body` for its body."""
        return ElimCase(self.label, self.n_args, self.n_recs, self.n_ivars,
                        body)


@record
class ClockElim(Term):
    """Induction under clocks with an n-ary clock vector (n may be 0)."""
    name: str
    n: int
    params: tuple            # delta, each component clock-abstracted n times
    motive: Term             # binds one term variable h
    cases: tuple             # ElimCase per constructor, declaration order
    arg: Term


@record
class System(Term):
    parts: tuple  # of (Face, Term)


@record
class TopRef(Term):
    name: str

    _loose = ZERO


# --------------------------------------------------------------------------
# The binder table
# --------------------------------------------------------------------------

# Per term class but the leaves (`Var`, `U`, `TopRef`), one entry per field
# in field order: what the field holds and, for a subterm, the count of the
# binders the former puts around it.  A field holds a subterm, a clock, a
# tick, an interval expression or face, a value the walks leave as it is
# (a name, a label, a count), a tuple of subterms, a tuple of interval
# expressions, eliminator cases (each under its own `ElimCase.binders`), or
# a system's parts (a face and a subterm each).  Every generic walk reads
# its fields and binders here: `loose_bound` (`_parts`), substitution
# (`_go`) and `closure_equal`.
_SUB, _CLK, _TCK, _IVL, _SAME, _SUBS, _IVLS, _CASES, _PARTS = range(9)
_WALKED = {
    Pi: ((_SUB, ZERO), (_SUB, T1)),
    Lam: ((_SUB, T1),),
    App: ((_SUB, ZERO), (_SUB, ZERO)),
    Sigma: ((_SUB, ZERO), (_SUB, T1)),
    Pair: ((_SUB, ZERO), (_SUB, ZERO)),
    Fst: ((_SUB, ZERO),),
    Snd: ((_SUB, ZERO),),
    PathT: ((_SUB, ZERO), (_SUB, ZERO), (_SUB, ZERO)),
    PLam: ((_SUB, I1),),
    PApp: ((_SUB, ZERO), (_IVL, None)),
    Forall: ((_SUB, C1),),
    CLam: ((_SUB, C1),),
    CApp: ((_SUB, ZERO), (_CLK, None)),
    Later: ((_CLK, None), (_SUB, K1)),
    TickLam: ((_CLK, None), (_SUB, K1)),
    TickApp: ((_SUB, ZERO), (_TCK, None)),
    ForceApp: ((_SUB, C1), (_CLK, None), (_TCK, None)),
    DFix: ((_CLK, None), (_SUB, ZERO)),
    PFix: ((_CLK, None), (_SUB, ZERO)),
    Comp: ((_SUB, I1), (_IVL, None), (_SUB, I1), (_SUB, ZERO)),
    HComp: ((_SUB, ZERO), (_IVL, None), (_SUB, I1), (_SUB, ZERO)),
    Trans: ((_SUB, I1), (_IVL, None), (_SUB, ZERO)),
    Hit: ((_SAME, None), (_SUBS, None)),
    Con: ((_SAME, None), (_SAME, None), (_SUBS, None), (_SUBS, None),
          (_SUBS, None), (_IVLS, None)),
    ClockElim: ((_SAME, None), (_SAME, None), (_SUBS, None), (_SUB, T1),
                (_CASES, None), (_SUB, ZERO)),
    System: ((_PARTS, None),),
}

# Per record class a walk reads (every term class, eliminator cases and the
# ticks but the diamond, which has no field and is compared by `==`), a
# getter of its fields and whether it has several (then the getter returns
# their tuple, else the one field).  Fields are read by name: reading an
# instance's `__dict__` makes CPython keep a dict on it and read its fields
# the slow way from then on.
_FIELDS = {cls: (attrgetter(*cls._fields), len(cls._fields) > 1)
           for cls in (*Term.__subclasses__(), ElimCase, TickVar, Tirr)}


def _values(t):
    """The fields of t, a record `_FIELDS` knows, as a tuple."""
    get, several = _FIELDS[type(t)]
    return get(t) if several else (get(t),)


# --------------------------------------------------------------------------
# Contexts
# --------------------------------------------------------------------------

@record
class EVar:
    ty: Term


@record
class EClock:
    pass


@record
class ETick:
    clock: int  # clock index relative to the prefix before this entry


@record
class EIVar:
    pass


_ENTRY_SORT = {EVar: TERM, EClock: CLOCK, ETick: TICK, EIVar: IVAL}
# Per entry class, the count of the one variable it binds.
_UNIT = {EVar: T1, EClock: C1, ETick: K1, EIVar: I1}


def entry_sort(entry):
    return _ENTRY_SORT[type(entry)]


def _count(entries):
    """Per sort, the number of the entries."""
    kinds = [type(e) for e in entries]
    return (kinds.count(EVar), kinds.count(EClock), kinds.count(ETick),
            kinds.count(EIVar))


@record(hidden=("_counts", "_terms"))
class Context:
    entries: tuple = ()
    # The face the context is restricted to, scoped at its end.
    restriction: Face = FTOP
    # `counts`, once worked out; carried along by `push` and `restrict`.
    _counts: tuple = None
    # Per term variable, outermost first: its entry's type and the counts
    # of the entries before it.  Extended by `push`; worked out once, on
    # first use, for a context built from its entries.
    _terms: tuple = None

    @property
    def counts(self):
        """Per sort, the number of entries: the context's shape, and the
        next index of each sort.  Worked out on first use and kept."""
        counts = self._counts
        if counts is None:
            counts = _count(self.entries)
            object.__setattr__(self, "_counts", counts)
        return counts

    def push(self, entry):
        cls = type(entry)
        by = _UNIT[cls]
        phi = self.restriction
        if by is I1 and phi != FTOP:
            phi = weaken_iv(phi, I1)
        counts = self.counts
        terms = self._terms
        if terms is None:
            terms = self._term_table()
        if cls is EVar:
            terms += ((entry.ty, counts),)
        return Context(self.entries + (entry,), phi, shape(counts, by),
                       terms)

    def restrict(self, phi):
        """The same entries restricted to phi as well, a face scoped at
        the end; the tables, which depend on the entries only, are
        shared."""
        return Context(self.entries, FAnd(self.restriction, phi),
                       self._counts, self._terms)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def pos_of(self, sort, ix):
        """Absolute position (0 = outermost) of the ix-th entry of `sort`
        counted from the inside."""
        seen = 0
        for pos in range(len(self.entries) - 1, -1, -1):
            if entry_sort(self.entries[pos]) == sort:
                if seen == ix:
                    return pos
                seen += 1
        raise IndexError(f"no {sort} entry with index {ix}")

    def _term_table(self):
        """`_terms`, worked out from the entries and kept."""
        terms, before = [], ZERO
        for e in self.entries:
            if type(e) is EVar:
                terms.append((e.ty, before))
            before = shape(before, _UNIT[type(e)])
        terms = tuple(terms)
        object.__setattr__(self, "_terms", terms)
        return terms

    def term_type(self, ix):
        """The type of term variable ix, scoped in the whole context: its
        entry's type (scoped in the entries before it) pending under the
        shift past the entry and everything after it, a `Closure`, or the
        type itself where that shift moves none of its variables."""
        terms = self._terms
        if terms is None:
            terms = self._term_table()
        if not 0 <= ix < len(terms):
            raise IndexError(f"no term entry with index {ix}")
        ty, before = terms[-1 - ix]
        b = ty._loose or loose_bound(ty)
        if b == ZERO:
            return ty
        now = self.counts
        by = (now[0] - before[0], now[1] - before[1], now[2] - before[2],
              now[3] - before[3])
        if (by[0] and b[0] or by[1] and b[1] or by[2] and b[2]
                or by[3] and b[3]):
            return Closure(ty, _shift_subst(by, ZERO))
        return ty

    def tick_clock(self, ix):
        """The clock of the ix-th tick, valid in the full context."""
        pos = self.pos_of(TICK, ix)
        return _shift_clock(self.entries[pos].clock,
                            _count(self.entries[pos:])[1])


# --------------------------------------------------------------------------
# Loose-variable bounds
# --------------------------------------------------------------------------

# The bound of anything that is not a well-formed term: no walk skips it,
# so the walker meets it and reports it as it always has.
_WILD = (inf, inf, inf, inf)


def _iv_bound(x):
    """The interval bound of an interval expression or a face."""
    return max((ix for clause in x for ix, _ in clause), default=-1) + 1


def _tick_bound(u):
    match u:
        case TickVar(ix):
            return (0, 0, ix + 1, 0)
        case Diamond():
            return ZERO
        case Tirr(l, r, at):
            left, right = _tick_bound(l), _tick_bound(r)
            return (0, 0, max(left[2], right[2]),
                    max(left[3], right[3], _iv_bound(at)))
    return _WILD


def _parts(t):
    """The bound of what t, not a leaf, holds directly (a clock, a tick,
    interval expressions and faces), and t's subterms, each with the
    binders t puts around it, as t's row of `_WALKED` gives them."""
    row = _WALKED.get(type(t))
    if row is None:
        return _WILD, ()
    clocks = ticks = ivals = 0
    subterms = []
    for (kind, by), x in zip(row, _values(t)):
        if kind is _SUB:
            subterms.append((x, by))
        elif kind is _SUBS:
            subterms += ((u, ZERO) for u in x)
        elif kind is _CASES:
            subterms += ((c.body, c.binders) for c in x)
        elif kind is _CLK:
            clocks = x + 1
        elif kind is _TCK:
            b = _tick_bound(x)
            if b is _WILD:
                return _WILD, ()
            ticks, ivals = b[2], max(ivals, b[3])
        elif kind is _IVL:
            ivals = max(ivals, _iv_bound(x))
        elif kind is _IVLS:
            for r in x:
                ivals = max(ivals, _iv_bound(r))
        elif kind is _PARTS:
            for phi, u in x:
                ivals = max(ivals, _iv_bound(phi))
                subterms.append((u, ZERO))
    return (0, clocks, ticks, ivals), subterms


def loose_bound(t):
    """t's loose-variable bound: per sort (term, clock, tick, interval),
    one more than the largest free index of that sort.  It is worked out
    once, on an explicit stack, and kept on t and on each subterm."""
    b = getattr(t, "_loose", _WILD)
    if b is not None:
        return b
    # Each entry is a term and, once its subterms are on the stack above
    # it, its parts; a subterm shared with one done already is skipped.
    stack = [(t, None)]
    while stack:
        u, parts = stack.pop()
        if u._loose is not None:
            continue
        if parts is None:
            parts = _parts(u)
            pending = [(c, None) for c, _ in parts[1]
                       if getattr(c, "_loose", _WILD) is None]
            if pending:
                stack.append((u, parts))
                stack += pending
                continue
        (tm, ck, tk, iv), subterms = parts
        for c, (bt, bc, bk, bi) in subterms:
            ct, cc, ckk, ci = getattr(c, "_loose", _WILD)
            if ct - bt > tm:
                tm = ct - bt
            if cc - bc > ck:
                ck = cc - bc
            if ckk - bk > tk:
                tk = ckk - bk
            if ci - bi > iv:
                iv = ci - bi
        object.__setattr__(u, "_loose", (tm, ck, tk, iv))
    return t._loose


# --------------------------------------------------------------------------
# Simultaneous substitutions
# --------------------------------------------------------------------------

@record
class CForcedTick:
    """A forcing tick payload: the tick variable goes to `tick` and is
    paired with the substituted clock variable `clock` (an index among the
    substitution's clock payloads, from the inside)."""
    clock: int
    tick: Tick


# Variable sorts in the order of a substitution's per-sort tuples, and a
# block without payloads.
_SORTS = (TERM, CLOCK, TICK, IVAL)
_NO_BLOCK = ((), (), (), ())

# The payload of a variable a strengthening drops: a variable that reaches
# it raises TickEscape.
ESCAPE = object()


def shape(scope, by):
    """The count `scope` plus `by`, per sort: a shape (per sort, a number
    of variables) extended by `by` binders; None (an unchecked scope)
    stays None."""
    if scope is None:
        return None
    return (scope[0] + by[0], scope[1] + by[1], scope[2] + by[2],
            scope[3] + by[3])


class Substitution:
    """A simultaneous substitution in shift-plus-explicit form.

    Per sort (term, clock, tick, interval, in that order):

    - `block` holds the payloads for the innermost variables of the sort,
      innermost first: terms or closures, clock indices, ticks (a
      `CForcedTick` for a forcing tick) and interval expressions, or
      `ESCAPE` for a variable that has no image;
    - the variable j places past the block maps to variable j + `shift`
      of the scope;
    - `depth` counts the binders pushed while walking a term: they map to
      themselves, and everything else moves past them.

    `scope` is the shape of the scope the substitution maps into, leaving
    out pushed binders, or None when variables past the block are not
    checked.  A variable mapped past the scope raises
    `MalformedSubstitution`.

    `slack` is worked out when the substitution is first applied: per
    sort, how many variables past the pushed binders it leaves in place
    (the scope's, or unboundedly many for an unchecked scope, when the
    sort has no payloads and no shift; none otherwise).
    """

    __slots__ = ("scope", "block", "shift", "depth", "slack", "_memo")

    def __init__(self, scope, block, shift=ZERO, depth=ZERO):
        self.scope = scope
        self.block = block
        self.shift = shift
        self.depth = depth
        self.slack = None
        self._memo = {}   # (sort, block index, depth) -> weakened payload

    def under(self, by):
        """The substitution lifted under `by` more binders."""
        return Substitution(self.scope, self.block, self.shift,
                            shape(self.depth, by))

    def ready(self):
        """The substitution, with its slack worked out."""
        if self.slack is None:
            (bt, bc, bk, bi), (st, sc, sk, si) = self.block, self.shift
            nt, nc, nk, ni = self.scope or (inf, inf, inf, inf)
            self.slack = (0 if bt or st else nt, 0 if bc or sc else nc,
                          0 if bk or sk else nk, 0 if bi or si else ni)
        return self

    def apply(self, t):
        """t under the substitution."""
        return _go(self.ready(), t, self.depth)


class _Then(Substitution):
    """One substitution followed by another, composed (`_compose`) when a
    field is first read."""

    __slots__ = ("pair",)

    def __init__(self, first, second):
        self.pair = (first, second)

    def __getattr__(self, name):
        # Reached only for a field not set yet.
        pair = self.pair
        if pair is None:
            raise AttributeError(name)
        fields = _compose(*pair)   # may raise, leaving it to compose again
        self.pair = None
        Substitution.__init__(self, *fields)
        return getattr(self, name)


def then(env, second):
    """env, then second (each a substitution at depth zero with no forcing
    tick, or None for the identity): a substitution composed when first
    read, its term payloads closures continuing in second.  Two pending
    substitutions with no term payloads between them compose at once, so a
    shift followed by what instantiates the variables it added vanishes."""
    if env is None:
        return second
    if second is None:
        return env
    pair = env.pair if type(env) is _Then else None
    if pair is not None and not pair[1].block[0] and not second.block[0]:
        second = _small(pair[1], second)
        if second is None:
            return pair[0]
        env = pair[0]
    return _Then(env, second)


def _small(first, second):
    """first then second, neither with term payloads, composed now (None
    for the identity): two shifts add up."""
    if second.block is _NO_BLOCK and first.block is _NO_BLOCK:
        by = shape(first.shift, second.shift)
        return None if by == ZERO else _shift_subst(by, ZERO)
    fields = _compose(first, second)
    if fields[1:] == (((), (), (), ()), ZERO):
        return None
    return Substitution(*fields)


def _compose(sg, tau):
    """The fields of sg followed by tau, both at depth zero: per sort, sg's
    payloads under tau and then the payloads of tau past sg's shift.  A term
    payload stays pending: a closure whose environment continues in tau."""
    mine, theirs = sg.block, tau.block
    ss, ts = sg.shift, tau.shift
    blocks, shift = [], []
    for si in range(4):
        out, t, s = mine[si], theirs[si], ss[si]
        if out:
            out = tuple(_then_payload(si, p, tau) for p in out)
        if s < len(t):
            out += t[s:]
            shift.append(ts[si])
        else:
            shift.append(s - len(t) + ts[si])
        blocks.append(out)
    return tau.scope, tuple(blocks), tuple(shift)


def _then_payload(si, p, tau):
    """A payload p, scoped in tau's cod, under tau; a term stays pending."""
    if si == 0:
        if type(p) is Closure:
            return Closure(p.term, then(p.env, tau))
        return close(tau, p)
    if si == 1:
        return _image(tau, 1, p, ZERO)
    if si == 3:
        return _iv(tau, p, ZERO)
    if type(p) is CForcedTick:
        return CForcedTick(p.clock, _tick(tau, p.tick, ZERO))
    return _tick(tau, p, ZERO)


def close(env, t):
    """The entry for t, scoped in env's cod, as an argument scoped in env's
    dom: t itself when env is None, the entry a variable stands for (once
    env is composed), and otherwise a closure."""
    if env is None:
        return t
    if type(t) is Var and (type(env) is not _Then or env.pair is None):
        block = env.block[0]
        if t.ix < len(block):
            return block[t.ix]
        return Var(_image(env, 0, t.ix, ZERO))
    return Closure(t, env)


def subst(scope, terms=(), clocks=(), ticks=(), ivals=(), fresh=ZERO):
    """The substitution sending the innermost variables of each sort to the
    given payloads, outermost first, and every other variable to itself,
    moved past `fresh` binders.  The payloads are scoped in `scope` (a
    shape, or None for unchecked) extended by the fresh binders."""
    if fresh != ZERO:
        scope = shape(scope, fresh)
    return Substitution(scope, (tuple(reversed(terms)),
                                tuple(reversed(clocks)),
                                tuple(reversed(ticks)),
                                tuple(reversed(ivals))), fresh)


class Closure:
    """A term together with the substitution pending on it, its
    environment: a term payload of an environment, what reduction
    (`conversion.whnf`) and conversion start from and compare, and a type
    the checker keeps pending, so that a term is substituted only where
    they reach it.  `force` applies the environment once and keeps the
    result in `term`; it then drops the environment, so that a forced
    closure holds on to no chain of environments."""

    __slots__ = ("term", "env")

    def __init__(self, term, env):
        self.term = term
        self.env = env

    def force(self):
        if self.env is not None:
            self.term = self.env.apply(self.term)
            self.env = None
        return self.term


def _shift_clock(k, by):
    """The clock k moved past `by` clock binders: K0 stays."""
    return k + by if k >= 0 else k


def _weaken_payload(si, p, depth):
    """A block payload, a term or a clock, tick or interval payload, moved
    past `depth` binders pushed in the scope."""
    if si == 0:
        return weaken(p, depth)
    if si == 1:
        return _shift_clock(p, depth[1])
    if si == 3:
        return weaken_iv(p, depth)
    if type(p) is CForcedTick:
        return CForcedTick(p.clock, weaken_tick(p.tick, depth))
    return weaken_tick(p, depth)


def _image(sg, si, ix, depth):
    """Where variable ix of sort si goes under sg at `depth`: the weakened
    payload of the block, or the index of a variable of the scope (clocks
    are indices either way)."""
    k = ix - depth[si]
    if k < 0:
        return ix
    block = sg.block[si]
    if k < len(block):
        if si == 1:
            return _shift_clock(block[k], depth[1])
        key = (si, k, depth)
        out = sg._memo.get(key)
        if out is None:
            p = block[k]
            if p is ESCAPE:
                raise TickEscape(f"{_SORTS[si]} variable {k} does not "
                                 "survive the residual context")
            if type(p) is Closure:
                p = p.force()
            out = sg._memo[key] = p if depth == ZERO else \
                _weaken_payload(si, p, depth)
        return out
    x = k - len(block) + sg.shift[si]
    scope = sg.scope
    if scope is not None and x >= scope[si]:
        raise MalformedSubstitution(
            f"{_SORTS[si]} variable {ix} is outside the scope"
        )
    return x + depth[si]


# Per sort, the payload naming variable ix of the scope.
_VAR = (Var, int, TickVar, IVar)


def _iv(sg, x, depth):
    return iv_map_vars(x, lambda ix: _image(sg, 3, ix, depth))


def _tick(sg, u, depth):
    match u:
        case TickVar(ix):
            x = _image(sg, 2, ix, depth)
            if type(x) is int:
                return TickVar(x)
            return x.tick if type(x) is CForcedTick else x
        case Diamond():
            return u
        case Tirr(l, r, at):
            left = _tick(sg, l, depth)
            right = _tick(sg, r, depth)
            if isinstance(left, Diamond) and isinstance(right, Diamond):
                return Diamond()  # tirr(<>, <>, r) collapses eagerly
            return Tirr(left, right, _iv(sg, at, depth))
    raise NotATick(repr(u))


def _tick_vars(u):
    match u:
        case TickVar(ix):
            return {ix}
        case Diamond():
            return set()
        case Tirr(l, r, _):
            return _tick_vars(l) | _tick_vars(r)
    raise NotATick(repr(u))


def _leftmost_tick_var(u):
    """The tick variable of u bound furthest out (largest index)."""
    tvs = _tick_vars(u)
    return max(tvs) if tvs else None


def _go(sg, t, d):
    """Apply sg, its slack worked out, at depth d (binders pushed per sort)
    to t: a variable is read through sg, a tick application goes to
    `_tick_app`, and any other term is rebuilt field by field as its row of
    `_WALKED` says."""
    if type(t) is Var:
        ix = t.ix
        if ix < d[0]:
            return t
        x = _image(sg, 0, ix, d)
        return Var(x) if type(x) is int else x
    # A term sg cannot change is its own image; closed terms, U and TopRef
    # among them, all end here.
    b = getattr(t, "_loose", None) or loose_bound(t)
    s = sg.slack
    if (b[0] <= d[0] + s[0] and b[1] <= d[1] + s[1]
            and b[2] <= d[2] + s[2] and b[3] <= d[3] + s[3]):
        return t
    cls = type(t)
    if cls is TickApp:
        return _tick_app(sg, t.fn, t.tick, d)
    row = _WALKED.get(cls)
    if row is None:
        raise MalformedSubstitution(f"not a term: {t!r}")
    out = []
    for (kind, by), x in zip(row, _values(t)):
        if kind is _SUB:
            out.append(_go(sg, x, d if by is ZERO else (
                d[0] + by[0], d[1] + by[1], d[2] + by[2], d[3] + by[3])))
        elif kind is _CLK:
            out.append(_image(sg, 1, x, d))
        elif kind is _TCK:
            out.append(_tick(sg, x, d))
        elif kind is _IVL:
            out.append(_iv(sg, x, d))
        elif kind is _SAME:
            out.append(x)
        elif kind is _SUBS:
            out.append(tuple(_go(sg, u, d) for u in x))
        elif kind is _IVLS:
            out.append(tuple(_iv(sg, r, d) for r in x))
        elif kind is _CASES:
            out.append(tuple(c.with_body(_go(sg, c.body, shape(d, c.binders)))
                             for c in x))
        else:
            out.append(tuple((_iv(sg, phi, d), _go(sg, u, d))
                             for phi, u in x))
    return cls(*out)


def _forced_payload(sg, u, d):
    """The index in sg's tick block of the forcing tick payload that the
    leftmost variable of the tick u reaches at depth d, or None."""
    leftmost = _leftmost_tick_var(u)
    # No tick variables is only possible transiently for ill-scoped input.
    if leftmost is not None:
        k = leftmost - d[2]
        ticks = sg.block[2]
        if 0 <= k < len(ticks) and type(ticks[k]) is CForcedTick:
            return k
    return None


def _tick_app(sg, fn, tick, d):
    """The A.2 case analysis for (fn [tick]) under sg."""
    new_tick = _tick(sg, tick, d)
    k = _forced_payload(sg, tick, d)
    if k is None:
        return TickApp(_go(sg, fn, d), new_tick)
    # A forcing tick payload: the simple application turns into a forcing
    # application binding a fresh clock for the paired clock variable.
    c = sg.block[2][k].clock
    if not 0 <= c < len(sg.block[1]):
        raise MalformedSubstitution(
            "a forcing tick payload must pair with a substituted clock")
    return ForceApp(_go(_fresh_clock(sg, k, c, d).ready(), fn, ZERO),
                    _shift_clock(sg.block[1][c], d[1]), new_tick)


def _fresh_clock(sg, k, c, d):
    """sg at depth d, with its scope extended by a fresh innermost clock
    that takes the place of clock variable c, which forcing tick payload k
    pairs with."""
    # Everything in the scope moves past the pushed binders and the fresh
    # clock; the pushed binders become explicit payloads.
    wk = (d[0], d[1] + 1, d[2], d[3])
    block = []
    for si in range(4):
        fresh = wk[si] - d[si]
        block.append([_VAR[si](ix + fresh) for ix in range(d[si])]
                     + [_weaken_payload(si, p.force() if type(p) is Closure
                                        else p, wk) for p in sg.block[si]])
    block[1][d[1] + c] = 0
    # The clock payloads moved d[1] places out; tick payload k itself is
    # unused, since fn cannot mention its variable.
    block[2] = [CForcedTick(p.clock + d[1], p.tick)
                if type(p) is CForcedTick else p for p in block[2]]
    block[2][d[2] + k] = TickVar(0)
    shift = tuple(s + w for s, w in zip(sg.shift, wk))
    return Substitution(shape(sg.scope, wk), tuple(map(tuple, block)),
                        shift)


# --------------------------------------------------------------------------
# Renamings: weakening and strengthening
# --------------------------------------------------------------------------

def rename_term(t, ren):
    """t under ren, a substitution whose payloads are variables, and
    `ESCAPE` for a variable it drops."""
    return ren.apply(t)


def weaken(t, by, cut=ZERO):
    """t moved past `by` binders inserted into its context, `cut` binders
    in: per sort, the innermost entries that stay between t and the new
    ones (none by default).  t itself when no free variable moves."""
    for n, b, c in zip(by, loose_bound(t), cut):
        if n and b > c:
            return rename_term(t, _shift_subst(by, cut))
    return t


def weaken_tick(u, by, cut=ZERO):
    """The tick u moved as `weaken` moves a term."""
    return _tick(_shift_subst(by, cut).ready(), u, cut)


@lru_cache(maxsize=1024)
def _shift_subst(shift, cut):
    """The substitution moving each sort's indices from its cut on out by
    its shift: no payloads, the cut as the depth.  One object per shape,
    since weakening is on the hot path."""
    return Substitution(None, _NO_BLOCK, shift, cut)


def weaken_iv(x, by, cut=ZERO):
    """The interval expression or face x moved as `weaken` moves a term:
    past by[3] interval binders, cut[3] in."""
    n, c = by[3], cut[3]
    return iv_rename(x, lambda ix: ix + n if ix >= c else ix)


# Per sort but clocks, the strengthening past the innermost variable of
# the sort: it goes to `ESCAPE`, and every other variable of the sort
# moves in by one.
_DROP = {sort: Substitution(None, tuple((ESCAPE,) if s == sort else ()
                                        for s in _SORTS))
         for sort in (TERM, TICK, IVAL)}


def strengthen(t, sort):
    """t, scoped under one more innermost variable of `sort` than it
    mentions, moved out past that variable; TickEscape when t mentions it
    after all."""
    return rename_term(t, _DROP[sort])


# --------------------------------------------------------------------------
# Structural equality (alpha-equality)
# --------------------------------------------------------------------------

def structural_equal(t, u):
    """Whether t and u are equal: alpha-equality, since variables are de
    Bruijn indices and interval expressions and faces are normal forms.
    It implies definitional equality, so conversion asks it first.

    Both terms are walked together on one explicit stack, so depth costs no
    Python frames and nothing is built, and pairs that are the same object
    are skipped."""
    stack = [t, u]
    pop, push = stack.pop, stack.append
    while stack:
        b = pop()
        a = pop()
        cls = type(a)
        fields = _FIELDS.get(cls)
        if fields is not None:
            if type(b) is not cls:
                return False
            # The fields only: a cached loose-variable bound is no part of
            # the term.
            get, several = fields
            x, y = get(a), get(b)
            if several:
                for x, y in zip(x, y):
                    if x is not y:
                        push(x)
                        push(y)
            elif x is not y:
                push(x)
                push(y)
        elif cls is tuple:
            if type(b) is not tuple or len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if x is not y:
                    push(x)
                    push(y)
        elif a != b:
            return False
    return True


def closure_equal(t, u):
    """Whether t and u, terms or closures, are equal once materialised:
    the answer `structural_equal` gives on the terms their environments
    produce, found without producing them.

    Each side is walked as a term, the substitution pending on it at a
    depth (None when there is none), and a shift past that depth applied
    after it (a closure whose environment is a shift has only the shift).
    A variable is read through the substitution, and a term payload it
    reaches is walked in turn, moved by the depth and the shift, where
    materialising would weaken it.  A clock, tick or interval expression
    is read under both; a subterm that neither can change is its own
    image, and two of those are compared by `structural_equal`.  Only a
    tick application that a forcing tick payload turns into a forcing one
    is materialised, to be compared as built."""
    if type(t) is not Closure and type(u) is not Closure:
        return structural_equal(t, u)
    stack = [(*_closure_side(t), *_closure_side(u))]
    pop, push = stack.pop, stack.append
    while stack:
        a, sa, da, wa, b, sb, db, wb = pop()
        if sa is not None or wa is not ZERO:
            a, sa, da, wa = _settle(a, sa, da, wa)
        if sb is not None or wb is not ZERO:
            b, sb, db, wb = _settle(b, sb, db, wb)
        if sa is None and sb is None and wa is ZERO and wb is ZERO:
            if a is not b and not structural_equal(a, b):
                return False
            continue
        cls = type(a)
        if type(b) is not cls:
            return False
        walked = _WALKED.get(cls)
        if walked is None:
            raise MalformedSubstitution(f"not a term: {a!r}")
        for (kind, by), x, y in zip(walked, _values(a), _values(b)):
            if kind is _SUB:
                if by is ZERO:
                    push((x, sa, da, wa, y, sb, db, wb))
                else:
                    push((x, sa, shape(da, by), wa, y, sb, shape(db, by), wb))
            elif kind is _CLK:
                if _side_clock(x, sa, da, wa) != _side_clock(y, sb, db, wb):
                    return False
            elif kind is _TCK:
                if _side_tick(x, sa, da, wa) != _side_tick(y, sb, db, wb):
                    return False
            elif kind is _IVL:
                if _side_iv(x, sa, da, wa) != _side_iv(y, sb, db, wb):
                    return False
            elif kind is _SAME:
                if x != y:
                    return False
            elif len(x) != len(y):
                return False
            elif kind is _SUBS:
                for p, q in zip(x, y):
                    push((p, sa, da, wa, q, sb, db, wb))
            elif kind is _IVLS:
                for p, q in zip(x, y):
                    if _side_iv(p, sa, da, wa) != _side_iv(q, sb, db, wb):
                        return False
            elif kind is _CASES:
                for p, q in zip(x, y):
                    if (p.label, p.n_args, p.n_recs, p.n_ivars) != \
                            (q.label, q.n_args, q.n_recs, q.n_ivars):
                        return False
                    inner = p.binders
                    push((p.body, sa, shape(da, inner), wa,
                          q.body, sb, shape(db, inner), wb))
            else:
                for (phi, p), (psi, q) in zip(x, y):
                    if _side_iv(phi, sa, da, wa) != _side_iv(psi, sb, db, wb):
                        return False
                    push((p, sa, da, wa, q, sb, db, wb))
    return True


def _closure_side(x):
    """A side of `closure_equal` for x, a term or a closure: the term, the
    substitution pending on it (None: none), the depth it is applied at,
    and the shift past that depth applied after it."""
    if type(x) is not Closure:
        return x, None, ZERO, ZERO
    env = x.env
    if env is None:
        return x.term, None, ZERO, ZERO
    if env.block is _NO_BLOCK and env.scope is None:
        return x.term, None, env.depth, env.shift
    return x.term, env.ready(), env.depth, ZERO


def _settle(t, sg, d, w):
    """The side (t, sg, d, w) with a variable replaced by what it stands
    for, and, when the side is t itself, as the side (t, None, ZERO,
    ZERO)."""
    while type(t) is Var:
        ix = t.ix
        if ix < d[0]:
            return t, None, ZERO, ZERO
        if sg is None:
            return (Var(ix + w[0]) if w[0] else t), None, ZERO, ZERO
        block = sg.block[0]
        k = ix - d[0]
        if k >= len(block) or block[k] is ESCAPE:
            # A variable of the scope (or no image: `_image` raises).
            return Var(_image(sg, 0, ix, d) + w[0]), None, ZERO, ZERO
        # A payload, scoped in sg's scope: materialising weakens it past
        # the depth, and the shift moves it on.
        p = block[k]
        w = shape(d, w)
        d = ZERO
        if type(p) is not Closure:
            t, sg = p, None
            continue
        env = p.env
        if env is None or env.depth != ZERO:
            t, sg = p.force(), None
        elif env.block is _NO_BLOCK and env.scope is None:
            t, sg, w = p.term, None, shape(w, env.shift)
        else:
            t, sg = p.term, env.ready()
    if sg is None and w == ZERO:
        return t, None, ZERO, ZERO
    b = getattr(t, "_loose", None) or loose_bound(t)
    if sg is None:
        if ((not w[0] or b[0] <= d[0]) and (not w[1] or b[1] <= d[1])
                and (not w[2] or b[2] <= d[2])
                and (not w[3] or b[3] <= d[3])):
            return t, None, ZERO, ZERO
        return t, None, d, w
    s = sg.slack
    if (b[0] <= d[0] + s[0] and b[1] <= d[1] + s[1] and b[2] <= d[2] + s[2]
            and b[3] <= d[3] + s[3]
            and (not w[0] or b[0] <= d[0]) and (not w[1] or b[1] <= d[1])
            and (not w[2] or b[2] <= d[2]) and (not w[3] or b[3] <= d[3])):
        return t, None, ZERO, ZERO
    if type(t) is TickApp and _forced_payload(sg, t.tick, d) is not None:
        # Materialised, to be compared as built.
        return weaken(_go(sg, t, d), w, d), None, ZERO, ZERO
    return t, sg, d, w


def _side_clock(k, sg, d, w):
    if sg is not None:
        k = _image(sg, 1, k, d)
    return k + w[1] if w[1] and k >= d[1] else k


def _side_tick(u, sg, d, w):
    if sg is not None:
        u = _tick(sg, u, d)
    return weaken_tick(u, w, d) if w[2] or w[3] else u


def _side_iv(x, sg, d, w):
    if sg is not None:
        x = _iv(sg, x, d)
    return weaken_iv(x, w, d) if w[3] else x


# --------------------------------------------------------------------------
# Telescopes and HIT signatures
# --------------------------------------------------------------------------

@record
class Telescope:
    """Ordered term-variable types; entry k is scoped under entries 0..k-1."""
    types: tuple = ()

    def __len__(self):
        return len(self.types)

    def __iter__(self):
        return iter(self.types)


@record
class Constructor:
    label: str
    args: Telescope       # over Delta
    rec_arities: tuple    # Telescopes over (Delta, args)
    ivar_count: int
    face: Face            # over the constructor's interval variables
    # Of (Face, Term): each piece is an ordinary term over Delta, args, the
    # recursive arguments (the k-th a term variable of type
    # (Theta_k) -> H(Delta)) and the interval binders.
    boundary: tuple


@record
class HitSignature:
    name: str
    params: Telescope
    level: int
    constructors: tuple

    @cached_property
    def _by_label(self):
        # Built in reverse, so that the first of two equal labels wins.
        return {c.label: (k, c)
                for k, c in reversed(tuple(enumerate(self.constructors)))}

    def constructor(self, label):
        return self._by_label[label][1]

    def index_of(self, label):
        return self._by_label[label][0]
