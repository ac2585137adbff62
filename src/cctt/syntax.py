"""Core term language: sorted de Bruijn syntax over five-entry contexts.

Contexts are ordered lists whose entries come in five sorts -- term
variables, clocks, ticks, interval variables, and face restrictions.  A
variable of a given sort is an index counting binders of that same sort
from the inside out, so inserting an entry of one sort never renumbers the
others.  Face entries bind no variables at all; they only restrict.

A data signature's constructor boundaries are ordinary terms too, scoped in
the constructor's telescope (`Constructor.boundary`).

Interval expressions and faces are held as their normal forms
(`cctt.interval`), so alpha-equality (`structural_equal`) compares them
with `==`, and a renaming maps their literals (`Renaming.iv`).

Every term has a loose-variable bound (`loose_bound`), as Lean 4's kernel
keeps a loose bound-variable range on every expression (de Moura and
Ullrich, "The Lean 4 Theorem Prover and Programming Language", CADE 2021):
per sort (term, clock, tick, interval), one more than the largest free
index, so 0 when the term has no free variable of the sort.  It is worked
out on first use, without Python recursion, and kept on the term, where
`==`, `hash`, `repr` and `structural_equal` do not see it.  A renaming
(`rename_term`, `weaken`, `weaken_tick`) returns a subterm as it is when
no free variable of it can move: per sort, the bound is at most the
binders walked under, plus the indices the renaming leaves in place
(`Renaming.fixed`: all of them for a sort it maps by identity, a shift's
cut, none for a renaming that checks its variables, so that its check
still fires).  `ticks` skips the same way when it substitutes.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from math import inf

from .errors import IllFormedRedex, TickEscape
from .interval import Face, IExpr, iv_rename

# Entry sorts.
TERM, CLOCK, TICK, IVAL, FACE = "term", "clock", "tick", "ival", "face"


# --------------------------------------------------------------------------
# Ticks
# --------------------------------------------------------------------------

class Tick:
    __slots__ = ()


@dataclass(frozen=True)
class TickVar(Tick):
    ix: int

    def __repr__(self):
        return f"a{self.ix}"


@dataclass(frozen=True)
class Diamond(Tick):
    """Only legal inside forcing-tick applications."""

    def __repr__(self):
        return "<>"


@dataclass(frozen=True)
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
    # then set on the instance, past the dataclass fields.  The leaves know
    # theirs from the start.
    _loose = None

    def __repr__(self):
        parts = ", ".join(repr(getattr(self, f.name)) for f in fields(self))
        return f"{type(self).__name__}({parts})"


def _td(cls):
    return dataclass(frozen=True, repr=False)(cls)


@_td
class Var(Term):
    ix: int

    @property
    def _loose(self):
        return (self.ix + 1, 0, 0, 0)

    def __repr__(self):
        return f"x{self.ix}"


@_td
class U(Term):
    level: int

    _loose = (0, 0, 0, 0)

    def __repr__(self):
        return f"U{self.level}"


@_td
class Pi(Term):
    dom: Term
    cod: Term  # binds one term variable


@_td
class Lam(Term):
    body: Term  # binds one term variable


@_td
class App(Term):
    fn: Term
    arg: Term


@_td
class Sigma(Term):
    fst: Term
    snd: Term  # binds one term variable


@_td
class Pair(Term):
    fst: Term
    snd: Term


@_td
class Fst(Term):
    arg: Term


@_td
class Snd(Term):
    arg: Term


@_td
class PathT(Term):
    ty: Term
    left: Term
    right: Term


@_td
class PLam(Term):
    body: Term  # binds one interval variable


@_td
class PApp(Term):
    fn: Term
    arg: IExpr


@_td
class Forall(Term):
    body: Term  # binds one clock


@_td
class CLam(Term):
    body: Term  # binds one clock


@_td
class CApp(Term):
    fn: Term
    clock: int


@_td
class Later(Term):
    clock: int
    ty: Term  # binds one tick on `clock`


@_td
class TickLam(Term):
    clock: int
    body: Term  # binds one tick on `clock`


@_td
class TickApp(Term):
    fn: Term
    tick: Tick


@_td
class ForceApp(Term):
    """Forcing tick application (kappa.fn)[(clock, tick)]; fn binds a clock."""
    fn: Term
    clock: int
    tick: Tick


@_td
class DFix(Term):
    clock: int
    fn: Term


@_td
class PFix(Term):
    clock: int
    fn: Term


@_td
class Comp(Term):
    """comp^i ty [face -> tube] base; ty and tube bind the interval variable."""
    ty: Term
    face: Face
    tube: Term
    base: Term


@_td
class HComp(Term):
    """Homogeneous composition at a fixed type; tube binds the line variable."""
    ty: Term
    face: Face
    tube: Term
    base: Term


@_td
class Trans(Term):
    """Transport along a type line (binds the line variable) under a face."""
    ty: Term
    face: Face
    base: Term


@_td
class Hit(Term):
    name: str
    params: tuple


@_td
class Con(Term):
    name: str
    label: str
    params: tuple  # HIT parameters delta
    args: tuple    # non-recursive arguments
    recs: tuple    # recursive arguments
    ivals: tuple   # interval arguments


@_td
class ElimCase:
    label: str
    n_args: int   # gamma binders (term sort)
    n_recs: int   # x-bar and y-bar binders (term sort, n_recs each)
    n_ivars: int  # interval binders
    body: Term

    __repr__ = Term.__repr__


@_td
class ClockElim(Term):
    """Induction under clocks with an n-ary clock vector (n may be 0)."""
    name: str
    n: int
    params: tuple            # delta, each component clock-abstracted n times
    motive: Term             # binds one term variable h
    cases: tuple             # ElimCase per constructor, declaration order
    arg: Term


@_td
class System(Term):
    parts: tuple  # of (Face, Term)


@_td
class TopRef(Term):
    name: str

    _loose = (0, 0, 0, 0)


# --------------------------------------------------------------------------
# Contexts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EVar:
    ty: Term


@dataclass(frozen=True)
class EClock:
    pass


@dataclass(frozen=True)
class ETick:
    clock: int  # clock index relative to the prefix before this entry


@dataclass(frozen=True)
class EIVar:
    pass


@dataclass(frozen=True)
class EFace:
    face: Face


_ENTRY_SORT = {EVar: TERM, EClock: CLOCK, ETick: TICK, EIVar: IVAL, EFace: FACE}


def entry_sort(entry):
    return _ENTRY_SORT[type(entry)]


@dataclass(frozen=True)
class Context:
    entries: tuple = ()
    # The number of entries of each sort: worked out by the first `count`
    # and carried along by `push`, so that counting is O(1).
    counts: dict = field(default=None, compare=False, repr=False)
    # The type of each term variable `term_type` was asked for, by index.
    types: dict = field(default=None, compare=False, repr=False)

    def push(self, entry):
        counts = self.counts
        if counts is not None:
            counts = counts.copy()
            counts[entry_sort(entry)] += 1
        return Context(self.entries + (entry,), counts)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def sorts(self):
        return [entry_sort(e) for e in self.entries]

    def count(self, sort):
        if self.counts is None:
            counts = dict.fromkeys(_ENTRY_SORT.values(), 0)
            for e in self.entries:
                counts[entry_sort(e)] += 1
            object.__setattr__(self, "counts", counts)
        return self.counts[sort]

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

    def index_at(self, pos):
        """Sort-local index, seen from the full context, of the entry at pos."""
        sort = entry_sort(self.entries[pos])
        return sum(
            1 for e in self.entries[pos + 1:] if entry_sort(e) == sort
        )

    def term_type(self, ix):
        types = self.types
        if types is None:
            types = {}
            object.__setattr__(self, "types", types)
        ty = types.get(ix)
        if ty is None:
            pos = self.pos_of(TERM, ix)
            # The payload is scoped in the strict prefix: weaken past the
            # entry itself as well as everything bound after it.
            sorts = [entry_sort(e) for e in self.entries[pos:]]
            ty = types[ix] = weaken(self.entries[pos].ty, sorts)
        return ty

    def tick_clock(self, ix):
        """Clock index (valid in the full context) of the ix-th tick."""
        pos = self.pos_of(TICK, ix)
        entry = self.entries[pos]
        extra = sum(
            1 for e in self.entries[pos:] if entry_sort(e) == CLOCK
        )
        return entry.clock + extra

    def restriction_faces(self):
        """All face restrictions, each shifted to the full context."""
        out = []
        for pos, e in enumerate(self.entries):
            if entry_sort(e) == FACE:
                shift = sum(
                    1 for x in self.entries[pos + 1:]
                    if entry_sort(x) == IVAL
                )
                out.append(iv_rename(e.face, lambda ix: ix + shift))
        return out


# --------------------------------------------------------------------------
# Loose-variable bounds
# --------------------------------------------------------------------------

# Per sort (term, clock, tick, interval): the binders a term former puts
# around a subterm, and the bound of a closed term.
_NONE = (0, 0, 0, 0)
_T1, _C1, _K1, _I1 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
# The bound of anything that is not a well-formed term: no walk skips it,
# so the walker meets it and reports it as it always has.
_WILD = (inf, inf, inf, inf)
# A bound's position of each sort that binds variables.
_POS = {TERM: 0, CLOCK: 1, TICK: 2, IVAL: 3}


def _iv_bound(x):
    """The interval bound of an interval expression or a face."""
    return max((ix for clause in x for ix, _ in clause), default=-1) + 1


def _tick_bound(u):
    match u:
        case TickVar(ix):
            return (0, 0, ix + 1, 0)
        case Diamond():
            return _NONE
        case Tirr(l, r, at):
            left, right = _tick_bound(l), _tick_bound(r)
            return (0, 0, max(left[2], right[2]),
                    max(left[3], right[3], _iv_bound(at)))
    return _WILD


def _parts(t):
    """The bound of what t, not a leaf, holds directly (clocks, a tick,
    interval expressions and faces), and t's subterms, each with the
    binders t puts around it."""
    match t:
        case Pi(a, b) | Sigma(a, b):
            return _NONE, ((a, _NONE), (b, _T1))
        case Lam(body):
            return _NONE, ((body, _T1),)
        case App(a, b) | Pair(a, b):
            return _NONE, ((a, _NONE), (b, _NONE))
        case Fst(a) | Snd(a):
            return _NONE, ((a, _NONE),)
        case PathT(a, left, right):
            return _NONE, ((a, _NONE), (left, _NONE), (right, _NONE))
        case PLam(body):
            return _NONE, ((body, _I1),)
        case PApp(fn, r):
            return (0, 0, 0, _iv_bound(r)), ((fn, _NONE),)
        case Forall(body) | CLam(body):
            return _NONE, ((body, _C1),)
        case CApp(fn, k) | DFix(k, fn) | PFix(k, fn):
            return (0, k + 1, 0, 0), ((fn, _NONE),)
        case Later(k, body) | TickLam(k, body):
            return (0, k + 1, 0, 0), ((body, _K1),)
        case TickApp(fn, u):
            return _tick_bound(u), ((fn, _NONE),)
        case ForceApp(fn, k, u):
            _, _, ticks, ivals = _tick_bound(u)
            return (0, k + 1, ticks, ivals), ((fn, _C1),)
        case Comp(ty, face, tube, base):
            return (0, 0, 0, _iv_bound(face)), \
                ((ty, _I1), (tube, _I1), (base, _NONE))
        case HComp(ty, face, tube, base):
            return (0, 0, 0, _iv_bound(face)), \
                ((ty, _NONE), (tube, _I1), (base, _NONE))
        case Trans(ty, face, base):
            return (0, 0, 0, _iv_bound(face)), ((ty, _I1), (base, _NONE))
        case Hit(_, params):
            return _NONE, tuple((p, _NONE) for p in params)
        case Con(_, _, params, args, recs, ivals):
            return (0, 0, 0, max(map(_iv_bound, ivals), default=0)), \
                tuple((u, _NONE) for u in (*params, *args, *recs))
        case ClockElim(_, _, params, motive, cases, arg):
            return _NONE, (
                *((p, _NONE) for p in params),
                (motive, _T1),
                *((c.body, (c.n_args + 2 * c.n_recs, 0, 0, c.n_ivars))
                  for c in cases),
                (arg, _NONE),
            )
        case System(parts):
            return (0, 0, 0, max((_iv_bound(phi) for phi, _ in parts),
                                 default=0)), \
                tuple((u, _NONE) for _, u in parts)
    return _WILD, ()


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


def _moves(b, inserted, cut):
    """Whether inserting entries of the sorts `inserted`, `cut` entries
    in per sort, moves a free variable of a term whose bound is b."""
    for s in inserted:
        pos = _POS.get(s)   # a face entry binds no variable
        if pos is not None and b[pos] > (cut.get(s, 0) if cut else 0):
            return True
    return False


# --------------------------------------------------------------------------
# Generic renaming (weakening / strengthening)
# --------------------------------------------------------------------------

class Renaming:
    """Per-sort index maps; each map takes an index *relative to the outer
    context* (binder-local indices are handled by the traversal).

    `fixed` gives, per sort (term, clock, tick, interval), how many of the
    outer indices, from 0, the maps leave in place (a shift's cut, say);
    by default all of them for a sort mapped by identity and none for any
    other."""

    def __init__(self, term=None, clock=None, tick=None, ival=None,
                 fixed=None):
        ident = lambda ix: ix
        self.maps = {
            TERM: term or ident,
            CLOCK: clock or ident,
            TICK: tick or ident,
            IVAL: ival or ident,
        }
        self.fixed = fixed or tuple(inf if m is None else 0
                                    for m in (term, clock, tick, ival))

    def apply(self, sort, ix, depth):
        if ix < depth[sort]:
            return ix
        return self.maps[sort](ix - depth[sort]) + depth[sort]

    def iv(self, x, depth):
        """The interval expression or face x, renamed (every map is
        injective)."""
        return iv_rename(x, lambda ix: self.apply(IVAL, ix, depth))


def _shift_map(cut, by):
    def go(ix):
        new = ix + by if ix >= cut else ix
        if new < 0:
            raise TickEscape("variable does not survive strengthening")
        return new
    return go


ZERO_DEPTH = {TERM: 0, CLOCK: 0, TICK: 0, IVAL: 0}


def _bump(depth, *sorts):
    new = dict(depth)
    for s in sorts:
        new[s] += 1
    return new


def rename_tick(u, ren, depth):
    match u:
        case TickVar(ix):
            return TickVar(ren.apply(TICK, ix, depth))
        case Diamond():
            return u
        case Tirr(l, r, at):
            return Tirr(
                rename_tick(l, ren, depth),
                rename_tick(r, ren, depth),
                ren.iv(at, depth),
            )
    raise IllFormedRedex(f"not a tick: {u!r}")


def rename_term(t, ren, depth=None):
    d = ZERO_DEPTH if depth is None else depth
    go = rename_term

    # A term none of whose free variables can move is its own image.
    b = getattr(t, "_loose", None) or loose_bound(t)
    f = ren.fixed
    if (b[0] <= d[TERM] + f[0] and b[1] <= d[CLOCK] + f[1]
            and b[2] <= d[TICK] + f[2] and b[3] <= d[IVAL] + f[3]):
        return t

    match t:
        case Var(ix):
            return Var(ren.apply(TERM, ix, d))
        case U(_) | TopRef(_):
            return t
        case Pi(dom, cod):
            return Pi(go(dom, ren, d), go(cod, ren, _bump(d, TERM)))
        case Lam(body):
            return Lam(go(body, ren, _bump(d, TERM)))
        case App(fn, arg):
            return App(go(fn, ren, d), go(arg, ren, d))
        case Sigma(fst, snd):
            return Sigma(go(fst, ren, d), go(snd, ren, _bump(d, TERM)))
        case Pair(fst, snd):
            return Pair(go(fst, ren, d), go(snd, ren, d))
        case Fst(arg):
            return Fst(go(arg, ren, d))
        case Snd(arg):
            return Snd(go(arg, ren, d))
        case PathT(ty, left, right):
            return PathT(go(ty, ren, d), go(left, ren, d), go(right, ren, d))
        case PLam(body):
            return PLam(go(body, ren, _bump(d, IVAL)))
        case PApp(fn, arg):
            return PApp(go(fn, ren, d), ren.iv(arg, d))
        case Forall(body):
            return Forall(go(body, ren, _bump(d, CLOCK)))
        case CLam(body):
            return CLam(go(body, ren, _bump(d, CLOCK)))
        case CApp(fn, clock):
            return CApp(go(fn, ren, d), ren.apply(CLOCK, clock, d))
        case Later(clock, ty):
            return Later(ren.apply(CLOCK, clock, d), go(ty, ren, _bump(d, TICK)))
        case TickLam(clock, body):
            return TickLam(
                ren.apply(CLOCK, clock, d), go(body, ren, _bump(d, TICK))
            )
        case TickApp(fn, tick):
            return TickApp(go(fn, ren, d), rename_tick(tick, ren, d))
        case ForceApp(fn, clock, tick):
            return ForceApp(
                go(fn, ren, _bump(d, CLOCK)),
                ren.apply(CLOCK, clock, d),
                rename_tick(tick, ren, d),
            )
        case DFix(clock, fn):
            return DFix(ren.apply(CLOCK, clock, d), go(fn, ren, d))
        case PFix(clock, fn):
            return PFix(ren.apply(CLOCK, clock, d), go(fn, ren, d))
        case Comp(ty, face, tube, base):
            di = _bump(d, IVAL)
            return Comp(
                go(ty, ren, di), ren.iv(face, d),
                go(tube, ren, di), go(base, ren, d),
            )
        case HComp(ty, face, tube, base):
            return HComp(
                go(ty, ren, d), ren.iv(face, d),
                go(tube, ren, _bump(d, IVAL)), go(base, ren, d),
            )
        case Trans(ty, face, base):
            return Trans(
                go(ty, ren, _bump(d, IVAL)), ren.iv(face, d),
                go(base, ren, d),
            )
        case Hit(name, params):
            return Hit(name, tuple(go(p, ren, d) for p in params))
        case Con(name, label, params, args, recs, ivals):
            return Con(
                name, label,
                tuple(go(p, ren, d) for p in params),
                tuple(go(a, ren, d) for a in args),
                tuple(go(a, ren, d) for a in recs),
                tuple(ren.iv(r, d) for r in ivals),
            )
        case ClockElim(name, n, params, motive, cases, arg):
            return ClockElim(
                name, n,
                tuple(go(p, ren, d) for p in params),
                go(motive, ren, _bump(d, TERM)),
                tuple(_rename_case(c, ren, d) for c in cases),
                go(arg, ren, d),
            )
        case System(parts):
            return System(tuple(
                (ren.iv(phi, d), go(u, ren, d)) for phi, u in parts
            ))
    raise IllFormedRedex(f"not a term: {t!r}")


def _rename_case(case, ren, d):
    inner = dict(d)
    inner[TERM] += case.n_args + 2 * case.n_recs
    inner[IVAL] += case.n_ivars
    return ElimCase(
        case.label, case.n_args, case.n_recs, case.n_ivars,
        rename_term(case.body, ren, inner),
    )


def weaken(t, inserted, cut=None):
    """Shift t's indices to account for entries inserted into its context.

    `inserted` is the sort list of the new entries.  `cut` gives, per sort,
    how many innermost entries sit between the term and the insertion point
    (all zero when inserting at the inner end).
    """
    if not inserted or not _moves(loose_bound(t), inserted, cut):
        return t
    return rename_term(t, _weakening(inserted, cut))


def _weakening(inserted, cut):
    cuts = cut or {}
    return _shift_renaming(
        tuple(inserted.count(s) for s in (TERM, CLOCK, TICK, IVAL)),
        tuple(cuts.get(s, 0) for s in (TERM, CLOCK, TICK, IVAL)),
    )


@lru_cache(maxsize=1024)
def _shift_renaming(amounts, cuts):
    """The renaming shifting each sort's indices from its cut on by its
    amount; one object per shape, since weakening is on the hot path."""
    term, clock, tick, ival = (
        _shift_map(c, n) if n else None for n, c in zip(amounts, cuts)
    )
    fixed = tuple(c if n else inf for n, c in zip(amounts, cuts))
    return Renaming(term=term, clock=clock, tick=tick, ival=ival,
                    fixed=fixed)


def weaken_iv(x, inserted, cut=0):
    """The interval expression or face x, weakened past the interval
    binders among `inserted`, `cut` binders in."""
    by = sum(1 for s in inserted if s == IVAL)
    return iv_rename(x, lambda ix: ix + by if ix >= cut else ix)


def weaken_tick(u, inserted, cut=None):
    if not inserted or not _moves(_tick_bound(u), inserted, cut):
        return u
    return rename_tick(u, _weakening(inserted, cut), ZERO_DEPTH)


# --------------------------------------------------------------------------
# Structural equality (alpha-equality)
# --------------------------------------------------------------------------

# Compared field by field: every term class, eliminator cases and ticks,
# each with its field names.
_FIELDS = {cls: tuple(f.name for f in fields(cls))
           for cls in (*Term.__subclasses__(), ElimCase, TickVar, Diamond,
                       Tirr)}


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
        names = _FIELDS.get(cls)
        if names is not None:
            if type(b) is not cls:
                return False
            # The fields only: a cached loose-variable bound is no part of
            # the term.
            da, db = a.__dict__, b.__dict__
            for name in names:
                x, y = da[name], db[name]
                if x is not y:
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


# --------------------------------------------------------------------------
# Telescopes and HIT signatures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Telescope:
    """Ordered term-variable types; entry k is scoped under entries 0..k-1."""
    types: tuple = ()

    def __len__(self):
        return len(self.types)

    def __iter__(self):
        return iter(self.types)


@dataclass(frozen=True)
class Constructor:
    label: str
    args: Telescope       # over (ambient, Delta)
    rec_arities: tuple    # Telescopes over (ambient, Delta, args)
    ivar_count: int
    face: Face            # over the constructor's interval variables
    # Of (Face, Term): each piece is an ordinary term over the prelude
    # clock, Delta, args, the recursive arguments (the k-th a term variable
    # of type (Theta_k) -> H(Delta)) and the interval binders.
    boundary: tuple


@dataclass(frozen=True)
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
