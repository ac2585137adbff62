"""Independent reference semantics used to cross-check the kernel.

The kernel keeps interval expressions and faces as their normal forms, so
the oracles keep trees of their own.  Interval trees are the tuples TZERO,
TONE, ("var", ix), ("neg", t), ("meet", l, r) and ("join", l, r);
`kernel_iv` builds the kernel's expression from a tree, and `iv_tree`
reads a kernel expression back as one (the join of its clauses).  They are
evaluated into DM4, the four-element De Morgan algebra on the lattice 2x2
whose two middle elements are fixed by the involution.  DM4 generates the
variety of De Morgan algebras, so two expressions are equal in the free
algebra iff they agree under every DM4 assignment.

Face formulas are evaluated under three-state valuations: each variable is
set to 0, set to 1, or left unconstrained.  Faces are the trees TBOT, TTOP,
("eq", ix, end), ("and", l, r) and ("or", l, r); `kernel_face` and
`face_tree` go between them and the kernel's faces.  Substituting interval
expressions into a face is checked by evaluating each expression's tree
under the valuation in strong Kleene logic (`iv_kleene`): an expression is
forced to an endpoint on a face exactly when its Kleene value is that
endpoint.

`Renamer` renames a term's free variables by plain recursion, a map per
sort, and skips no subterm; `shifted` weakens with it, and `mask_renamer`
strengthens into a residual context.

`reference_tick_mask` is the residual mask of a tick as the kernel once
built it, by a general mask algebra: a tick variable's mask, every entry
for `<>`, and for a `tirr` the intersection of its operands' masks,
checked by the trimming relation (`trim_check`: a suffix replaced by its
timeless part TL, `timeless`) to arise from each, or `NoCommonResidual`.

Substitution has two references.  `naive_subst` does what the kernel's
`syntax.subst` builder does, one variable at a time, by plain recursion
over the term, with no shifts or explicit substitutions; it moves terms
between contexts with `Renamer`.  The residual
operations on substitutions (Operations 1 and 2) keep a substitution of
their own, `Explicit`: its domain and codomain contexts and one component
per codomain entry, as tuples ("term", t), ("clock", k), ("tick", u),
("forced", k, u) for a forcing tick on domain clock k, and ("ival", r).

`reference_whnf` is weak-head reduction by substitution, one redex at a
time, every redex contracted by `naive_subst`: the rule the kernel's
environment machine replaced, kept to check the machine against, and
`reference_normal` reduces under every head with it.

`reference_term_type` is the type of a context's term variable renamed
from its entry's type, as `Context.term_type` finds it when nothing was
handed to it.

`free_indices` collects a term's free indices per sort by a plain
recursive walk; `bound_of` reads off it the loose-variable bound that
`syntax.loose_bound` caches on the term.

`load_workloads` loads the benchmark's input generators, for checking the
kernel on the inputs it is measured on.

`token_mutants` makes seeded single-token mutants of a source text, for
checking that malformed input still gets a verdict per declaration.
`reference_tokenize` is the tokenizer that counts lines as it goes: every
newline is a match of its own, and each token carries its kind, line and
column.
"""

import importlib.util
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

from cctt.errors import (
    CaseMissing, CcttError, ClockMismatch, DiamondOutsideForcing,
    FuelExhausted, MalformedSubstitution, NotATick, ParseError, TickEscape,
)
from cctt.interval import (
    FAnd, FBOT, FEq, FOr, FTOP, IJoin, IMeet, INeg, IONE, IVar, IZERO,
    face_is_true, iv_map_vars, iv_rename, iv_substitute,
)
from cctt.syntax import (
    CLOCK, IVAL, K0, TERM, TICK,
    App, CApp, CForcedTick, CLam, ClockElim, Comp, Con, Context, DFix,
    Diamond, EClock, EIVar, ETick, EVar, ElimCase, ForceApp, Forall, Fst,
    HComp, Hit, Lam, Later, PApp, PFix, PLam, Pair, PathT, Pi, Sigma, Snd,
    System, TickApp, TickLam, TickVar, Tirr, TopRef, Trans, U, Var,
    entry_sort,
)
from cctt.ticks import apply_mask, force, residual_mask

# DM4 elements as pairs ordered componentwise; the involution reverses the
# order and swaps the components, fixing (0,1) and (1,0).
DM4 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def dm4_neg(x):
    return (1 - x[1], 1 - x[0])


def dm4_meet(x, y):
    return (min(x[0], y[0]), min(x[1], y[1]))


def dm4_join(x, y):
    return (max(x[0], y[0]), max(x[1], y[1]))


TZERO = ("zero",)
TONE = ("one",)


def iv_tree_vars(tree):
    match tree:
        case ("var", ix):
            return {ix}
        case ("neg", arg):
            return iv_tree_vars(arg)
        case ("meet", l, r) | ("join", l, r):
            return iv_tree_vars(l) | iv_tree_vars(r)
    return set()


def kernel_iv(tree):
    """The kernel's interval expression for a tree, built with the
    kernel's builders."""
    match tree:
        case ("zero",):
            return IZERO
        case ("one",):
            return IONE
        case ("var", ix):
            return IVar(ix)
        case ("neg", arg):
            return INeg(kernel_iv(arg))
        case ("meet", l, r):
            return IMeet(kernel_iv(l), kernel_iv(r))
        case ("join", l, r):
            return IJoin(kernel_iv(l), kernel_iv(r))
    raise TypeError(tree)


def iv_tree(r):
    """A kernel interval expression read back as a tree: the join of its
    clauses, each the meet of its literals."""
    out = TZERO
    for clause in r:
        meet = TONE
        for ix, end in clause:
            lit = ("var", ix)
            meet = ("meet", meet, lit if end else ("neg", lit))
        out = ("join", out, meet)
    return out


def dm4_eval(tree, env):
    match tree:
        case ("zero",):
            return (0, 0)
        case ("one",):
            return (1, 1)
        case ("var", ix):
            return env[ix]
        case ("neg", arg):
            return dm4_neg(dm4_eval(arg, env))
        case ("meet", l, r):
            return dm4_meet(dm4_eval(l, env), dm4_eval(r, env))
        case ("join", l, r):
            return dm4_join(dm4_eval(l, env), dm4_eval(r, env))
    raise TypeError(tree)


@lru_cache(maxsize=None)
def _dm4_columns(n):
    """For n variables, the value of each under every assignment of
    `product(DM4, repeat=n)`, as two bit masks: bit a of the first (second)
    is the first (second) component of its value under assignment a; and
    the mask with a bit for every assignment."""
    rows = list(product(DM4, repeat=n))
    columns = [tuple(sum(1 << a for a, row in enumerate(rows) if row[p][c])
                     for c in (0, 1))
               for p in range(n)]
    return columns, (1 << len(rows)) - 1


def dm4_table(tree, vs):
    """`dm4_eval` of the tree under every assignment to the variables vs at
    once, as bit masks laid out as in `_dm4_columns`."""
    columns, full = _dm4_columns(len(vs))
    env = dict(zip(vs, columns))

    def go(t):
        match t:
            case ("zero",):
                return 0, 0
            case ("one",):
                return full, full
            case ("var", ix):
                return env[ix]
            case ("neg", arg):
                a, b = go(arg)
                return full ^ b, full ^ a
            case ("meet", l, r):
                (a, b), (c, d) = go(l), go(r)
                return a & c, b & d
            case ("join", l, r):
                (a, b), (c, d) = go(l), go(r)
                return a | c, b | d
        raise TypeError(t)

    return go(tree)


def dm4_equal(r, s):
    """Oracle for equality in the free De Morgan algebra, on trees: r and s
    agree under every DM4 assignment."""
    vs = sorted(iv_tree_vars(r) | iv_tree_vars(s))
    return dm4_table(r, vs) == dm4_table(s, vs)


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


def iv_kleene(tree, valuation):
    """An interval tree under a three-state valuation in strong Kleene
    logic: 0, 1, or None when the valuation does not force it."""
    match tree:
        case ("zero",):
            return 0
        case ("one",):
            return 1
        case ("var", ix):
            return valuation.get(ix)
        case ("neg", arg):
            x = iv_kleene(arg, valuation)
            return None if x is None else 1 - x
        case ("meet", l, r):
            x, y = iv_kleene(l, valuation), iv_kleene(r, valuation)
            return 0 if 0 in (x, y) else 1 if x == y == 1 else None
        case ("join", l, r):
            x, y = iv_kleene(l, valuation), iv_kleene(r, valuation)
            return 1 if 1 in (x, y) else 0 if x == y == 0 else None
    raise TypeError(tree)


def face_eval_under(tree, assignment, valuation):
    """The face tree with each variable ix replaced by the interval tree
    assignment[ix] (every variable of the face has one), under
    valuation."""
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


# --------------------------------------------------------------------------
# Renaming, by plain recursion
# --------------------------------------------------------------------------

_SORTS = (TERM, CLOCK, TICK, IVAL)


def _zero_depth():
    return dict.fromkeys(_SORTS, 0)


class Renamer:
    """Rename the free variables of a term: each sort's map takes an index
    seen from outside every binder to its new index (the identity when
    None), and may raise for a variable that has none.  The walk is plain
    recursion and visits every subterm; a subclass may replace what it does
    at variables and at tick applications."""

    def __init__(self, term=None, clock=None, tick=None, ival=None):
        self.maps = {TERM: term, CLOCK: clock, TICK: tick, IVAL: ival}

    def var(self, sort, ix, d):
        f = self.maps[sort]
        if f is None or ix < d[sort]:
            return ix
        return f(ix - d[sort]) + d[sort]

    def term_var(self, ix, d):
        return Var(self.var(TERM, ix, d))

    def clock(self, k, d):
        return self.var(CLOCK, k, d)

    def iv(self, x, d):
        """An interval expression or a face."""
        return iv_rename(x, lambda ix: self.var(IVAL, ix, d))

    def tick(self, u, d=None):
        d = d or _zero_depth()
        match u:
            case TickVar(ix):
                return TickVar(self.var(TICK, ix, d))
            case Diamond():
                return u
            case Tirr(l, r, at):
                return Tirr(self.tick(l, d), self.tick(r, d),
                            self.iv(at, d))
        raise NotATick(repr(u))

    def term(self, t, d=None):
        d = d or _zero_depth()
        go = self.term

        def under(*sorts):
            inner = dict(d)
            for s in sorts:
                inner[s] += 1
            return inner

        match t:
            case Var(ix):
                return self.term_var(ix, d)
            case U(_) | TopRef(_):
                return t
            case Pi(dom, cod):
                return Pi(go(dom, d), go(cod, under(TERM)))
            case Lam(body):
                return Lam(go(body, under(TERM)))
            case App(fn, arg):
                return App(go(fn, d), go(arg, d))
            case Sigma(fst, snd):
                return Sigma(go(fst, d), go(snd, under(TERM)))
            case Pair(fst, snd):
                return Pair(go(fst, d), go(snd, d))
            case Fst(arg):
                return Fst(go(arg, d))
            case Snd(arg):
                return Snd(go(arg, d))
            case PathT(ty, left, right):
                return PathT(go(ty, d), go(left, d), go(right, d))
            case PLam(body):
                return PLam(go(body, under(IVAL)))
            case PApp(fn, r):
                return PApp(go(fn, d), self.iv(r, d))
            case Forall(body):
                return Forall(go(body, under(CLOCK)))
            case CLam(body):
                return CLam(go(body, under(CLOCK)))
            case CApp(fn, k):
                return CApp(go(fn, d), self.clock(k, d))
            case Later(k, ty):
                return Later(self.clock(k, d), go(ty, under(TICK)))
            case TickLam(k, body):
                return TickLam(self.clock(k, d), go(body, under(TICK)))
            case TickApp(fn, u):
                return self.tick_app(fn, u, d)
            case ForceApp(fn, k, u):
                return ForceApp(go(fn, under(CLOCK)), self.clock(k, d),
                                self.tick(u, d))
            case DFix(k, fn):
                return DFix(self.clock(k, d), go(fn, d))
            case PFix(k, fn):
                return PFix(self.clock(k, d), go(fn, d))
            case Comp(ty, phi, tube, base):
                return Comp(go(ty, under(IVAL)), self.iv(phi, d),
                            go(tube, under(IVAL)), go(base, d))
            case HComp(ty, phi, tube, base):
                return HComp(go(ty, d), self.iv(phi, d),
                             go(tube, under(IVAL)), go(base, d))
            case Trans(ty, phi, base):
                return Trans(go(ty, under(IVAL)), self.iv(phi, d),
                             go(base, d))
            case Hit(name, params):
                return Hit(name, tuple(go(p, d) for p in params))
            case Con(name, label, params, args, recs, ivals):
                return Con(name, label, tuple(go(p, d) for p in params),
                           tuple(go(a, d) for a in args),
                           tuple(go(a, d) for a in recs),
                           tuple(self.iv(r, d) for r in ivals))
            case ClockElim(name, n, params, motive, cases, arg):
                def case_body(c):
                    binders = ([TERM] * (c.n_args + 2 * c.n_recs)
                               + [IVAL] * c.n_ivars)
                    return go(c.body, under(*binders))
                return ClockElim(
                    name, n, tuple(go(p, d) for p in params),
                    go(motive, under(TERM)),
                    tuple(ElimCase(c.label, c.n_args, c.n_recs, c.n_ivars,
                                   case_body(c)) for c in cases),
                    go(arg, d),
                )
            case System(parts):
                return System(tuple((self.iv(phi, d), go(u, d))
                                    for phi, u in parts))
        raise TypeError(t)

    def tick_app(self, fn, u, d):
        return TickApp(self.term(fn, d), self.tick(u, d))


def shifted(inserted, cut=None):
    """The renaming that weakens past entries of the sorts `inserted`,
    `cut` entries in per sort (none by default)."""
    cut = cut or {}

    def by(sort):
        n, c = inserted.count(sort), cut.get(sort, 0)
        return lambda ix: ix + n if ix >= c else ix

    return Renamer(*map(by, _SORTS))


def mask_renamer(ctx, mask):
    """The renaming from ctx into its masked context; a dropped variable
    raises TickEscape."""
    tables = {s: {} for s in _SORTS}
    seen, kept = _zero_depth(), _zero_depth()
    for e, keep in zip(reversed(ctx.entries), reversed(mask)):
        sort = entry_sort(e)
        if keep:
            tables[sort][seen[sort]] = kept[sort]
            kept[sort] += 1
        seen[sort] += 1

    def remap(sort):
        def go(ix):
            if ix not in tables[sort]:
                raise TickEscape(f"{sort} variable {ix} is dropped")
            return tables[sort][ix]
        return go

    return Renamer(*map(remap, _SORTS))


# --------------------------------------------------------------------------
# Residual masks by intersection and trimming
# --------------------------------------------------------------------------

class NoCommonResidual(Exception):
    """The operands of a tirr admit no common residual context."""


def timeless(ctx):
    """TL: keep clocks, interval variables and the restriction; drop the
    rest."""
    return Context(tuple(e for e in ctx.entries
                         if entry_sort(e) in (CLOCK, IVAL)), ctx.restriction)


def trim_check(trimmed, ctx):
    """True iff `trimmed` arises from ctx by replacing a suffix by its TL
    (so it has ctx's restriction)."""
    for split in range(len(ctx.entries) + 1):
        candidate = Context(
            ctx.entries[:split]
            + timeless(Context(ctx.entries[split:])).entries,
            ctx.restriction,
        )
        if candidate == trimmed:
            return True
    return False


def reference_tick_mask(ctx, u, clock, forcing=False):
    """The residual mask of the tick u on `clock`, by intersection."""
    match u:
        case TickVar(ix):
            try:
                pos = ctx.pos_of(TICK, ix)
            except IndexError:
                raise NotATick(f"tick variable {ix} is not in scope")
            if ctx.tick_clock(ix) != clock:
                raise ClockMismatch(
                    f"tick variable {ix} is on clock {ctx.tick_clock(ix)}, "
                    f"expected {clock}"
                )
            return [True] * pos + [False] + [
                entry_sort(e) in (CLOCK, IVAL) for e in ctx.entries[pos + 1:]]
        case Diamond():
            if not forcing:
                raise DiamondOutsideForcing(
                    "the forcing tick <> cannot appear in simple position"
                )
            return [True] * len(ctx.entries)
        case Tirr(l, r, _):
            ml = reference_tick_mask(ctx, l, clock, forcing)
            mr = reference_tick_mask(ctx, r, clock, forcing)
            both = [a and b for a, b in zip(ml, mr)]
            left = apply_mask(ctx, both)
            if not (trim_check(left, apply_mask(ctx, ml))
                    and trim_check(left, apply_mask(ctx, mr))):
                raise NoCommonResidual(
                    "tirr operands admit no common residual context"
                )
            return both
    raise NotATick(f"not a tick: {u!r}")


# --------------------------------------------------------------------------
# Substitution, one variable at a time
# --------------------------------------------------------------------------

def _sorts_of(depth):
    return [s for s in _SORTS for _ in range(depth[s])]


def _tick_vars(u):
    match u:
        case TickVar(ix):
            return {ix}
        case Diamond():
            return set()
        case Tirr(l, r, _):
            return _tick_vars(l) | _tick_vars(r)
    raise NotATick(repr(u))


class _Subst1(Renamer):
    """Replace variable `ix` of `sort` (seen from outside every binder) by
    `payload`, scoped past it, and move the variables of the sort outside
    it in by one.  A clock payload is an index or K0; a tick payload a tick or a
    `CForcedTick`, whose clock is an index of the scope."""

    def __init__(self, sort, ix, payload):
        self.sort = sort
        self.ix = ix
        self.payload = payload

    def _var(self, sort, ix, d):
        """The index ix of sort, or None for the substituted variable."""
        if sort != self.sort or ix < d[sort] + self.ix:
            return ix
        if ix == d[sort] + self.ix:
            return None
        return ix - 1

    def _at(self, d):
        """The payload moved under the binders d."""
        p = _weakened(self.sort, self.payload, d)
        return p.tick if type(p) is CForcedTick else p

    def clock(self, k, d):
        x = self._var(CLOCK, k, d)
        return self._at(d) if x is None else x

    def iv(self, x, d):
        """An interval expression or a face."""
        def on_var(ix):
            y = self._var(IVAL, ix, d)
            return self._at(d) if y is None else y
        return iv_map_vars(x, on_var)

    def tick(self, u, d):
        match u:
            case TickVar(ix):
                x = self._var(TICK, ix, d)
                return self._at(d) if x is None else TickVar(x)
            case Diamond():
                return u
            case Tirr(l, r, at):
                left, right = self.tick(l, d), self.tick(r, d)
                if type(left) is Diamond and type(right) is Diamond:
                    return Diamond()
                return Tirr(left, right, self.iv(at, d))
        raise NotATick(repr(u))

    def term_var(self, ix, d):
        x = self._var(TERM, ix, d)
        return self._at(d) if x is None else Var(x)

    def tick_app(self, fn, u, d):
        if (type(self.payload) is CForcedTick
                and max(_tick_vars(u), default=None) == d[TICK] + self.ix):
            return self._force(fn, u, d)
        return super().tick_app(fn, u, d)

    def _force(self, fn, u, d):
        """fn [u] where u's leftmost tick variable is the forcing tick
        substituted: a forcing application, whose function binds a fresh
        clock in place of the paired clock."""
        paired = self.payload.clock + d[CLOCK]
        here = d[TICK] + self.ix

        def clock(j):
            return 0 if j == paired else j + 1

        def tick(ix):
            if ix == here:
                raise ValueError("the forced function mentions its tick")
            return ix - 1 if ix > here else ix

        fn = Renamer(clock=clock, tick=tick).term(fn)
        return ForceApp(fn, paired, self.tick(u, d))


def naive_subst(t, terms=(), clocks=(), ticks=(), ivals=(),
                fresh=(0, 0, 0, 0)):
    """t under the substitution the kernel builds with
    `subst(scope, terms, clocks, ticks, ivals, fresh)`.

    t's variables past the payloads are moved past the fresh binders; then
    the payloads go in one variable at a time, outermost first, each
    weakened past the payload variables still left inside it.  Ticks go in
    before clocks, so that a forcing tick finds its paired clock still a
    variable, and outermost first, so that a tick application is forced
    only when its leftmost tick variable is (a simple tick payload has a
    tick variable, so the variables it replaces stay leftmost)."""
    payloads = dict(zip(_SORTS, (terms, clocks, ticks, ivals)))
    left = {s: len(payloads[s]) for s in _SORTS}
    t = shifted([s for s, n in zip(_SORTS, fresh) for _ in range(n)],
                cut=left).term(t)
    for sort in (TICK, TERM, IVAL, CLOCK):
        for p in payloads[sort]:
            left[sort] -= 1
            t = _Subst1(sort, left[sort], _weakened(sort, p, left)).term(
                t, _zero_depth())
    return t


def _weakened(sort, p, depth):
    """A payload of `sort` moved past `depth` binders, a count per sort."""
    if sort == CLOCK:
        return p if p == K0 else p + depth[CLOCK]
    ren = shifted(_sorts_of(depth))
    if sort == IVAL:
        return ren.iv(p, _zero_depth())
    if sort == TICK:
        if type(p) is CForcedTick:
            return CForcedTick(p.clock, ren.tick(p.tick))
        return ren.tick(p)
    return ren.term(p)


# --------------------------------------------------------------------------
# Weak-head reduction by substitution
# --------------------------------------------------------------------------

class OutOfReach(Exception):
    """A head the reference reduction leaves to the kernel: composition,
    transport, and the eliminator's hcomp rule."""


def _ref_tick(u):
    """A tick's weak-head form: tirr at an endpoint is that side, and
    between two diamonds is a diamond."""
    if type(u) is not Tirr:
        return u
    left, right = _ref_tick(u.left), _ref_tick(u.right)
    if u.at == IZERO:
        return left
    if u.at == IONE:
        return right
    if type(left) is Diamond and type(right) is Diamond:
        return Diamond()
    return Tirr(left, right, u.at)


def _has_diamond(u):
    if type(u) is Tirr:
        return _has_diamond(u.left) or _has_diamond(u.right)
    return type(u) is Diamond


def _step(state):
    """Charge one step of the reference machine to state's fuel."""
    state.steps += 1
    if state.steps > state.max_steps:
        raise FuelExhausted(f"exceeded the step budget of {state.max_steps}")


def reference_whnf(state, ctx, t):
    """The weak-head normal form of t in ctx, one redex at a time: a beta
    redex of any sort, the forcing beta rule, a dfix or pfix unfolding, a
    firing boundary and the eliminator's constructor rule each substitute
    with `naive_subst`, and nothing is left pending.  `state` gives the
    definitions, signatures, fuel (a step per redex looked at) and the
    inference a path endpoint asks for."""
    while True:
        _step(state)
        match t:
            case TopRef(name):
                body = state.definition_body(name)
                if body is None:
                    return t
                t = body
            case App(fn, arg):
                fn = reference_whnf(state, ctx, fn)
                if type(fn) is not Lam:
                    return App(fn, arg)
                t = naive_subst(fn.body, terms=(arg,))
            case CApp(fn, k):
                fn = reference_whnf(state, ctx, fn)
                if type(fn) is not CLam:
                    return CApp(fn, k)
                t = naive_subst(fn.body, clocks=(k,))
            case Fst(p) | Snd(p):
                p = reference_whnf(state, ctx, p)
                if type(p) is not Pair:
                    return type(t)(p)
                t = p.fst if type(t) is Fst else p.snd
            case PApp(fn, r):
                fn = reference_whnf(state, ctx, fn)
                if type(fn) is PLam:
                    t = naive_subst(fn.body, ivals=(r,))
                    continue
                if type(fn) is ForceApp and type(fn.tick) is Diamond:
                    inner = reference_whnf(state, ctx.push(EClock()), fn.fn)
                    if type(inner) is PFix and inner.clock == 0:
                        t = naive_subst(App(inner.fn, DFix(0, inner.fn)),
                                        clocks=(fn.clock,))
                        continue
                if r in (IZERO, IONE):
                    end = _ref_endpoint(state, ctx, fn, r == IONE)
                    if end is not None:
                        t = end
                        continue
                return PApp(fn, r)
            case TickApp(fn, u):
                u = _ref_tick(u)
                fn = reference_whnf(state, ctx, fn)
                if type(fn) is not TickLam:
                    return TickApp(fn, u)
                t = naive_subst(fn.body, ticks=(u,))
            case ForceApp(fn, k, u):
                u = _ref_tick(u)
                if not _has_diamond(u):
                    t = TickApp(naive_subst(fn, clocks=(k,)), u)
                    continue
                fn = reference_whnf(state, ctx.push(EClock()), fn)
                if type(fn) is TickLam:
                    t = naive_subst(fn.body, clocks=(k,),
                                    ticks=(CForcedTick(0, u),))
                elif type(fn) is DFix and fn.clock == 0 \
                        and type(u) is Diamond:
                    t = naive_subst(App(fn.fn, DFix(0, fn.fn)), clocks=(k,))
                else:
                    return ForceApp(fn, k, u)
            case Con(name, label, params, args, recs, ivals):
                ctor = state.signature(name).constructor(label)
                at = dict(enumerate(reversed(ivals)))
                if not ctor.face or not face_is_true(
                        iv_substitute(ctor.face, at)):
                    return t
                t = next(
                    naive_subst(piece, terms=params + args + recs,
                                ivals=ivals)
                    for phi, piece in ctor.boundary
                    if face_is_true(iv_substitute(phi, at)))
            case ClockElim():
                reduced = _ref_elim(state, ctx, t)
                if reduced is None:
                    return t
                t = reduced
            case System(parts):
                t = next((u for phi, u in parts if face_is_true(phi)), None)
                if t is None:
                    return System(parts)
            case Comp() | HComp() | Trans():
                raise OutOfReach(type(t).__name__)
            case _:
                return t


def _ref_endpoint(state, ctx, fn, right):
    try:
        # The checker's type may be pending on an environment: the
        # reference reduces the term it stands for.
        ty = reference_whnf(state, ctx, force(state.infer(ctx, fn)))
    except FuelExhausted:
        raise
    except CcttError:
        return None
    if type(ty) is PathT:
        return ty.right if right else ty.left
    return None


def _ref_elim(state, ctx, elim):
    """The eliminator's constructor rule, building the case's payloads as
    the rule states them and substituting them all at once."""
    n, cur, cctx = elim.n, elim.arg, ctx
    for _ in range(n):
        cur = reference_whnf(state, cctx, cur)
        if type(cur) is not CLam:
            return None
        cctx, cur = cctx.push(EClock()), cur.body
    con = reference_whnf(state, cctx, cur)
    if type(con) is HComp:
        raise OutOfReach("the eliminator's hcomp rule")
    if type(con) is not Con:
        return None
    case = next((c for c in elim.cases if c.label == con.label), None)
    if case is None:
        raise CaseMissing(f"no case for constructor {con.label}")
    ctor = state.signature(elim.name).constructor(con.label)

    def clam_n(u):
        for _ in range(n):
            u = CLam(u)
        return u

    ys = []
    for rec, arity in zip(con.recs, ctor.rec_arities):
        m = len(arity.types)
        call = shifted([TERM] * m).term(rec)
        for j in range(m):
            call = App(call, Var(m - 1 - j))
        y = ClockElim(
            elim.name, n,
            tuple(shifted([TERM] * m).term(p) for p in elim.params),
            shifted([TERM] * m, {TERM: 1}).term(elim.motive),
            tuple(ElimCase(c.label, c.n_args, c.n_recs, c.n_ivars,
                           shifted([TERM] * m,
                                   {TERM: c.n_args + 2 * c.n_recs,
                                    IVAL: c.n_ivars}).term(c.body))
                  for c in elim.cases),
            clam_n(call))
        for _ in range(m):
            y = Lam(y)
        ys.append(y)
    payloads = [clam_n(a) for a in con.args + con.recs] + ys
    return naive_subst(case.body, terms=tuple(payloads), ivals=con.ivals)


def reference_normal(state, ctx, t):
    """t's normal form by `reference_whnf`, reduced under every head and
    binder; OutOfReach for a neutral eliminator, composition or system."""
    def go(t, ctx=ctx):
        return reference_normal(state, ctx, t)

    t = reference_whnf(state, ctx, t)
    match t:
        case Var() | U() | TopRef():
            return t
        case App(fn, arg):
            return App(go(fn), go(arg))
        case CApp(fn, k):
            return CApp(go(fn), k)
        case TickApp(fn, u):
            return TickApp(go(fn), u)
        case ForceApp(fn, k, u):
            return ForceApp(go(fn, ctx.push(EClock())), k, u)
        case PApp(fn, r):
            return PApp(go(fn), r)
        case Fst(p) | Snd(p):
            return type(t)(go(p))
        case Lam(body):
            return Lam(go(body, ctx.push(EVar(U(0)))))
        case CLam(body):
            return CLam(go(body, ctx.push(EClock())))
        case TickLam(k, body):
            return TickLam(k, go(body, ctx.push(ETick(k))))
        case PLam(body):
            return PLam(go(body, ctx.push(EIVar())))
        case Pair(a, b):
            return Pair(go(a), go(b))
        case Pi(dom, cod):
            return Pi(go(dom), go(cod, ctx.push(EVar(dom))))
        case Forall(body):
            return Forall(go(body, ctx.push(EClock())))
        case Later(k, body):
            return Later(k, go(body, ctx.push(ETick(k))))
        case DFix(k, fn) | PFix(k, fn):
            return type(t)(k, go(fn))
        case Hit(name, params):
            return Hit(name, tuple(map(go, params)))
        case Con(name, label, params, args, recs, ivals):
            return Con(name, label, tuple(map(go, params)),
                       tuple(map(go, args)), tuple(map(go, recs)), ivals)
    raise OutOfReach(type(t).__name__)


# --------------------------------------------------------------------------
# Variable types, by renaming
# --------------------------------------------------------------------------

def reference_term_type(ctx, ix):
    """The type of ctx's term variable ix: its entry's type, scoped in the
    entries before it, weakened past the entry and everything after it."""
    pos = ctx.pos_of(TERM, ix)
    return shifted([entry_sort(e) for e in ctx.entries[pos:]]).term(
        ctx.entries[pos].ty)


# --------------------------------------------------------------------------
# Free variables, by brute force
# --------------------------------------------------------------------------

def free_indices(t):
    """Per sort (term, clock, tick, interval), the set of t's free indices,
    collected by a plain recursive walk that keeps no bounds."""
    found = {s: set() for s in _SORTS}

    def var(sort, ix, d):
        if ix >= d[sort]:
            found[sort].add(ix - d[sort])

    def iv(x, d):
        for clause in x:
            for ix, _ in clause:
                var(IVAL, ix, d)

    def tick(u, d):
        match u:
            case TickVar(ix):
                var(TICK, ix, d)
            case Tirr(l, r, at):
                tick(l, d)
                tick(r, d)
                iv(at, d)

    def under(d, *sorts):
        inner = dict(d)
        for s in sorts:
            inner[s] += 1
        return inner

    def go(t, d):
        match t:
            case Var(ix):
                var(TERM, ix, d)
            case U(_) | TopRef(_):
                pass
            case Pi(a, b) | Sigma(a, b):
                go(a, d)
                go(b, under(d, TERM))
            case Lam(body):
                go(body, under(d, TERM))
            case App(a, b) | Pair(a, b):
                go(a, d)
                go(b, d)
            case Fst(a) | Snd(a):
                go(a, d)
            case PathT(a, left, right):
                for u in (a, left, right):
                    go(u, d)
            case PLam(body):
                go(body, under(d, IVAL))
            case PApp(fn, r):
                go(fn, d)
                iv(r, d)
            case Forall(body) | CLam(body):
                go(body, under(d, CLOCK))
            case CApp(fn, k) | DFix(k, fn) | PFix(k, fn):
                go(fn, d)
                var(CLOCK, k, d)
            case Later(k, body) | TickLam(k, body):
                var(CLOCK, k, d)
                go(body, under(d, TICK))
            case TickApp(fn, u):
                go(fn, d)
                tick(u, d)
            case ForceApp(fn, k, u):
                go(fn, under(d, CLOCK))
                var(CLOCK, k, d)
                tick(u, d)
            case Comp(ty, phi, tube, base):
                go(ty, under(d, IVAL))
                iv(phi, d)
                go(tube, under(d, IVAL))
                go(base, d)
            case HComp(ty, phi, tube, base):
                go(ty, d)
                iv(phi, d)
                go(tube, under(d, IVAL))
                go(base, d)
            case Trans(ty, phi, base):
                go(ty, under(d, IVAL))
                iv(phi, d)
                go(base, d)
            case Hit(_, params):
                for p in params:
                    go(p, d)
            case Con(_, _, params, args, recs, ivals):
                for u in (*params, *args, *recs):
                    go(u, d)
                for r in ivals:
                    iv(r, d)
            case ClockElim(_, _, params, motive, cases, arg):
                for p in params:
                    go(p, d)
                go(motive, under(d, TERM))
                for c in cases:
                    go(c.body, under(d, *[TERM] * (c.n_args + 2 * c.n_recs),
                                     *[IVAL] * c.n_ivars))
                go(arg, d)
            case System(parts):
                for phi, u in parts:
                    iv(phi, d)
                    go(u, d)
            case _:
                raise TypeError(t)

    go(t, _zero_depth())
    return found


def bound_of(t):
    """The loose-variable bound `syntax.loose_bound` should give t."""
    found = free_indices(t)
    return tuple(max(found[s], default=-1) + 1 for s in _SORTS)


# --------------------------------------------------------------------------
# Residual operations on substitutions (Operations 1 and 2)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Explicit:
    """sigma : dom <- cod, one component per cod entry, left to right,
    each scoped in dom (see the module docstring)."""
    dom: Context
    cod: Context
    comps: tuple


_COMP_SORT = {"term": TERM, "clock": CLOCK, "tick": TICK, "forced": TICK,
              "ival": IVAL}


_IDENTITY = {
    TERM: lambda ix: ("term", Var(ix)),
    CLOCK: lambda ix: ("clock", ix),
    TICK: lambda ix: ("tick", TickVar(ix)),
    IVAL: lambda ix: ("ival", IVar(ix)),
}


def explicit(ctx, entries, comps):
    """The substitution for ctx extended by `entries`, sending the added
    entries to `comps` and every entry of ctx to itself."""
    def index_at(pos):
        sort = entry_sort(ctx.entries[pos])
        return sum(1 for e in ctx.entries[pos + 1:] if entry_sort(e) == sort)

    ident = tuple(_IDENTITY[entry_sort(e)](index_at(pos))
                  for pos, e in enumerate(ctx.entries))
    return Explicit(ctx, Context(ctx.entries + tuple(entries)),
                    ident + tuple(comps))


def validate_substitution(sigma):
    comps = sigma.comps
    if len(comps) != len(sigma.cod.entries):
        raise MalformedSubstitution("component count does not match context")
    for comp, entry in zip(comps, sigma.cod.entries):
        if _COMP_SORT[comp[0]] != entry_sort(entry):
            raise MalformedSubstitution(
                f"component {comp!r} does not match entry {entry!r}"
            )
    # Paired components must sit right of their clock half.
    for pos, comp in enumerate(comps):
        if comp[0] == "forced":
            if pos == 0 or comps[pos - 1][0] != "clock" \
                    or comps[pos - 1][1] != comp[1]:
                raise MalformedSubstitution(
                    "forcing tick component must pair with the preceding "
                    "clock component"
                )
    return True


def component(sigma, sort, ix):
    """Component for the ix-th cod entry of `sort` (from the inside),
    with its position in comps."""
    try:
        pos = sigma.cod.pos_of(sort, ix)
    except IndexError:
        raise MalformedSubstitution(
            f"no component for {sort} variable {ix}"
        ) from None
    return pos, sigma.comps[pos]


def _explicit_ival(sigma, r):
    return iv_map_vars(r, lambda ix: component(sigma, IVAL, ix)[1][1])


def subst_tick(sigma, u):
    match u:
        case TickVar(ix):
            comp = component(sigma, TICK, ix)[1]
            return comp[1] if comp[0] == "tick" else comp[2]
        case Diamond():
            return u
        case Tirr(l, r, at):
            left, right = subst_tick(sigma, l), subst_tick(sigma, r)
            if type(left) is Diamond and type(right) is Diamond:
                return Diamond()
            return Tirr(left, right, _explicit_ival(sigma, at))
    raise NotATick(repr(u))


@dataclass(frozen=True)
class Simple:
    context: Context
    subst: Explicit


@dataclass(frozen=True)
class Forced:
    context: Context
    subst: Explicit  # valid under context, kappa'' : clock


def restrict_subst(sigma, cod_mask, dom_mask, extra_dom=()):
    """Restrict sigma to the masked cod, strengthening components into the
    masked dom (optionally extended by fresh entries)."""
    new_dom = apply_mask(sigma.dom, dom_mask)
    for e in extra_dom:
        new_dom = new_dom.push(e)
    ren = mask_renamer(sigma.dom, dom_mask)
    extra = shifted([entry_sort(e) for e in extra_dom])
    d = _zero_depth()

    def clock(k):
        return extra.var(CLOCK, ren.var(CLOCK, k, d), d)

    def conv(comp):
        match comp:
            case ("term", t):
                return ("term", extra.term(ren.term(t)))
            case ("clock", k):
                return ("clock", clock(k))
            case ("tick", u):
                return ("tick", extra.tick(ren.tick(u)))
            case ("forced", k, u):
                return ("forced", clock(k), extra.tick(ren.tick(u)))
            case ("ival", r):
                return ("ival", ren.iv(r, d))
        raise MalformedSubstitution(repr(comp))

    comps = tuple(
        conv(c) for c, keep in zip(sigma.comps, cod_mask) if keep
    )
    return Explicit(new_dom, apply_mask(sigma.cod, cod_mask), comps)


def residual(sigma, u, clock):
    """Operation 1: the residual data of sigma against a simple tick u on
    `clock` (clock index in sigma.cod)."""
    cod_mask = residual_mask(sigma.cod, u, clock)
    pos, comp = component(sigma, TICK, max(_tick_vars(u)))
    new_tick = subst_tick(sigma, u)
    if comp[0] == "tick":
        _, kcomp = component(sigma, CLOCK, clock)
        dom_mask = residual_mask(sigma.dom, new_tick, kcomp[1])
        return Simple(apply_mask(sigma.dom, dom_mask),
                      restrict_subst(sigma, cod_mask, dom_mask))
    # Forced: the fresh clock kappa'' replaces the substituted clock pair.
    dom_mask = residual_mask(sigma.dom, new_tick, comp[1], forcing=True)
    sub = restrict_subst(sigma, cod_mask, dom_mask, extra_dom=(EClock(),))
    # Remap the paired clock component (if it survives the cod mask) to the
    # fresh innermost clock.
    comps = list(sub.comps)
    if cod_mask[pos - 1]:
        comps[sum(1 for k in cod_mask[:pos - 1] if k)] = ("clock", 0)
    return Forced(apply_mask(sigma.dom, dom_mask),
                  Explicit(sub.dom, sub.cod, tuple(comps)))


def bresidual(sigma, clock, u):
    """Operation 2: residual data for a forcing tick (clock, u)."""
    cod_mask = residual_mask(sigma.cod, u, clock, forcing=True)
    new_tick = subst_tick(sigma, u)
    _, kcomp = component(sigma, CLOCK, clock)
    if not _tick_vars(new_tick):
        dom_mask = [True] * len(sigma.dom.entries)
    else:
        dom_mask = residual_mask(sigma.dom, new_tick, kcomp[1],
                                 forcing=True)
    return (apply_mask(sigma.dom, dom_mask),
            restrict_subst(sigma, cod_mask, dom_mask))


# --------------------------------------------------------------------------
# Source mutants
# --------------------------------------------------------------------------

def load_workloads():
    """The benchmark's input generators, `perfbench/workloads.py`, loaded
    once and only read."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parent.parent / "perfbench"
            / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclass looks the module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def token_mutants(text, rng):
    """Endless single-token mutants of text, drawn with rng: each deletes,
    duplicates, swaps with the next one, or replaces by another token of
    the text one whitespace-separated token.  The whitespace stays, so the
    other tokens keep their lines."""
    parts = re.split(r"(\s+)", text)   # tokens at the even positions
    toks = [k for k in range(0, len(parts), 2) if parts[k]]
    while True:
        out = list(parts)
        at = rng.randrange(len(toks))
        k = toks[at]
        op = rng.randrange(4)
        if op == 0:
            out[k] = ""
        elif op == 1:
            out[k] = f"{parts[k]} {parts[k]}"
        elif op == 2:
            j = toks[at + 1] if at + 1 < len(toks) else toks[at - 1]
            out[k], out[j] = parts[j], parts[k]
        else:
            out[k] = parts[rng.choice(toks)]
        yield "".join(out)


# --------------------------------------------------------------------------
# Tokens with their positions
# --------------------------------------------------------------------------

# Whitespace other than a newline, and comments: `--` not starting a pragma.
_REF_SKIP = r"(?:[^\S\n]+|--(?!expect-(?:not-conv|pass|fail|conv))[^\n]*)*"
_REF_SKIP_RE = re.compile(_REF_SKIP)
# One token and the skippable text after it, or a newline; any other
# character that starts no token is `bad`.
_REF_TOKEN_RE = re.compile(
    r"""(?:
      (?P<pragma>--expect-(?:not-conv|pass|fail|conv))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<num>[0-9]+)
    | (?P<sym>->|:=|=>|/\\|\\/|\|>|<>|[()\[\]{}<>,.:=|^@~\\])
    | (?P<nl>\n)
    | (?P<bad>\S)
    )""" + _REF_SKIP,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "pragma" | "ident" | "num" | "sym" | "eof"
    value: str
    line: int
    col: int


def reference_tokenize(text):
    """text's tokens, ending in an `eof` token; `ParseError` at the first
    character that starts no token."""
    toks = []
    line, bol = 1, 0
    for m in _REF_TOKEN_RE.finditer(text, _REF_SKIP_RE.match(text).end()):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            bol = m.start() + 1
        elif kind == "bad":
            pos = m.start()
            raise ParseError(
                f"{line}:{pos - bol + 1}: unexpected character {text[pos]!r}"
            )
        else:
            toks.append(Token(kind, m[kind], line, m.start() - bol + 1))
    toks.append(Token("eof", "", line, len(text) - bol + 1))
    return toks
