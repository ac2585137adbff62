"""Context discipline for ticks and clocks.

Covers the timeless filter TL, the trimming relation, the mask of the
maximal residual context of a simple or forcing tick, strengthening into
it, and the simultaneous substitution calculus whose forcing tick payloads
turn simple tick applications into forcing applications.

A substitution is sort-indexed, as in the calculus: each term, clock, tick
and interval variable goes to a payload of its own sort.  `subst` builds
one from the payloads per sort and a per-sort count of fresh binders, and
checks it against the shape of the scope it maps into (per sort, the
number of variables; `shape` reads it off a context), or leaves it
unchecked.  A forcing tick payload names the substituted clock it pairs
with.

Substitutions are de Bruijn explicit substitutions in shift-plus-explicit
form (Abadi, Cardelli, Curien and Lévy, "Explicit Substitutions", 1991):
per sort, the payloads for the innermost substituted variables, and a
shift for every variable outside them.  Walking under a binder only raises
a per-sort depth, a variable lookup indexes a tuple, and a payload is
weakened past the binders once, when a variable first reaches it.  A
forcing tick payload meeting a simple tick application turns it into a
forcing application under a fresh clock.

Applying a substitution returns a subterm as it is when the substitution
cannot change it, read off the subterm's cached loose-variable bound
(`syntax.loose_bound`): per sort, every free variable is one of the binders
walked under, or the substitution leaves the sort alone (no payloads, no
shift) and the variable lies inside the checked scope.  Any other subterm
is walked, so a variable outside the scope still raises
`MalformedSubstitution`.

The same substitutions are the environments of the reduction machine in
`conversion.whnf`: there a term payload may be a `Closure`, a term with the
substitution pending on it, which is materialised once, when a
substitution applied to a term reaches it.  `bind`, `close`, `lookup` and
`lookup_clock` are the machine's environment operations.
"""

from dataclasses import dataclass
from math import inf

from .errors import (
    ClockMismatch, DiamondOutsideForcing, MalformedSubstitution,
    NoCommonResidual, NotATick, TickEscape,
)
from .interval import IONE, IVar, IZERO, iv_map_vars
from .syntax import (
    CLOCK, FACE, IVAL, TERM, TICK,
    App, CApp, CLam, ClockElim, Comp, Con, Context, DFix, Diamond,
    ElimCase, ForceApp, Forall, Fst, HComp, Hit, Lam, Later, PApp, PFix,
    PLam, Pair, PathT, Pi, Renaming, Sigma, Snd, System, Tick, TickApp,
    TickLam, TickVar, Tirr, Trans, Var, entry_sort, loose_bound,
    rename_term, weaken, weaken_iv, weaken_tick,
)

TIMELESS = (CLOCK, IVAL, FACE)


def timeless(ctx):
    """TL: keep clocks, interval variables, and faces; drop the rest."""
    return Context(tuple(
        e for e in ctx.entries if entry_sort(e) in TIMELESS
    ))


def trim_check(trimmed, ctx):
    """True iff `trimmed` arises from ctx by replacing a suffix by its TL."""
    for split in range(len(ctx.entries) + 1):
        candidate = Context(
            ctx.entries[:split]
            + timeless(Context(ctx.entries[split:])).entries
        )
        if candidate.entries == trimmed.entries:
            return True
    return False


def apply_mask(ctx, mask):
    return Context(tuple(
        e for e, keep in zip(ctx.entries, mask) if keep
    ))


def _tickvar_mask(ctx, ix, clock):
    """Mask of the maximal residual for tick variable ix on `clock`."""
    try:
        pos = ctx.pos_of(TICK, ix)
    except IndexError:
        raise NotATick(f"tick variable {ix} is not in scope")
    if ctx.tick_clock(ix) != clock:
        raise ClockMismatch(
            f"tick variable {ix} is on clock {ctx.tick_clock(ix)}, "
            f"expected {clock}"
        )
    mask = [True] * pos + [False]
    mask += [entry_sort(e) in TIMELESS for e in ctx.entries[pos + 1:]]
    return mask


def _tick_mask(ctx, u, clock, forcing):
    match u:
        case TickVar(ix):
            return _tickvar_mask(ctx, ix, clock)
        case Diamond():
            if not forcing:
                raise DiamondOutsideForcing(
                    "the forcing tick <> cannot appear in simple position"
                )
            return [True] * len(ctx.entries)
        case Tirr(l, r, _):
            ml = _tick_mask(ctx, l, clock, forcing)
            mr = _tick_mask(ctx, r, clock, forcing)
            both = [a and b for a, b in zip(ml, mr)]
            left = apply_mask(ctx, both)
            if not (trim_check(left, apply_mask(ctx, ml))
                    and trim_check(left, apply_mask(ctx, mr))):
                raise NoCommonResidual(
                    "tirr operands admit no common residual context"
                )
            return both
    raise NotATick(f"not a tick: {u!r}")


def residual_mask(ctx, u, clock, forcing=False):
    return _tick_mask(ctx, u, clock, forcing)


# --------------------------------------------------------------------------
# Strengthening
# --------------------------------------------------------------------------

def mask_renaming(ctx, mask):
    """Renaming from ctx into the masked context; raises TickEscape when a
    dropped entry is referenced."""
    remap = {TERM: {}, CLOCK: {}, TICK: {}, IVAL: {}}
    counters = {TERM: 0, CLOCK: 0, TICK: 0, IVAL: 0}
    for pos in range(len(ctx.entries) - 1, -1, -1):
        sort = entry_sort(ctx.entries[pos])
        if sort == FACE:
            continue
        old_ix = ctx.index_at(pos)
        if mask[pos]:
            remap[sort][old_ix] = counters[sort]
            counters[sort] += 1

    def mk(sort):
        table = remap[sort]

        def go(ix):
            if ix not in table:
                raise TickEscape(
                    f"{sort} variable {ix} does not survive the residual "
                    "context"
                )
            return table[ix]
        return go

    return Renaming(term=mk(TERM), clock=mk(CLOCK),
                    tick=mk(TICK), ival=mk(IVAL))


def strengthen_term(ctx, mask, t):
    return rename_term(t, mask_renaming(ctx, mask))


def weakening_renaming(ctx, mask):
    """Renaming from the masked context back into ctx."""
    back = {TERM: {}, CLOCK: {}, TICK: {}, IVAL: {}}
    counters = {TERM: 0, CLOCK: 0, TICK: 0, IVAL: 0}
    for pos in range(len(ctx.entries) - 1, -1, -1):
        sort = entry_sort(ctx.entries[pos])
        if sort == FACE:
            continue
        if mask[pos]:
            back[sort][counters[sort]] = ctx.index_at(pos)
            counters[sort] += 1
    return Renaming(**{
        key: (lambda table: lambda ix: table[ix])(back[sort])
        for key, sort in (("term", TERM), ("clock", CLOCK),
                          ("tick", TICK), ("ival", IVAL))
    })


# --------------------------------------------------------------------------
# Simultaneous substitutions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CForcedTick:
    """A forcing tick payload: the tick variable goes to `tick` and is
    paired with the substituted clock variable `clock` (an index among the
    substitution's clock payloads, from the inside)."""
    clock: int
    tick: Tick


# Variable sorts in the order of a substitution's per-sort tuples, and a
# depth (or shift) that is zero for every sort.
_SORTS = (TERM, CLOCK, TICK, IVAL)
_SORT_IX = {TERM: 0, CLOCK: 1, TICK: 2, IVAL: 3}
_ZERO = (0, 0, 0, 0)


def shape(scope, terms=0, clocks=0, ticks=0, ivals=0):
    """Per sort (term, clock, tick, interval), the number of variables of
    `scope`, a context or a shape already, extended by the given numbers of
    binders; None (an unchecked scope) stays None."""
    if scope is None:
        return None
    if type(scope) is Context:
        count = scope.count
        scope = (count(TERM), count(CLOCK), count(TICK), count(IVAL))
    return (scope[0] + terms, scope[1] + clocks, scope[2] + ticks,
            scope[3] + ivals)


class Substitution:
    """A simultaneous substitution in shift-plus-explicit form.

    Per sort (term, clock, tick, interval, in that order):

    - `block` holds the payloads for the innermost variables of the sort,
      innermost first: terms or closures, clock indices, ticks (a
      `CForcedTick` for a forcing tick) and interval expressions;
    - the variable j places past the block maps to variable j + `shift`
      of the scope;
    - `depth` counts the binders pushed while walking a term: they map to
      themselves, and everything else moves past them.

    `scope` is the scope the substitution maps into, leaving out pushed
    binders: a context, whose counts are read when first needed, its
    shape, or None when variables past the block are not checked.  A
    variable mapped past the scope raises `MalformedSubstitution`.

    `slack` is worked out when the substitution is first applied: per
    sort, how many variables past the pushed binders it leaves in place
    (the scope's, or unboundedly many for an unchecked scope, when the
    sort has no payloads and no shift; none otherwise).
    """

    __slots__ = ("scope", "block", "shift", "depth", "slack", "_memo")

    def __init__(self, scope, block, shift=_ZERO, depth=_ZERO):
        self.scope = scope
        self.block = block
        self.shift = shift
        self.depth = depth
        self.slack = None
        self._memo = {}   # (sort, block index, depth) -> weakened payload

    def under(self, sort, n=1):
        """The substitution lifted under n more binders of `sort`."""
        depth = list(self.depth)
        depth[_SORT_IX[sort]] += n
        return Substitution(self.scope, self.block, self.shift,
                            tuple(depth))

    def sizes(self):
        """The shape of the scope, or None when it is unchecked."""
        if type(self.scope) is Context:
            self.scope = shape(self.scope)
        return self.scope

    def ready(self):
        """The substitution, with its slack worked out."""
        if self.slack is None:
            (bt, bc, bk, bi), (st, sc, sk, si) = self.block, self.shift
            nt, nc, nk, ni = self.sizes() or (inf, inf, inf, inf)
            self.slack = (0 if bt or st else nt, 0 if bc or sc else nc,
                          0 if bk or sk else nk, 0 if bi or si else ni)
        return self


def subst(scope, terms=(), clocks=(), ticks=(), ivals=(), fresh=_ZERO):
    """The substitution sending the innermost variables of each sort to the
    given payloads, outermost first, and every other variable to itself,
    moved past `fresh` binders (a count per sort).  The payloads are scoped
    in `scope` (a context, a shape, or None for unchecked) extended by the
    fresh binders."""
    if fresh != _ZERO:
        scope = shape(scope, *fresh)
    return Substitution(scope, (tuple(reversed(terms)),
                                tuple(reversed(clocks)),
                                tuple(reversed(ticks)),
                                tuple(reversed(ivals))), fresh)


def _weaken_payload(si, p, depth):
    """A block payload moved past `depth` binders pushed in the scope; a
    closure is materialised first."""
    if type(p) is Closure:
        p = p.force()
    if depth == _ZERO:
        return p
    if si == 1:
        return p + depth[1]
    if si == 3:
        return weaken_iv(p, [IVAL] * depth[3])
    sorts = ([TERM] * depth[0] + [CLOCK] * depth[1] + [TICK] * depth[2]
             + [IVAL] * depth[3])
    if si == 0:
        return weaken(p, sorts)
    if type(p) is CForcedTick:
        return CForcedTick(p.clock, weaken_tick(p.tick, sorts))
    return weaken_tick(p, sorts)


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
            return block[k] + depth[1]
        key = (si, k, depth)
        out = sg._memo.get(key)
        if out is None:
            out = sg._memo[key] = _weaken_payload(si, block[k], depth)
        return out
    x = k - len(block) + sg.shift[si]
    sizes = sg.sizes()
    if sizes is not None and x >= sizes[si]:
        raise MalformedSubstitution(
            f"{_SORTS[si]} variable {ix} is outside the scope"
        )
    return x + depth[si]


# Per sort, the payload naming variable ix of the scope.
_VAR = (Var, int, TickVar, IVar)


def identity_subst(ctx):
    return subst(ctx)


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

_NO_BLOCK = ((), (), (), ())


class Closure:
    """A term together with the substitution pending on it, its
    environment.  `force` applies the environment once and keeps the
    result in `term`; it then drops the environment, so that a forced
    closure holds on to no chain of environments."""

    __slots__ = ("term", "env")

    def __init__(self, term, env):
        self.term = term
        self.env = env

    def force(self):
        if self.env is not None:
            self.term = subst_apply(self.env, self.term)
            self.env = None
        return self.term


def force(x):
    """The term an environment or argument entry stands for: a closure is
    materialised, a term is itself."""
    return x.force() if type(x) is Closure else x


def bind(env, ctx, sort, payload):
    """The environment of a term reduced in ctx, extended by an innermost
    variable of `sort` sent to `payload`: a term, a closure or a clock
    index scoped in ctx.  env None is the identity on ctx."""
    si = _SORT_IX[sort]
    if env is None:
        block, shift = _NO_BLOCK, _ZERO
    else:
        block, shift = env.block, env.shift
    block = block[:si] + ((payload,) + block[si],) + block[si + 1:]
    return Substitution(ctx, block, shift)


def close(env, t):
    """The entry for t, scoped in env's cod, as an argument scoped in env's
    dom: t itself when env is None, the entry a variable stands for, and
    otherwise a closure."""
    if env is None:
        return t
    if type(t) is Var:
        block = env.block[0]
        if t.ix < len(block):
            return block[t.ix]
        return Var(_image(env, 0, t.ix, _ZERO))
    return Closure(t, env)


def lookup(env, ix):
    """What term variable ix of env's cod stands for, as a term and the
    environment pending on it (None when there is none)."""
    block = env.block[0]
    if ix < len(block):
        p = block[ix]
        if type(p) is Closure:
            return p.term, p.env
        return p, None
    return Var(_image(env, 0, ix, _ZERO)), None


def lookup_clock(env, k):
    """The clock of env's dom that clock k of env's cod stands for."""
    return _image(env, 1, k, _ZERO)


def clause_subst(scope, clause):
    """The identity on scope (a context, a shape, or None for unchecked),
    except that each interval variable ix of the clause, a dict, goes to
    the endpoint clause[ix]."""
    n = max(clause, default=-1) + 1
    if scope is not None:
        n = min(n, scope.count(IVAL) if type(scope) is Context else scope[3])
    ivals = tuple(
        (IONE if clause[ix] else IZERO) if ix in clause else IVar(ix)
        for ix in range(n)
    )
    return Substitution(scope, ((), (), (), ivals), (0, 0, 0, n))


def subst_apply(sigma, t):
    """Apply sigma to a term."""
    return _go(sigma.ready(), t, sigma.depth)


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
    to t."""
    go = _go
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
    match t:
        case App(fn, arg):
            return App(go(sg, fn, d), go(sg, arg, d))
        case Lam(body):
            return Lam(go(sg, body, (d[0] + 1, d[1], d[2], d[3])))
        case Pi(dom, cod):
            return Pi(go(sg, dom, d),
                      go(sg, cod, (d[0] + 1, d[1], d[2], d[3])))
        case Sigma(fst, snd):
            return Sigma(go(sg, fst, d),
                         go(sg, snd, (d[0] + 1, d[1], d[2], d[3])))
        case Pair(fst, snd):
            return Pair(go(sg, fst, d), go(sg, snd, d))
        case Fst(arg):
            return Fst(go(sg, arg, d))
        case Snd(arg):
            return Snd(go(sg, arg, d))
        case PathT(ty, left, right):
            return PathT(go(sg, ty, d), go(sg, left, d), go(sg, right, d))
        case PLam(body):
            return PLam(go(sg, body, (d[0], d[1], d[2], d[3] + 1)))
        case PApp(fn, arg):
            return PApp(go(sg, fn, d), _iv(sg, arg, d))
        case Forall(body):
            return Forall(go(sg, body, (d[0], d[1] + 1, d[2], d[3])))
        case CLam(body):
            return CLam(go(sg, body, (d[0], d[1] + 1, d[2], d[3])))
        case CApp(fn, clock):
            k = _image(sg, 1, clock, d)
            return CApp(go(sg, fn, d), k)
        case Later(clock, ty):
            k = _image(sg, 1, clock, d)
            return Later(k, go(sg, ty, (d[0], d[1], d[2] + 1, d[3])))
        case TickLam(clock, body):
            k = _image(sg, 1, clock, d)
            return TickLam(k, go(sg, body, (d[0], d[1], d[2] + 1, d[3])))
        case TickApp(fn, tick):
            return _tick_app(sg, fn, tick, d)
        case ForceApp(fn, clock, tick):
            k = _image(sg, 1, clock, d)
            return ForceApp(go(sg, fn, (d[0], d[1] + 1, d[2], d[3])), k,
                            _tick(sg, tick, d))
        case DFix(clock, fn):
            k = _image(sg, 1, clock, d)
            return DFix(k, go(sg, fn, d))
        case PFix(clock, fn):
            k = _image(sg, 1, clock, d)
            return PFix(k, go(sg, fn, d))
        case Comp(ty, face, tube, base):
            di = (d[0], d[1], d[2], d[3] + 1)
            return Comp(go(sg, ty, di), _iv(sg, face, d),
                        go(sg, tube, di), go(sg, base, d))
        case HComp(ty, face, tube, base):
            di = (d[0], d[1], d[2], d[3] + 1)
            return HComp(go(sg, ty, d), _iv(sg, face, d),
                         go(sg, tube, di), go(sg, base, d))
        case Trans(ty, face, base):
            di = (d[0], d[1], d[2], d[3] + 1)
            return Trans(go(sg, ty, di), _iv(sg, face, d),
                         go(sg, base, d))
        case Hit(name, params):
            return Hit(name, tuple(go(sg, p, d) for p in params))
        case Con(name, label, params, args, recs, ivals):
            return Con(
                name, label,
                tuple(go(sg, p, d) for p in params),
                tuple(go(sg, a, d) for a in args),
                tuple(go(sg, a, d) for a in recs),
                tuple(_iv(sg, r, d) for r in ivals),
            )
        case ClockElim(name, n, params, motive, cases, arg):
            return ClockElim(
                name, n,
                tuple(go(sg, p, d) for p in params),
                go(sg, motive, (d[0] + 1, d[1], d[2], d[3])),
                tuple(_subst_case(sg, c, d) for c in cases),
                go(sg, arg, d),
            )
        case System(parts):
            return System(tuple(
                (_iv(sg, phi, d), go(sg, u, d)) for phi, u in parts
            ))
    raise MalformedSubstitution(f"not a term: {t!r}")


def _subst_case(sg, case, d):
    inner = (d[0] + case.n_args + 2 * case.n_recs, d[1], d[2],
             d[3] + case.n_ivars)
    return ElimCase(case.label, case.n_args, case.n_recs, case.n_ivars,
                    _go(sg, case.body, inner))


def _tick_app(sg, fn, tick, d):
    """The A.2 case analysis for (fn [tick]) under sg."""
    new_tick = _tick(sg, tick, d)
    leftmost = _leftmost_tick_var(tick)
    # No tick variables is only possible transiently for ill-scoped input.
    if leftmost is not None:
        k = leftmost - d[2]
        ticks = sg.block[2]
        if 0 <= k < len(ticks) and type(ticks[k]) is CForcedTick:
            # A forcing tick payload: the simple application turns into a
            # forcing application binding a fresh clock for the paired
            # clock variable.
            c = ticks[k].clock
            if not 0 <= c < len(sg.block[1]):
                raise MalformedSubstitution(
                    "a forcing tick payload must pair with a substituted "
                    "clock"
                )
            return ForceApp(_go(_fresh_clock(sg, k, c, d).ready(), fn,
                                _ZERO),
                            sg.block[1][c] + d[1], new_tick)
    return TickApp(_go(sg, fn, d), new_tick)


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
                     + [_weaken_payload(si, p, wk) for p in sg.block[si]])
    block[1][d[1] + c] = 0
    # The clock payloads moved d[1] places out; tick payload k itself is
    # unused, since fn cannot mention its variable.
    block[2] = [CForcedTick(p.clock + d[1], p.tick)
                if type(p) is CForcedTick else p for p in block[2]]
    block[2][d[2] + k] = TickVar(0)
    shift = tuple(s + w for s, w in zip(sg.shift, wk))
    return Substitution(shape(sg.sizes(), *wk), tuple(map(tuple, block)),
                        shift)
