"""Context discipline for ticks and clocks, and the machine's
environments.

Covers the timeless filter TL, the trimming relation, the mask of the
maximal residual context of a simple or forcing tick, and strengthening
into it.  TL keeps the clocks, the interval variables and the context's
restriction, so every residual context keeps the restriction as it is:
it is scoped over the interval variables alone, and no mask drops one.
Strengthening into a residual mask is a renaming (`mask_subst`): each kept
term or tick variable goes to its new index, and each dropped one to the
escape payload, which raises `TickEscape` when a variable reaches it;
`weakening_subst` goes back.

The substitutions of `cctt.syntax` are the environments of the reduction
machine in `conversion.whnf`, their term payloads closures.
`syntax.close`, `lookup`, `lookup_clock`, `image_tick` and `image_iv` read
a term, a variable, a clock, a tick or an interval expression under an
environment without applying it to anything else; `bind`, `extend` and
`bind_at` extend one, and `lift` takes one under a binder of the term it
is pending on, leaving each payload's move past the binder pending
(`syntax.then`).  Those that build an environment take the shape of its
scope, a context's `counts`.
"""

from .errors import (
    ClockMismatch, DiamondOutsideForcing, NoCommonResidual, NotATick,
)
from .interval import IONE, IVar, IZERO
from .syntax import (
    C1, CLOCK, ESCAPE, I1, IVAL, K1, T1, TERM, TICK, ZERO, _NO_BLOCK, _POS,
    CForcedTick, Closure, Context, Diamond, ETick, EVar, Substitution,
    TickVar, Tirr, Var, _compose, _image, _iv, _shift_subst, _tick,
    entry_sort, rename_term, shape, subst,
)

TIMELESS = (CLOCK, IVAL)


def timeless(ctx):
    """TL: keep clocks, interval variables and the restriction; drop the
    rest."""
    return Context(tuple(
        e for e in ctx.entries if entry_sort(e) in TIMELESS
    ), ctx.restriction)


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


def apply_mask(ctx, mask):
    return Context(tuple(
        e for e, keep in zip(ctx.entries, mask) if keep
    ), ctx.restriction)


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
# Strengthening into a residual context, and weakening back
# --------------------------------------------------------------------------

def _kept(ctx, mask):
    """The indices in ctx of the term variables and of the tick variables
    the mask keeps, innermost first.  A mask keeps every clock and interval
    variable, since TL does."""
    kept = {EVar: [], ETick: []}
    seen = {EVar: 0, ETick: 0}
    for e, keep in zip(reversed(ctx.entries), reversed(mask)):
        cls = type(e)
        if cls in kept:
            if keep:
                kept[cls].append(seen[cls])
            seen[cls] += 1
    return kept[EVar], kept[ETick]


def mask_subst(ctx, mask):
    """The strengthening from ctx into the masked context: each kept term
    or tick variable goes to its index there and each dropped one to
    `ESCAPE`, so that a term mentioning one raises TickEscape."""
    nt, nc, nk, ni = ctx.counts
    terms, ticks = [ESCAPE] * nt, [ESCAPE] * nk
    kept_terms, kept_ticks = _kept(ctx, mask)
    for new, old in enumerate(kept_terms):
        terms[old] = Var(new)
    for new, old in enumerate(kept_ticks):
        ticks[old] = TickVar(new)
    kt, kk = len(kept_terms), len(kept_ticks)
    return Substitution((kt, nc, kk, ni), (tuple(terms), (), tuple(ticks), ()),
                        (kt, 0, kk, 0))


def strengthen_term(ctx, mask, t):
    return rename_term(t, mask_subst(ctx, mask))


def weakening_subst(ctx, mask):
    """The weakening from the masked context back into ctx: each term and
    tick variable goes to its index in ctx."""
    terms, ticks = _kept(ctx, mask)
    scope = ctx.counts
    return Substitution(
        scope, (tuple(map(Var, terms)), (), tuple(map(TickVar, ticks)), ()),
        (scope[0], 0, scope[2], 0))


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

def identity_subst(ctx):
    return subst(ctx.counts)


def force(x):
    """The term an environment or argument entry stands for: a closure is
    materialised, a term is itself."""
    return x.force() if type(x) is Closure else x


def bind(env, scope, sort, payload):
    """The environment of a term reduced in a context of shape `scope`,
    extended by an innermost variable of `sort` sent to `payload`: a term,
    a closure, a clock index, a tick or an interval expression scoped
    there.  env None is the identity on the scope."""
    si = _POS[sort]
    if env is None:
        block, shift = _NO_BLOCK, ZERO
    else:
        block, shift = env.block, env.shift
    block = block[:si] + ((payload,) + block[si],) + block[si + 1:]
    if si == 1 and has_forcing_tick(env):
        # A forcing tick names its clock by position among the clock
        # payloads, and the new clock goes in front of them.
        block = block[:2] + (tuple(
            CForcedTick(p.clock + 1, p.tick) if type(p) is CForcedTick
            else p for p in block[2]),) + block[3:]
    return Substitution(scope, block, shift)


def extend(env, scope, terms=(), ivals=()):
    """env extended by innermost term and interval variables sent to the
    payloads given, outermost first, as `subst` takes them."""
    if env is None:
        block, shift = _NO_BLOCK, ZERO
    else:
        block, shift = env.block, env.shift
    return Substitution(scope, (tuple(reversed(terms)) + block[0], block[1],
                                block[2], tuple(reversed(ivals)) + block[3]),
                        shift)


# Per sort, the count of one binder and its variable.
_UNIT = {TERM: T1, CLOCK: C1, TICK: K1, IVAL: I1}
_VAR0 = {TERM: Var(0), CLOCK: 0, TICK: TickVar(0), IVAL: IVar(0)}


def lift(env, sort):
    """env (None: the identity) lifted under one binder of `sort`: the new
    variable goes to itself and every other to its image moved past it,
    each term payload pending (`then`)."""
    if env is None:
        return None
    by = _UNIT[sort]
    return bind(Substitution(*_compose(env, _shift_subst(by, ZERO))),
                shape(env.scope, by), sort, _VAR0[sort])


def bind_at(env, scope, ix, payload):
    """env (None: the identity on `scope`) with term variable ix sent to
    payload, the variables below it as env sends them, and none past it:
    a term whose other term variables are all below ix is read under it
    with ix bound, and nothing is weakened."""
    if env is None:
        block, shift = _NO_BLOCK, ZERO
    else:
        block, shift = env.block, env.shift
    terms = block[0][:ix]
    terms += tuple(Var(j - len(block[0]) + shift[0])
                   for j in range(len(terms), ix))
    return Substitution(scope, (terms + (payload,),) + block[1:], shift)


def has_forcing_tick(env):
    """Whether env sends a tick variable to a forcing tick, which turns a
    simple tick application into a forcing one as it is substituted."""
    return env is not None and any(type(p) is CForcedTick
                                   for p in env.block[2])


def lookup(env, ix):
    """What term variable ix of env's cod stands for, as a term and the
    environment pending on it (None when there is none)."""
    block = env.block[0]
    if ix < len(block):
        p = block[ix]
        if type(p) is Closure:
            return p.term, p.env
        return p, None
    return Var(_image(env, 0, ix, ZERO)), None


def lookup_clock(env, k):
    """The clock of env's dom that clock k of env's cod stands for."""
    return _image(env, 1, k, ZERO)


def image_tick(env, u):
    """The tick u, scoped in env's cod, under env (None: the identity)."""
    return u if env is None else _tick(env, u, ZERO)


def image_iv(env, x):
    """The interval expression or face x, scoped in env's cod, under env
    (None: the identity).  Read as the walker reads it: a variable outside
    env's scope raises `MalformedSubstitution`."""
    return x if env is None else _iv(env, x, ZERO)


def clause_subst(scope, clause):
    """The identity on scope (a shape, or None for unchecked), except that
    each interval variable ix of the clause, a dict, goes to the endpoint
    clause[ix]."""
    n = max(clause, default=-1) + 1
    if scope is not None:
        n = min(n, scope[3])
    ivals = tuple(
        (IONE if clause[ix] else IZERO) if ix in clause else IVar(ix)
        for ix in range(n)
    )
    return Substitution(scope, ((), (), (), ivals), (0, 0, 0, n))


def subst_apply(sigma, t):
    """Apply sigma to a term."""
    return sigma.apply(t)
