"""Context discipline for ticks and clocks, and the machine's
environments.

A tick application `t [u]` is typed in the maximal residual context of
the tick u: the cut at the outermost tick variable u mentions.  The cut at
position p keeps every entry before p, drops p (a tick) and, after p,
keeps only the clocks and interval variables (the timeless filter TL).
`residual_mask` checks that each tick variable of u is in scope and on the
application's clock, and gives the cut as a mask, one boolean per entry; a
forcing tick `<>` mentions none and keeps every entry, and a `tirr` of two
ticks is cut at the outer of the two.  Every residual context keeps the
context's restriction as it is: it is scoped over the interval variables
alone, and no cut drops one.

A cut drops only the innermost term and tick variables, so `residual`
strengthens into the residual context by sending those to the escape
payload, which raises `TickEscape` when a variable reaches it, and moving
the rest in past them; it weakens back by the shift past them.

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

from .errors import ClockMismatch, DiamondOutsideForcing, NotATick
from .interval import IONE, IVar, IZERO
from .syntax import (
    C1, CLOCK, ESCAPE, I1, IVAL, K1, T1, TERM, TICK, ZERO, _NO_BLOCK, _POS,
    CForcedTick, Closure, Context, Diamond, Substitution, TickVar, Tirr, Var,
    _compose, _image, _iv, _shift_subst, _tick, entry_sort, shape, subst,
)

TIMELESS = (CLOCK, IVAL)


def apply_mask(ctx, mask):
    return Context(tuple(
        e for e, keep in zip(ctx.entries, mask) if keep
    ), ctx.restriction)


def _outermost(ctx, u, clock, forcing):
    """The position of the outermost tick variable in u, each checked to
    be in scope and on `clock`, left to right; past the last entry when u
    mentions none."""
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
            return pos
        case Diamond():
            if not forcing:
                raise DiamondOutsideForcing(
                    "the forcing tick <> cannot appear in simple position"
                )
            return len(ctx.entries)
        case Tirr(l, r, _):
            return min(_outermost(ctx, l, clock, forcing),
                       _outermost(ctx, r, clock, forcing))
    raise NotATick(f"not a tick: {u!r}")


def residual_mask(ctx, u, clock, forcing=False):
    """The mask of the maximal residual context of the tick u on `clock`:
    the cut at its outermost tick variable, or every entry when it
    mentions none (`<>`, in forcing position)."""
    cut = _outermost(ctx, u, clock, forcing)
    return [pos < cut or pos > cut and entry_sort(e) in TIMELESS
            for pos, e in enumerate(ctx.entries)]


def residual(ctx, mask, by=ZERO):
    """The residual context a cut's mask keeps, the strengthening from ctx
    into it and the weakening back.  The cut drops the innermost nt term
    and nk tick variables: the strengthening sends those to `ESCAPE` and
    moves the others in past them, and the weakening back is the shift by
    (nt, 0, nk, 0).  The strengthening's scope is the residual context
    past `by` more clock or interval binders, those of the term it is
    applied to."""
    rctx = apply_mask(ctx, mask)
    nt = ctx.counts[0] - rctx.counts[0]
    nk = ctx.counts[2] - rctx.counts[2]
    into = Substitution(shape(rctx.counts, by),
                        ((ESCAPE,) * nt, (), (ESCAPE,) * nk, ()))
    return rctx, into, Substitution(ctx.counts, _NO_BLOCK, (nt, 0, nk, 0))


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
    """The clock of env's dom that clock k of env's cod stands for (env
    None: the identity)."""
    return k if env is None else _image(env, 1, k, ZERO)


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
