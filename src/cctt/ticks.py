"""Context discipline for ticks and clocks.

Covers the timeless filter TL, the trimming relation, the simple and
forcing tick judgements (always returning the maximal residual context),
and the simultaneous substitution calculus whose tick components decide
whether a tick application stays simple or becomes a forcing application.

Substitutions are de Bruijn explicit substitutions in shift-plus-explicit
form (Abadi, Cardelli, Curien and Lévy, "Explicit Substitutions", 1991):
per sort, the components for the innermost substituted entries, and a
shift for every entry outside them.  Walking under a binder only raises a
per-sort depth, a variable lookup indexes a tuple, and a payload is
weakened past the binders once, when a variable first reaches it.  A
forcing tick component meeting a simple tick application turns it into a
forcing application under a fresh clock.

The same substitutions are the environments of the reduction machine in
`conversion.whnf`: there a term payload may be a `Closure`, a term with the
substitution pending on it, which is materialised once, when a
substitution applied to a term reaches it.  `bind`, `close`, `lookup` and
`lookup_clock` are the machine's environment operations.
"""

from dataclasses import dataclass

from .errors import (
    ClockMismatch, DiamondOutsideForcing, MalformedSubstitution,
    NoCommonResidual, NotATick, TickEscape,
)
from .interval import (
    IONE, IVar, IZERO, face_map_vars, iv_map_vars, iv_normalize,
)
from .syntax import (
    CLOCK, FACE, IVAL, TERM, TICK,
    App, CApp, CLam, ClockElim, Comp, Con, Context, DFix, Diamond, EClock,
    ElimCase, ForceApp, Forall, Fst, HComp, Hit, Lam, Later, PApp, PFix,
    PLam, Pair, PathT, Pi, Renaming, Sigma, Snd, System, Term, Tick,
    TickApp, TickLam, TickVar, Tirr, TopRef, Trans, U, Var, ZERO_DEPTH,
    entry_sort, rename_term, rename_tick, weaken,
    weaken_iexpr, weaken_tick,
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


def tick_check_simple(ctx, u, clock):
    """Maximal residual context for a simple tick u on `clock`."""
    return apply_mask(ctx, _tick_mask(ctx, u, clock, forcing=False))


def tick_check_forcing(ctx, clock, u):
    """Maximal residual for a forcing tick (clock, u)."""
    if not (0 <= clock < ctx.count(CLOCK)):
        raise ClockMismatch(f"clock {clock} is not in scope")
    return apply_mask(ctx, _tick_mask(ctx, u, clock, forcing=True))


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
class CTerm:
    term: Term


@dataclass(frozen=True)
class CClock:
    clock: int


@dataclass(frozen=True)
class CTick:
    tick: Tick


@dataclass(frozen=True)
class CForcedTick:
    """Tick half of a paired clock-and-forcing-tick component."""
    clock: int
    tick: Tick


@dataclass(frozen=True)
class CIVal:
    expr: object


@dataclass(frozen=True)
class CFace:
    pass


_COMP_SORT = {
    CTerm: TERM, CClock: CLOCK, CTick: TICK, CForcedTick: TICK,
    CIVal: IVAL, CFace: FACE,
}


# Variable sorts in the order of a substitution's per-sort tuples, and a
# depth (or shift) that is zero for every sort.
_SORTS = (TERM, CLOCK, TICK, IVAL)
_SORT_IX = {TERM: 0, CLOCK: 1, TICK: 2, IVAL: 3}
_ZERO = (0, 0, 0, 0)


class Substitution:
    """sigma : dom <- cod, in shift-plus-explicit form.

    Per sort (term, clock, tick, interval, in that order):

    - `block` holds the payloads for the innermost cod entries of the sort,
      innermost first: terms or closures, clock indices, tick components
      (`CTick` or `CForcedTick`) and interval expressions, scoped in dom;
    - a cod variable j entries past the block maps to dom variable
      j + `shift`;
    - `depth` counts the binders pushed while walking a term: they map to
      themselves, and everything else moves past them.

    `pairs` maps the block index of each forcing tick component to the block
    index of the clock component it pairs with.  `outer` gives, per sort,
    how many cod variables lie past the block; it is worked out from `cod`
    when that is known, else from `dom` (an environment, built by `bind`,
    has no cod of its own: past its block, cod is dom), and with neither
    the variables past the block are unbounded.  `dom` and `cod` are the
    contexts the substitution was built between, when it was built from
    contexts; they leave out pushed binders.
    """

    __slots__ = ("dom", "cod", "block", "shift", "pairs", "depth",
                 "_outer", "_memo")

    def __init__(self, dom, cod, block, shift=_ZERO, pairs=None,
                 depth=_ZERO, outer=None):
        self.dom = dom
        self.cod = cod
        self.block = block
        self.shift = shift
        self.pairs = pairs or {}
        self.depth = depth
        self._outer = outer
        self._memo = {}   # (sort, block index, depth) -> weakened payload

    def under(self, sort, n=1):
        """The substitution lifted under n more binders of `sort`."""
        depth = list(self.depth)
        depth[_SORT_IX[sort]] += n
        return Substitution(self.dom, self.cod, self.block, self.shift,
                            self.pairs, tuple(depth), self._outer)

    def outer_sizes(self):
        """Per sort, the number of cod variables past the block (None when
        unbounded)."""
        if self._outer is None:
            if self.cod is not None:
                self._outer = tuple(
                    self.cod.count(s) - len(b)
                    for s, b in zip(_SORTS, self.block)
                )
            elif self.dom is not None:
                # An environment (see `bind`): past the block, cod is dom.
                self._outer = tuple(
                    self.dom.count(s) - n for s, n in zip(_SORTS, self.shift)
                )
        return self._outer

    @property
    def comps(self):
        """One component per cod entry, left to right."""
        seen = [0, 0, 0, 0]
        out = []
        for entry in reversed(self.cod.entries):
            sort = entry_sort(entry)
            if sort == FACE:
                out.append(CFace())
                continue
            si = _SORT_IX[sort]
            out.append(_as_comp(si, _image(self, si, seen[si], _ZERO)))
            seen[si] += 1
        return tuple(reversed(out))

    def component(self, sort, ix):
        """Component for the ix-th cod entry of the given sort (from the
        inside), together with its position in comps."""
        try:
            pos = self.cod.pos_of(sort, ix)
        except IndexError:
            raise MalformedSubstitution(
                f"no component for {sort} variable {ix}"
            ) from None
        return pos, self.comps[pos]


def _block(entries, comps):
    """Per-sort payload tuples (innermost first) and forcing pairs for the
    cod entries `entries`, sent to `comps`."""
    if len(entries) != len(comps):
        raise MalformedSubstitution("component count does not match context")
    block = ([], [], [], [])
    pairs = {}
    for pos in range(len(comps) - 1, -1, -1):
        comp = comps[pos]
        cls = type(comp)
        if _COMP_SORT[cls] != entry_sort(entries[pos]):
            raise MalformedSubstitution(
                f"component {comp!r} does not match entry {entries[pos]!r}"
            )
        if cls is CTerm:
            block[0].append(comp.term)
        elif cls is CClock:
            block[1].append(comp.clock)
        elif cls is CIVal:
            block[3].append(comp.expr)
        elif cls is not CFace:
            if cls is CForcedTick and pos > 0 \
                    and type(comps[pos - 1]) is CClock:
                # The clock half is the next clock met going outwards.
                pairs[len(block[2])] = len(block[1])
            block[2].append(comp)
    return tuple(map(tuple, block)), pairs


def _weaken_payload(si, p, depth):
    """A block payload moved past `depth` binders pushed in dom; a closure
    is materialised first."""
    if type(p) is Closure:
        p = p.force()
    if depth == _ZERO:
        return p
    if si == 1:
        return p + depth[1]
    if si == 3:
        return weaken_iexpr(p, [IVAL] * depth[3])
    sorts = ([TERM] * depth[0] + [CLOCK] * depth[1] + [TICK] * depth[2]
             + [IVAL] * depth[3])
    if si == 0:
        return weaken(p, sorts)
    tick = weaken_tick(p.tick, sorts)
    if isinstance(p, CForcedTick):
        return CForcedTick(p.clock + depth[1], tick)
    return CTick(tick)


def _image(sg, si, ix, depth):
    """Where variable ix of sort si goes under sg at `depth`: the weakened
    payload of a block component, or the index of a dom variable (clocks are
    indices either way)."""
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
    j = k - len(block)
    outer = sg.outer_sizes()
    if outer is not None and j >= outer[si]:
        raise MalformedSubstitution(
            f"no component for {_SORTS[si]} variable {ix}"
        )
    return j + sg.shift[si] + depth[si]


# Per sort: the payload naming dom variable ix, and the component wrapping
# a payload.
_VAR = (Var, int, lambda ix: CTick(TickVar(ix)), IVar)
_WRAP = (CTerm, CClock, lambda comp: comp, CIVal)


def _as_comp(si, x):
    return _WRAP[si](_VAR[si](x) if type(x) is int else x)


def validate_substitution(sigma):
    comps = sigma.comps
    # Paired components must sit right of their clock half.
    for pos, comp in enumerate(comps):
        if isinstance(comp, CForcedTick):
            if pos == 0 or not isinstance(comps[pos - 1], CClock) \
                    or comps[pos - 1].clock != comp.clock:
                raise MalformedSubstitution(
                    "forcing tick component must pair with the preceding "
                    "clock component"
                )
    return True


def extend(ctx, added_entries, comps, fresh=()):
    """Substitution for ctx extended by `added_entries`, sending the added
    entries to `comps` and every entry of ctx to itself, in ctx extended by
    the `fresh` entries.

    With ctx None the scope outside the added entries is unknown: its
    variables map to themselves, unchecked.
    """
    block, pairs = _block(added_entries, comps)
    if ctx is None:
        return Substitution(None, None, block, pairs=pairs)
    dom = ctx
    cod = Context(ctx.entries + tuple(added_entries))
    shift = [0, 0, 0, 0]
    for e in fresh:
        dom = dom.push(e)
        sort = entry_sort(e)
        if sort != FACE:
            shift[_SORT_IX[sort]] += 1
    return Substitution(dom, cod, block, tuple(shift), pairs)


def identity_subst(ctx):
    return extend(ctx, (), ())


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
    entry of `sort` sent to `payload`: a term, a closure or a clock index
    scoped in ctx.  env None is the identity on ctx."""
    si = _SORT_IX[sort]
    if env is None:
        block, shift, pairs = _NO_BLOCK, _ZERO, None
    else:
        block, shift, pairs = env.block, env.shift, env.pairs
    block = block[:si] + ((payload,) + block[si],) + block[si + 1:]
    return Substitution(ctx, None, block, shift, pairs)


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


def clause_subst(ctx, clause):
    """The identity on ctx, except that each interval variable ix of the
    clause goes to the endpoint clause[ix]."""
    n = min(max(clause, default=-1) + 1, ctx.count(IVAL))
    ivals = tuple(
        (IONE if clause[ix] else IZERO) if ix in clause else IVar(ix)
        for ix in range(n)
    )
    return Substitution(ctx, ctx, ((), (), (), ivals), (0, 0, 0, n))


def _explicit(dom, cod, comps):
    """The substitution with one given component per cod entry."""
    block, pairs = _block(cod.entries, comps)
    return Substitution(dom, cod, block, pairs=pairs)


def subst_ival(sigma, r):
    return _ival(sigma, r, sigma.depth)


def subst_face(sigma, phi):
    return _face(sigma, phi, sigma.depth)


def subst_tick(sigma, u):
    return _tick(sigma, u, sigma.depth)


def subst_apply(sigma, t):
    """Apply sigma : dom <- cod to a term scoped in cod."""
    return _go(sigma, t, sigma.depth)


def _ival(sg, r, depth):
    def on_var(ix):
        x = _image(sg, 3, ix, depth)
        return IVar(x) if type(x) is int else x
    return iv_normalize(iv_map_vars(r, on_var))


def _face(sg, phi, depth):
    def on_var(ix):
        x = _image(sg, 3, ix, depth)
        return IVar(x) if type(x) is int else x
    return face_map_vars(phi, on_var)


def _tick(sg, u, depth):
    match u:
        case TickVar(ix):
            x = _image(sg, 2, ix, depth)
            return TickVar(x) if type(x) is int else x.tick
        case Diamond():
            return u
        case Tirr(l, r, at):
            left = _tick(sg, l, depth)
            right = _tick(sg, r, depth)
            if isinstance(left, Diamond) and isinstance(right, Diamond):
                return Diamond()  # tirr(<>, <>, r) collapses eagerly
            return Tirr(left, right, _ival(sg, at, depth))
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
    """Apply sg at depth d (binders pushed per sort) to t."""
    go = _go
    match t:
        case Var(ix):
            if ix < d[0]:
                return t
            x = _image(sg, 0, ix, d)
            return Var(x) if type(x) is int else x
        case App(fn, arg):
            return App(go(sg, fn, d), go(sg, arg, d))
        case Lam(body):
            return Lam(go(sg, body, (d[0] + 1, d[1], d[2], d[3])))
        case U(_) | TopRef(_):
            return t
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
            return PApp(go(sg, fn, d), _ival(sg, arg, d))
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
            return Comp(go(sg, ty, di), _face(sg, face, d),
                        go(sg, tube, di), go(sg, base, d))
        case HComp(ty, face, tube, base):
            di = (d[0], d[1], d[2], d[3] + 1)
            return HComp(go(sg, ty, d), _face(sg, face, d),
                         go(sg, tube, di), go(sg, base, d))
        case Trans(ty, face, base):
            di = (d[0], d[1], d[2], d[3] + 1)
            return Trans(go(sg, ty, di), _face(sg, face, d),
                         go(sg, base, d))
        case Hit(name, params):
            return Hit(name, tuple(go(sg, p, d) for p in params))
        case Con(name, label, params, args, recs, ivals):
            return Con(
                name, label,
                tuple(go(sg, p, d) for p in params),
                tuple(go(sg, a, d) for a in args),
                tuple(go(sg, a, d) for a in recs),
                tuple(_ival(sg, r, d) for r in ivals),
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
                (_face(sg, phi, d), go(sg, u, d)) for phi, u in parts
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
        if 0 <= k < len(ticks) and isinstance(ticks[k], CForcedTick):
            # Paired clock-and-forcing-tick component: the simple
            # application turns into a forcing application binding a fresh
            # clock for the substituted clock entry.
            clock = ticks[k].clock + d[1]
            return ForceApp(_go(_fresh_clock(sg, k, d), fn, _ZERO), clock,
                            new_tick)
    return TickApp(_go(sg, fn, d), new_tick)


def _fresh_clock(sg, k, d):
    """sg at depth d, with dom extended by a fresh innermost clock that
    takes the place of the clock paired with forcing tick component k."""
    c = sg.pairs.get(k)
    if c is None:
        raise MalformedSubstitution(
            "forcing tick component must pair with the preceding clock "
            "component"
        )
    # Everything in dom moves past the pushed binders and the fresh clock;
    # the pushed binders become explicit components.
    wk = (d[0], d[1] + 1, d[2], d[3])
    block = []
    for si in range(4):
        fresh = wk[si] - d[si]
        block.append([_VAR[si](ix + fresh) for ix in range(d[si])]
                     + [_weaken_payload(si, p, wk) for p in sg.block[si]])
    block[1][d[1] + c] = 0
    block[2][d[2] + k] = CTick(TickVar(0))  # unused: fn cannot mention it
    pairs = {t + d[2]: c2 + d[1] for t, c2 in sg.pairs.items()}
    shift = tuple(s + w for s, w in zip(sg.shift, wk))
    return Substitution(None, None, tuple(map(tuple, block)), shift, pairs,
                        outer=sg.outer_sizes())


# --------------------------------------------------------------------------
# Residual operations on substitutions (Operations 1 and 2)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Simple:
    context: Context
    subst: Substitution


@dataclass(frozen=True)
class Forced:
    context: Context
    subst: Substitution  # valid under context, kappa'' : clock


def restrict_subst(sigma, cod_mask, dom_mask, extra_dom=()):
    """Restrict sigma to the masked cod, strengthening payloads into the
    masked dom (optionally extended by fresh entries)."""
    new_dom = apply_mask(sigma.dom, dom_mask)
    for e in extra_dom:
        new_dom = new_dom.push(e)
    ren = mask_renaming(sigma.dom, dom_mask)
    extra_sorts = [entry_sort(e) for e in extra_dom]

    def conv(comp):
        match comp:
            case CTerm(t):
                return CTerm(weaken(rename_term(t, ren), extra_sorts))
            case CClock(k):
                kk = ren.apply(CLOCK, k, ZERO_DEPTH)
                return CClock(kk + sum(1 for s in extra_sorts if s == CLOCK))
            case CTick(u):
                return CTick(weaken_tick(rename_tick(u, ren, ZERO_DEPTH),
                                         extra_sorts))
            case CForcedTick(k, u):
                kk = ren.apply(CLOCK, k, ZERO_DEPTH)
                return CForcedTick(
                    kk + sum(1 for s in extra_sorts if s == CLOCK),
                    weaken_tick(rename_tick(u, ren, ZERO_DEPTH), extra_sorts),
                )
            case CIVal(r):
                return CIVal(ren.iexpr(r, ZERO_DEPTH))
            case CFace():
                return comp
        raise MalformedSubstitution(repr(comp))

    comps = tuple(
        conv(c) for c, keep in zip(sigma.comps, cod_mask) if keep
    )
    return _explicit(new_dom, apply_mask(sigma.cod, cod_mask), comps)


def residual(sigma, u, clock):
    """Operation 1: the residual data of sigma against a simple tick u on
    `clock` (clock index in sigma.cod)."""
    cod_mask = _tick_mask(sigma.cod, u, clock, forcing=False)
    leftmost = _leftmost_tick_var(u)
    pos, comp = sigma.component(TICK, leftmost)
    new_tick = subst_tick(sigma, u)
    if isinstance(comp, CTick):
        _, kcomp = sigma.component(CLOCK, clock)
        dom_mask = _tick_mask(sigma.dom, new_tick, kcomp.clock, forcing=False)
        return Simple(apply_mask(sigma.dom, dom_mask),
                      restrict_subst(sigma, cod_mask, dom_mask))
    # Forced: the fresh clock kappa'' replaces the substituted clock pair.
    kprime = comp.clock
    dom_mask = _tick_mask(sigma.dom, new_tick, kprime, forcing=True)
    sub = restrict_subst(sigma, cod_mask, dom_mask, extra_dom=(EClock(),))
    # Remap the paired clock component (if it survives the cod mask) to the
    # fresh innermost clock.
    comps = list(sub.comps)
    kept_before = sum(1 for k in cod_mask[:pos - 1] if k)
    if cod_mask[pos - 1]:
        comps[kept_before] = CClock(0)
    return Forced(apply_mask(sigma.dom, dom_mask),
                  _explicit(sub.dom, sub.cod, tuple(comps)))


def bresidual(sigma, clock, u):
    """Operation 2: residual data for a forcing tick (clock, u)."""
    cod_mask = _tick_mask(sigma.cod, u, clock, forcing=True)
    new_tick = subst_tick(sigma, u)
    _, kcomp = sigma.component(CLOCK, clock)
    if not _tick_vars(new_tick):
        dom_mask = [True] * len(sigma.dom.entries)
    else:
        dom_mask = _tick_mask(sigma.dom, new_tick, kcomp.clock, forcing=True)
    return (apply_mask(sigma.dom, dom_mask),
            restrict_subst(sigma, cod_mask, dom_mask))
