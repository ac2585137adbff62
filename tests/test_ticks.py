import random

import pytest

from cctt.checker import CheckState, infer
from cctt.conversion import _mentions_ival0
from cctt.errors import (
    CcttError, ClockMismatch, DiamondOutsideForcing, MalformedSubstitution,
    NotATick, TickEscape,
)
from cctt.interval import (
    FAnd, FBOT, FEq, FOr, IJoin, IMeet, INeg, IONE, IVar, IZERO,
)
from cctt.syntax import (
    CLOCK, IVAL, TERM, TICK,
    App, CApp, CForcedTick, CLam, ClockElim, Comp, Con, Context, DFix,
    Diamond, EClock, EIVar, ETick, EVar, ElimCase, ForceApp, Forall, Fst,
    HComp, Hit, Lam, Later, PApp, PFix, PLam, Pair, PathT, Pi, Sigma, Snd,
    System, Term, TickApp, TickLam, TickVar, Tirr, TopRef, Trans, U, Var,
    C1, _WALKED, entry_sort, loose_bound, rename_term, subst, weaken,
    weaken_iv, weaken_tick,
)
from cctt import ticks
from cctt.ticks import (
    apply_mask, identity_subst, image_iv, image_tick, lookup_clock,
    residual_mask, subst_apply,
)
from oracles import (
    Forced, Simple, bound_of, bresidual, explicit, free_indices,
    mask_renamer, naive_subst, reference_tick_mask, residual,
    restrict_subst, shifted, timeless, validate_substitution,
)

KAPPA = EClock()


def ctx_of(*entries):
    return Context(tuple(entries))


def simple_residual(ctx, u, clock):
    """The maximal residual context for a simple tick u on `clock`."""
    return apply_mask(ctx, residual_mask(ctx, u, clock))


def forcing_residual(ctx, clock, u):
    """The maximal residual context for a forcing tick (clock, u)."""
    return apply_mask(ctx, residual_mask(ctx, u, clock, forcing=True))


def into_residual(ctx, mask, t):
    """t strengthened from ctx into the residual context of the mask."""
    return rename_term(t, ticks.residual(ctx, mask)[1])


# The substitution of the forcing beta rule: the clock and the tick
# innermost in the scope go to clock 0 and the forcing tick (0, <>).
FORCE_DIAMOND = dict(clocks=(0,), ticks=(CForcedTick(0, Diamond()),))


class TestTimelessAndTrim:
    def test_timeless_keeps_clocks_intervals_faces(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EIVar())
        assert timeless(ctx).entries == (KAPPA, EIVar())
        # The restriction is no entry, and TL keeps it.
        restricted = timeless(ctx.restrict(FEq(0, 1)))
        assert restricted == Context((KAPPA, EIVar()), FEq(0, 1))

    def test_masks_keep_the_restriction(self):
        ctx = ctx_of(KAPPA, EIVar(), EVar(U(0)), ETick(0), EIVar(),
                     EVar(U(0))).restrict(FEq(1, 0))
        assert simple_residual(ctx, TickVar(0), 0) == Context(
            (KAPPA, EIVar(), EVar(U(0)), EIVar()), FEq(1, 0))
        assert forcing_residual(ctx, 0, Diamond()) == ctx


class TestTickJudgements:
    def test_simple_tick_drops_itself_and_later_terms(self):
        # kappa, alpha : kappa, x : A |- alpha gives residual kappa.
        ctx = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        residual_ctx = simple_residual(ctx, TickVar(0), 0)
        assert residual_ctx.entries == (KAPPA,)

    def test_simple_tick_keeps_left_part(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EVar(U(0)), EIVar())
        residual_ctx = simple_residual(ctx, TickVar(0), 0)
        assert residual_ctx.entries == (KAPPA, EVar(U(0)), EIVar())

    def test_simple_tick_wrong_clock(self):
        ctx = ctx_of(KAPPA, KAPPA, ETick(0))
        # The tick is on the inner clock (index 0 at its binder => index 0
        # seen from the end as well); asking for clock 1 must fail.
        with pytest.raises(ClockMismatch):
            simple_residual(ctx, TickVar(0), 1)

    def test_diamond_rejected_in_simple_position(self):
        ctx = ctx_of(KAPPA)
        with pytest.raises(DiamondOutsideForcing):
            simple_residual(ctx, Diamond(), 0)

    def test_diamond_allowed_in_forcing_position(self):
        ctx = ctx_of(KAPPA, EVar(U(0)))
        assert forcing_residual(ctx, 0, Diamond()).entries == ctx.entries

    def test_forcing_unknown_clock(self):
        # The checker rejects the clock before it asks for the residual.
        with pytest.raises(ClockMismatch):
            infer(CheckState(), ctx_of(KAPPA),
                  ForceApp(Var(0), 3, Diamond()))

    def test_tirr_intersects_residuals(self):
        ctx = ctx_of(KAPPA, ETick(0), EVar(U(0)), ETick(0))
        # tirr of the two ticks: residual is everything left of the outer
        # tick (just kappa).
        got = simple_residual(ctx, Tirr(TickVar(1), TickVar(0), IVar(0)), 0)
        assert got.entries == (KAPPA,)

    def test_not_a_tick(self):
        with pytest.raises(NotATick):
            simple_residual(ctx_of(KAPPA), TickVar(5), 0)


class TestSubstitution:
    def test_identity_is_identity(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EIVar())
        validate_substitution(explicit(ctx, (), ()))
        t = TickApp(CApp(Var(0), 0), TickVar(0))
        assert subst_apply(identity_subst(ctx), t) == t

    def test_beta_substitution(self):
        ctx = ctx_of(EVar(U(0)))
        sigma = subst(ctx.counts, terms=(Var(0),))
        body = App(Var(0), Var(1))
        assert subst_apply(sigma, body) == App(Var(0), Var(0))

    def test_binders_shift_payloads(self):
        ctx = ctx_of(EVar(U(0)))
        sigma = subst(ctx.counts, terms=(Var(0),))
        body = Lam(App(Var(1), Var(2)))
        assert subst_apply(sigma, body) == Lam(App(Var(1), Var(1)))

    def test_simple_tick_component_keeps_simple_application(self):
        ctx = ctx_of(KAPPA, ETick(0))
        sigma = subst(ctx.counts, ticks=(TickVar(0),))
        t = TickApp(Var(0), TickVar(0))  # ill-scoped Var irrelevant here
        with pytest.raises(MalformedSubstitution):
            # no term component exists: Var(0) has nothing to map to
            subst_apply(sigma, t)

    def test_forcing_component_promotes_application(self):
        # t [alpha] under [(<> : kappa') / (alpha : kappa)] becomes
        # (kappa. t') [(kappa', <>)].
        ctx = ctx_of(KAPPA, EVar(Later(0, U(0))))
        sigma = subst(ctx.counts, **FORCE_DIAMOND)
        t = TickApp(Var(0), TickVar(0))
        got = subst_apply(sigma, t)
        assert isinstance(got, ForceApp)
        assert got.clock == 0
        assert got.tick == Diamond()
        # The function part now sits under a fresh clock binder: its term
        # variable is untouched, and its Later clock reference points at
        # the bound clock.
        assert got.fn == Var(0)

    def test_forced_tick_validation(self):
        ctx = ctx_of(KAPPA)
        validate_substitution(explicit(
            ctx, (EClock(), ETick(0)),
            (("clock", 0), ("forced", 0, Diamond())),
        ))
        # The kernel's forcing tick names its clock: one with no clock
        # payload to pair with cannot be promoted.
        sigma = subst(ctx.counts, ticks=(CForcedTick(0, Diamond()),))
        with pytest.raises(MalformedSubstitution, match="pair"):
            subst_apply(sigma, TickApp(DFix(0, U(0)), TickVar(0)))

    def test_tirr_diamond_collapse(self):
        ctx = ctx_of(KAPPA, EVar(U(0)))
        sigma = subst(ctx.counts, **FORCE_DIAMOND)
        t = TickApp(Var(0), Tirr(TickVar(0), TickVar(0), IVar(0)))
        got = subst_apply(sigma, t)
        assert isinstance(got, ForceApp)
        assert got.tick == Diamond()


class TestShiftedSubstitution:
    """Binders pushed while walking a term, variables outside the
    substituted block, and scope checks."""

    FORCING_CTX = ctx_of(KAPPA, EVar(Later(0, U(0))))

    @pytest.mark.parametrize("term, expected", [
        # Under a term binder.
        (Lam(TickApp(App(Var(1), Var(0)), TickVar(0))),
         Lam(ForceApp(App(Var(1), Var(0)), 0, Diamond()))),
        # Under a clock binder: the bound clock moves past the fresh one.
        (CLam(TickApp(CApp(Var(0), 0), TickVar(0))),
         CLam(ForceApp(CApp(Var(0), 1), 1, Diamond()))),
        # The paired clock goes to the fresh clock, an outer one past it.
        (CLam(TickApp(DFix(1, CApp(Var(0), 2)), TickVar(0))),
         CLam(ForceApp(DFix(0, CApp(Var(0), 2)), 1, Diamond()))),
        # Under a tick binder.
        (TickLam(0, TickApp(TickApp(Var(0), TickVar(0)), TickVar(1))),
         TickLam(0, ForceApp(TickApp(Var(0), TickVar(0)), 0, Diamond()))),
        # Under an interval binder.
        (PLam(TickApp(PApp(Var(0), IVar(0)), TickVar(0))),
         PLam(ForceApp(PApp(Var(0), IVar(0)), 0, Diamond()))),
    ])
    def test_forcing_component_under_binders(self, term, expected):
        sigma = subst(self.FORCING_CTX.counts, **FORCE_DIAMOND)
        assert subst_apply(sigma, term) == expected

    @pytest.mark.parametrize("payloads, term, expected", [
        (dict(terms=(App(Var(2), Var(0)),),
              ivals=(IMeet(IVar(0), IVar(2)),)),
         Lam(App(App(Var(5), Var(1)), PApp(Var(0), IMeet(IVar(3), IVar(0))))),
         Lam(App(App(Var(4), App(Var(3), Var(1))),
                 PApp(Var(0), IMeet(IVar(0), IVar(2)))))),
        (dict(clocks=(3,), terms=(Var(7),)),
         CLam(TickLam(3, TickApp(CApp(Var(4), 2), TickVar(0)))),
         CLam(TickLam(2, TickApp(CApp(Var(3), 1), TickVar(0))))),
        (dict(ivals=(IONE,)),
         System(((FEq(2, 1), Var(1)), (FEq(0, 0), Var(3)))),
         System(((FEq(1, 1), Var(1)), (FBOT, Var(3))))),
    ], ids=("terms-and-ivals", "clocks-and-terms", "ival-endpoint"))
    def test_free_variables_outside_the_block(self, payloads, term,
                                              expected):
        # No scope: the variables past the block keep their own scope.
        assert subst_apply(subst(None, **payloads), term) == expected

    @pytest.mark.parametrize("sigma, term, message", [
        (subst(FORCING_CTX.counts, terms=(U(0),)), Var(2), "term variable 2"),
        (subst(FORCING_CTX.counts, terms=(U(0),)), Lam(Var(3)), "term variable 3"),
        (subst(FORCING_CTX.counts, terms=(U(0),)), CApp(Var(0), 1),
         "clock variable 1"),
        (identity_subst(FORCING_CTX), TickApp(Var(0), TickVar(0)),
         "tick variable 0"),
        (identity_subst(FORCING_CTX), PApp(Var(0), IVar(0)),
         "ival variable 0"),
        # Under binders, in a sort the substitution leaves alone: the
        # subterm holding the variable is walked, not skipped.
        (identity_subst(FORCING_CTX), Lam(Pi(U(0), Var(9))),
         "term variable 9"),
        (subst(FORCING_CTX.counts, ticks=(TickVar(0),)), Lam(Pi(U(0), Var(3))),
         "term variable 3"),
        (identity_subst(FORCING_CTX), CLam(Lam(CApp(Var(0), 2))),
         "clock variable 2"),
        (subst(FORCING_CTX.counts, terms=(U(0),)),
         TickLam(0, Lam(TickApp(Var(2), TickVar(1)))), "tick variable 1"),
        (subst(FORCING_CTX.counts, clocks=(0,)),
         PLam(Lam(PApp(Var(0), IVar(1)))), "ival variable 1"),
    ])
    def test_index_outside_the_context_raises(self, sigma, term, message):
        with pytest.raises(MalformedSubstitution, match=message):
            subst_apply(sigma, term)

    def test_index_inside_the_context_is_kept(self):
        sigma = subst(self.FORCING_CTX.counts, terms=(U(0),))
        assert subst_apply(sigma, Lam(App(Var(2), Var(1)))) == \
            Lam(App(Var(1), U(0)))


class TestResidualOperations:
    def test_residual_simple(self):
        # cod = (kappa, alpha:kappa, x:A); identity substitution; residual
        # against alpha drops alpha and x on both sides.
        cod = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        sigma = explicit(cod, (), ())
        out = residual(sigma, TickVar(0), 0)
        assert isinstance(out, Simple)
        assert out.context.entries == (KAPPA,)
        assert out.subst.cod.entries == (KAPPA,)

    def test_residual_forced(self):
        # sigma maps alpha to the forcing tick diamond.
        cod_base = ctx_of(KAPPA)
        sigma = explicit(cod_base, (EClock(), ETick(0)),
                         (("clock", 0), ("forced", 0, Diamond())))
        out = residual(sigma, TickVar(0), 0)
        assert isinstance(out, Forced)
        # Forced residual substitutions target the context extended by a
        # fresh clock.
        assert out.subst.dom.entries[-1] == EClock()

    def test_bresidual_diamond(self):
        ctx = ctx_of(KAPPA, EVar(U(0)))
        sigma = explicit(ctx, (), ())
        res_ctx, sub = bresidual(sigma, 0, Diamond())
        assert res_ctx.entries == ctx.entries
        assert sub.cod.entries == ctx.entries


class TestStrengthening:
    # The residual of alpha in (kappa, alpha : kappa, x : A) drops alpha
    # and x.
    CTX = ctx_of(KAPPA, ETick(0), EVar(U(0)))

    @pytest.mark.parametrize("term", [
        Lam(App(Var(0), Var(1))),
        CLam(TickLam(1, TickApp(U(0), TickVar(1)))),
        PLam(Pi(U(0), App(Var(1), Var(0)))),
    ], ids=("term-under-lam", "tick-under-ticklam", "term-under-pi"))
    def test_variable_escaping_under_binders_raises(self, term):
        mask = residual_mask(self.CTX, TickVar(0), 0)
        with pytest.raises(TickEscape):
            into_residual(self.CTX, mask, term)

    def test_variable_kept_under_binders_is_renamed(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EVar(U(0)))
        mask = residual_mask(ctx, TickVar(0), 0)
        assert into_residual(ctx, mask, Lam(App(Var(0), Var(2)))) == \
            Lam(App(Var(0), Var(1)))

    def test_escaping_variable_raises(self):
        ctx = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        mask = residual_mask(ctx, TickVar(0), 0)
        with pytest.raises(TickEscape):
            # A component mentioning the dropped term variable cannot be
            # restricted.
            bad = explicit(ctx, (EVar(U(0)),), (("term", Var(0)),))
            restrict_subst(bad, mask + [True], mask)


# --------------------------------------------------------------------------
# The builder against the one-variable-at-a-time reference
# --------------------------------------------------------------------------

def _ival(rng, n, depth=2):
    """A random interval expression over n interval variables."""
    if depth == 0 or rng.random() < 0.4:
        if n and rng.random() < 0.8:
            return IVar(rng.randrange(n))
        return rng.choice((IZERO, IONE))
    match rng.randrange(3):
        case 0:
            return INeg(_ival(rng, n, depth - 1))
        case 1:
            return IMeet(_ival(rng, n, depth - 1), _ival(rng, n, depth - 1))
    return IJoin(_ival(rng, n, depth - 1), _ival(rng, n, depth - 1))


def _face(rng, n):
    if not n:
        return FBOT
    phi = FEq(rng.randrange(n), rng.randrange(2))
    if rng.random() < 0.5:
        psi = FEq(rng.randrange(n), rng.randrange(2))
        phi = FAnd(phi, psi) if rng.random() < 0.5 else FOr(phi, psi)
    return phi


class _Terms:
    """Random terms over a scope of n = [terms, clocks, ticks, ivals]
    variables, of every term former.  The tick variables in `forced` go to
    forcing ticks, and tick applications on them are frequent; the
    function applied to a tick whose leftmost variable is one of them does
    not mention that variable, since it is typed in a residual without it.
    Data types, constructors and eliminators are named after `tree`
    (`test_conversion.node_signature`), whose `node` takes an argument, a
    recursive argument and an interval variable, so that reduction finds
    their signature; their parameters are not the signature's."""

    def __init__(self, rng):
        self.rng = rng

    def tick(self, n, avoid, first=None):
        """A tick variable, or a tirr of two, whose leftmost variable is
        `first` when given."""
        rng = self.rng
        choices = [ix for ix in range(n[2]) if ix not in avoid]
        if first is None:
            if not choices:
                return None
            first = rng.choice(choices)
        u = TickVar(first)
        if rng.random() < 0.3:
            other = rng.choice([ix for ix in choices if ix <= first]
                               or [first])
            u = Tirr(u, TickVar(other), _ival(rng, n[3]))
        return u

    def term(self, n, forced=frozenset(), avoid=frozenset(), depth=5):
        rng = self.rng

        def go(m=n, forced=forced, avoid=avoid):
            return self.term(m, forced, avoid, depth - 1)

        def bump(sort):
            m = list(n)
            m[sort] += 1
            return m

        def up(ixs):
            return frozenset(ix + 1 for ix in ixs)

        leaves = [U(0)]
        if n[0]:
            leaves += [Var(rng.randrange(n[0]))] * 3
        live = sorted(forced - avoid)
        if depth == 0:
            return rng.choice(leaves)
        if live and rng.random() < 0.3:
            f = rng.choice(live)
            return TickApp(go(avoid=avoid | {f}), self.tick(n, avoid, f))
        kind = rng.randrange(25)
        if kind == 0:
            return rng.choice(leaves)
        if kind == 1:
            return Lam(go(bump(0)))
        if kind == 2:
            return Pi(go(), go(bump(0)))
        if kind == 3:
            return App(go(), go())
        if kind == 4:
            return CLam(go(bump(1)))
        if kind == 5 and n[1]:
            return CApp(go(), rng.randrange(n[1]))
        if kind == 6 and n[1]:
            cls = rng.choice((Later, TickLam))
            return cls(rng.randrange(n[1]),
                       go(bump(2), up(forced), up(avoid)))
        if kind == 7:
            u = self.tick(n, avoid)
            if u is not None:
                f = u.left.ix if isinstance(u, Tirr) else u.ix
                return TickApp(go(avoid=avoid | ({f} & forced)), u)
        if kind == 8 and n[1]:
            u = self.tick(n, avoid) if rng.random() < 0.5 else None
            return ForceApp(go(bump(1)), rng.randrange(n[1]),
                            u or Diamond())
        if kind == 9:
            return PLam(go(bump(3)))
        if kind == 10:
            return PApp(go(), _ival(rng, n[3]))
        if kind == 11 and n[1]:
            return DFix(rng.randrange(n[1]), go())
        if kind == 12:
            return Forall(go(bump(1)))
        if kind == 13:
            return HComp(go(), _face(rng, n[3]), go(bump(3)), go())
        if kind == 14:
            inner = bump(3)
            return Comp(go(inner), _face(rng, n[3]),
                        System(((_face(rng, inner[3]), go(inner)),)), go())
        if kind == 15:
            return Sigma(go(), go(bump(0)))
        if kind == 16:
            return Pair(go(), go())
        if kind == 17:
            return rng.choice((Fst, Snd))(go())
        if kind == 18:
            return PathT(go(), go(), go())
        if kind == 19 and n[1]:
            return PFix(rng.randrange(n[1]), go())
        if kind == 20:
            return Trans(go(bump(3)), _face(rng, n[3]), go())
        if kind == 21:
            return Hit("tree", tuple(go() for _ in range(rng.randrange(2))))
        if kind == 22:
            return Con("tree", "node",
                       tuple(go() for _ in range(rng.randrange(2))),
                       (go(),), (go(),), (_ival(rng, n[3]),))
        if kind == 23:
            # A node case binds its argument, its recursive argument and
            # that one's induction hypothesis, and an interval variable.
            node = [n[0] + 3, n[1], n[2], n[3] + 1]
            return ClockElim(
                "tree", 0, tuple(go() for _ in range(rng.randrange(2))),
                go(bump(0)),
                (ElimCase("leaf", 0, 0, 0, go()),
                 ElimCase("node", 1, 1, 1, go(node))),
                go())
        if kind == 24:
            return System(tuple((_face(rng, n[3]), go())
                                for _ in range(rng.randrange(1, 3))))
        return rng.choice(leaves)


SEEDS = range(200)


def generated_case(seed):
    """A term over a scope outside a block of substituted variables, and
    payloads for the block scoped past some fresh binders.  Some tick
    payloads are forcing ticks, each paired with a clock of its own; a
    simple tick payload has a tick variable, as a simple tick does."""
    rng = random.Random(seed)
    gen = _Terms(rng)
    outer = [rng.randrange(3) for _ in range(4)]
    outer[1] += 1   # a clock and a tick to build payloads from
    outer[2] += 1
    n_block = [rng.randrange(3), rng.randrange(4), rng.randrange(4),
               rng.randrange(3)]
    fresh = tuple(rng.randrange(2) for _ in range(4))
    scope = [o + f for o, f in zip(outer, fresh)]
    pairs = list(range(n_block[1]))
    rng.shuffle(pairs)
    ticks = []
    for _ in range(n_block[2]):
        if pairs and rng.random() < 0.6:
            u = gen.tick(scope, frozenset()) if rng.random() < 0.4 else None
            ticks.append(CForcedTick(pairs.pop(), u or Diamond()))
        else:
            ticks.append(gen.tick(scope, frozenset()))
    payloads = dict(
        terms=tuple(gen.term(scope, depth=2) for _ in range(n_block[0])),
        clocks=tuple(rng.randrange(scope[1]) for _ in range(n_block[1])),
        ticks=tuple(ticks),
        ivals=tuple(_ival(rng, scope[3]) for _ in range(n_block[3])),
    )
    forced = frozenset(ix for ix, p in enumerate(reversed(ticks))
                       if isinstance(p, CForcedTick))
    t = gen.term([o + b for o, b in zip(outer, n_block)], forced)
    return t, subst(tuple(outer), fresh=fresh, **payloads), \
        dict(fresh=fresh, **payloads)


@pytest.mark.parametrize("seed", SEEDS)
def test_builder_agrees_with_naive_substitution(seed):
    t, sigma, payloads = generated_case(seed)
    assert subst_apply(sigma, t) == naive_subst(t, **payloads)
    # Again on a new copy, every subterm's bound worked out before the
    # walk reads it.
    t, sigma, payloads = generated_case(seed)
    for u in (t, *payloads["terms"]):
        loose_bound(u)
    assert subst_apply(sigma, t) == naive_subst(t, **payloads)


@pytest.mark.parametrize("seed", SEEDS)
def test_loose_bound_agrees_with_free_indices(seed):
    t, sigma, payloads = generated_case(seed)
    for u in (t, *payloads["terms"], subst_apply(sigma, t),
              naive_subst(t, **payloads)):
        assert loose_bound(u) == bound_of(u), u


def _classes(x):
    """The classes of x and of every record and tuple inside it."""
    inner = x if type(x) is tuple else \
        [getattr(x, name) for name in getattr(type(x), "_fields", ())]
    return {type(x)}.union(*map(_classes, inner))


def test_generated_cases_cover_every_sort_and_the_forcing_rule():
    payload_sorts = set()
    formers = set()
    promoted = 0
    for seed in SEEDS:
        t, sigma, payloads = generated_case(seed)
        payload_sorts |= {k for k in ("terms", "clocks", "ticks", "ivals")
                          if payloads[k]}
        formers |= _classes(t)
        got = repr(subst_apply(sigma, t))
        promoted += got.count("ForceApp") > repr(t).count("ForceApp")
    assert len(payload_sorts) == 4
    # Every former the walks read off the binder table is substituted.
    assert set(_WALKED) <= formers, set(_WALKED) - formers
    assert promoted >= 10


# --------------------------------------------------------------------------
# Weakening and strengthening against the plain renamer
# --------------------------------------------------------------------------

def _context_around(rng, t):
    """A context t is scoped in: t's variables, and a few more, of each
    sort in a random order behind an outermost clock, each tick on a clock
    bound before it, and now and then restricted part way."""
    terms, clocks, ticks, ivals = (b + rng.randrange(2) for b in bound_of(t))
    sorts = ([TERM] * terms + [CLOCK] * max(clocks - 1, 0) + [TICK] * ticks
             + [IVAL] * ivals)
    rng.shuffle(sorts)
    restrict_at = rng.randrange(2 * len(sorts) + 1)
    ctx, bound_clocks = Context((KAPPA,)), 1
    for pos, sort in enumerate(sorts):
        if pos == restrict_at:
            ctx = ctx.restrict(FEq(0, 1) if ctx.counts[3] else FBOT)
        if sort == TICK:
            ctx = ctx.push(ETick(rng.randrange(bound_clocks)))
        else:
            ctx = ctx.push({TERM: EVar(U(0)), CLOCK: KAPPA,
                            IVAL: EIVar()}[sort])
            bound_clocks += sort == CLOCK
    return ctx


def _residual_masks(rng, ctx):
    """Masks of the residual contexts of a few ticks of ctx: tick
    variables, a tirr of two on one clock, and the forcing tick."""
    masks = [[True] * len(ctx)]
    n = ctx.counts[2]
    for _ in range(3 if n else 0):
        ix = rng.randrange(n)
        clock = ctx.tick_clock(ix)
        masks.append(residual_mask(ctx, TickVar(ix), clock))
        others = [j for j in range(n) if ctx.tick_clock(j) == clock]
        u = Tirr(TickVar(ix), TickVar(rng.choice(others)), IVar(0))
        masks.append(residual_mask(ctx, u, clock))
    return masks


@pytest.mark.parametrize("seed", SEEDS)
def test_weakening_and_strengthening_agree_with_the_plain_renamer(seed):
    rng = random.Random(seed)
    t, _, payloads = generated_case(seed)
    for u in (t, *payloads["terms"]):
        # Weakening past entries of random sorts at a random cut.
        b = bound_of(u)
        inserted = rng.choices((TERM, CLOCK, TICK, IVAL),
                               k=rng.randrange(1, 4))
        cut = {s: rng.randrange(b[k] + 2)
               for k, s in enumerate((TERM, CLOCK, TICK, IVAL))}
        # The kernel takes both as counts per sort.
        by = tuple(inserted.count(s) for s in (TERM, CLOCK, TICK, IVAL))
        ren, below = shifted(inserted, cut), tuple(cut.values())
        assert weaken(u, by, below) == ren.term(u)
        # The tick and interval payloads, by the same counts and cut.
        for p in payloads["ticks"]:
            p = p.tick if type(p) is CForcedTick else p
            assert weaken_tick(p, by, below) == ren.tick(p)
        for r in payloads["ivals"]:
            assert weaken_iv(r, by, below) == ren.iv(r, {IVAL: 0})
        # Strengthening into residual contexts: TickEscape exactly when
        # the renamer meets a dropped variable.
        ctx = _context_around(rng, u)
        for mask in _residual_masks(rng, ctx):
            assert apply_mask(ctx, mask).restriction == ctx.restriction
            try:
                want = mask_renamer(ctx, mask).term(u)
            except TickEscape:
                with pytest.raises(TickEscape):
                    into_residual(ctx, mask, u)
            else:
                assert into_residual(ctx, mask, u) == want
        # Whether interval variable 0 is free, by strengthening past it.
        assert _mentions_ival0(u) == (0 in free_indices(u)[IVAL])


def test_generated_strengthenings_keep_some_terms_and_drop_others():
    kept = escaped = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        t, _, _ = generated_case(seed)
        ctx = _context_around(rng, t)
        for mask in _residual_masks(rng, ctx)[1:]:
            try:
                into_residual(ctx, mask, t)
                kept += 1
            except TickEscape:
                escaped += 1
    assert kept >= 100 and escaped >= 100, (kept, escaped)


# --------------------------------------------------------------------------
# The residual context of a tick is the cut at its outermost tick
# --------------------------------------------------------------------------

def _tick_context(rng):
    """Entries of every sort behind an outermost clock, up to three clocks
    in all, each tick on a clock bound before it, and now and then
    restricted part way."""
    ctx = Context((KAPPA,))
    for _ in range(rng.randrange(9)):
        if rng.random() < 0.1:
            ctx = ctx.restrict(FEq(0, 1) if ctx.counts[3] else FBOT)
        entry = rng.choice((EVar(U(0)), KAPPA, ETick(0), ETick(0), EIVar()))
        if type(entry) is EClock and ctx.counts[1] == 3:
            entry = EIVar()
        if type(entry) is ETick:
            entry = ETick(rng.randrange(ctx.counts[1]))
        ctx = ctx.push(entry)
    return ctx


def _any_tick(rng, ctx, depth=3):
    """A tick variable (now and then one out of scope), `<>`, a tirr of
    two nested to `depth`, or now and then a term that is no tick."""
    n = ctx.counts[2]
    if depth and rng.random() < 0.4:
        return Tirr(_any_tick(rng, ctx, depth - 1),
                    _any_tick(rng, ctx, depth - 1), IVar(0))
    if rng.random() < 0.15:
        return Diamond()
    if rng.random() < 0.03:
        return U(0)
    return TickVar(rng.randrange(n + 1) if rng.random() < 0.1 or not n
                   else rng.randrange(n))


def _cut(ctx, u):
    """The mask of the cut at the outermost tick variable of u, worked out
    from the entries: everything before it, and after it the clocks and
    interval variables; every entry when u mentions none."""
    ticks_inside_out = [pos for pos, e in enumerate(ctx.entries)
                        if type(e) is ETick][::-1]
    cut = min((ticks_inside_out[ix] for ix in _tick_var_ixs(u)),
              default=len(ctx))
    return [pos < cut or pos > cut and type(e) in (EClock, EIVar)
            for pos, e in enumerate(ctx.entries)]


def _tick_var_ixs(u):
    if type(u) is Tirr:
        return _tick_var_ixs(u.left) | _tick_var_ixs(u.right)
    return {u.ix} if type(u) is TickVar else set()


def _outcome(f, *args):
    """What f gives, or the class and message of the error it raises."""
    try:
        return f(*args)
    except CcttError as err:
        return type(err), err.message


def _escaping(f, *args):
    """What f gives, or TickEscape when it raises that."""
    try:
        return f(*args)
    except TickEscape:
        return TickEscape


RESIDUAL_SEEDS = range(300)


@pytest.mark.parametrize("seed", RESIDUAL_SEEDS)
def test_residual_mask_is_the_cut_at_the_outermost_tick(seed):
    rng = random.Random(seed)
    ctx = _tick_context(rng)
    gen = _Terms(rng)
    for _ in range(4):
        u = _any_tick(rng, ctx)
        clocks = [ctx.tick_clock(ix) for ix in _tick_var_ixs(u)
                  if ix < ctx.counts[2]]
        clock = rng.choice(clocks) if clocks and rng.random() < 0.8 \
            else rng.randrange(ctx.counts[1])
        forcing = rng.random() < 0.5
        # The same mask, or the same error with the same message, as the
        # intersection of masks checked by trimming, which never finds a
        # tirr without a common residual.
        got = _outcome(residual_mask, ctx, u, clock, forcing)
        assert got == _outcome(reference_tick_mask, ctx, u, clock, forcing)
        if type(got) is not list:
            continue
        assert got == _cut(ctx, u)
        rctx, into, back = ticks.residual(ctx, got)
        assert rctx == apply_mask(ctx, got)
        # The strengthening is the renaming into the residual context, of
        # a term scoped in ctx and of one under a clock binder more, as
        # the head of a forcing application is.
        t = gen.term(list(ctx.counts), depth=3)
        assert _escaping(rename_term, t, into) \
            == _escaping(mask_renamer(ctx, got).term, t)
        inner = ctx.push(KAPPA)
        t = gen.term(list(inner.counts), depth=3)
        assert _escaping(rename_term, t, ticks.residual(ctx, got, C1)[1]) \
            == _escaping(mask_renamer(inner, got + [True]).term, t)
        # The weakening back sends each kept variable to its index in ctx.
        for sort in (TERM, CLOCK, TICK, IVAL):
            full = [ix for ix, pos in enumerate(_positions(ctx, sort))
                    if got[pos]]
            var, image = _READ[sort]
            for new, old in enumerate(full):
                assert image(back, var(new)) == var(old)


def _positions(ctx, sort):
    """The positions of the entries of `sort`, innermost first."""
    return [pos for pos in range(len(ctx) - 1, -1, -1)
            if entry_sort(ctx.entries[pos]) == sort]


# Per sort, the variable of an index and its image under a substitution.
_READ = {TERM: (Var, subst_apply), CLOCK: (int, lookup_clock),
         TICK: (TickVar, image_tick), IVAL: (IVar, image_iv)}


def test_generated_ticks_reach_every_outcome():
    outcomes, tirrs = set(), 0
    for seed in RESIDUAL_SEEDS:
        rng = random.Random(seed)
        ctx = _tick_context(rng)
        for _ in range(40):
            u = _any_tick(rng, ctx)
            clock = rng.randrange(ctx.counts[1])
            got = _outcome(residual_mask, ctx, u, clock, rng.random() < 0.5)
            if type(got) is list:
                outcomes.add("cut" if False in got else "all")
                tirrs += type(u) is Tirr
            else:
                outcomes.add(got[0])
    assert outcomes == {"cut", "all", NotATick, ClockMismatch,
                        DiamondOutsideForcing}
    assert tirrs >= 100


# --------------------------------------------------------------------------
# Every term former through every walker
# --------------------------------------------------------------------------

# A small instance of each term class, with free variables of every sort
# its former can hold, some of them under its binders.
INSTANCES = {
    Var: Var(1),
    U: U(0),
    TopRef: TopRef("f"),
    Pi: Pi(Var(0), Var(1)),
    Lam: Lam(Var(1)),
    App: App(Var(0), Var(1)),
    Sigma: Sigma(Var(0), Var(1)),
    Pair: Pair(Var(0), Var(1)),
    Fst: Fst(Var(0)),
    Snd: Snd(Var(1)),
    PathT: PathT(Var(0), Var(1), Var(0)),
    PLam: PLam(PApp(Var(0), IMeet(IVar(0), IVar(1)))),
    PApp: PApp(Var(0), IVar(0)),
    Forall: Forall(CApp(Var(0), 1)),
    CLam: CLam(CApp(Var(0), 1)),
    CApp: CApp(Var(0), 0),
    Later: Later(0, TickApp(Var(0), TickVar(1))),
    TickLam: TickLam(0, TickApp(Var(0), TickVar(1))),
    TickApp: TickApp(Var(0), Tirr(TickVar(0), TickVar(0), IVar(0))),
    ForceApp: ForceApp(CApp(Var(0), 1), 0, TickVar(0)),
    DFix: DFix(0, Var(0)),
    PFix: PFix(0, Var(1)),
    Comp: Comp(PApp(Var(0), IVar(1)), FEq(0, 1),
               System(((FEq(1, 0), PApp(Var(1), IVar(0))),)), Var(0)),
    HComp: HComp(Var(0), FEq(0, 0), PApp(Var(1), IVar(1)), Var(0)),
    Trans: Trans(PApp(Var(0), IVar(1)), FEq(0, 1), Var(1)),
    Hit: Hit("h", (Var(0),)),
    Con: Con("h", "c", (Var(0),), (Var(1),), (Var(0),), (IVar(0),)),
    ClockElim: ClockElim(
        "h", 0, (Var(0),), App(Var(0), Var(1)),
        (ElimCase("c", 1, 1, 1, PApp(App(Var(3), Var(4)), IVar(1))),),
        Var(1)),
    System: System(((FEq(0, 1), Var(0)), (FEq(0, 0), CApp(Var(1), 0)))),
}

# Payloads for the innermost variable of every sort, past one fresh
# binder of every sort.
EVERY_SORT = dict(terms=(App(Var(3), Var(0)),), clocks=(2,),
                  ticks=(TickVar(1),), ivals=(IVar(2),), fresh=(1, 1, 1, 1))


def test_every_term_class_has_an_instance():
    assert set(INSTANCES) == set(Term.__subclasses__())


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda c: c.__name__)
def test_every_walker_takes_every_term_former(cls):
    t = INSTANCES[cls]
    # The bound, against the brute-force collector.
    found = free_indices(t)
    assert loose_bound(t) == bound_of(t)
    # Renaming: weakening past one entry of every sort moves every free
    # variable out by one.
    moved = weaken(t, (1, 1, 1, 1))
    assert free_indices(moved) == {s: {ix + 1 for ix in found[s]}
                                   for s in found}
    assert (moved is t) == (bound_of(t) == (0, 0, 0, 0))
    # Substitution, against the one-variable-at-a-time reference.
    got = subst_apply(subst(None, **EVERY_SORT), t)
    assert got == naive_subst(t, **EVERY_SORT)
    assert loose_bound(got) == bound_of(got)
