import pytest

from cctt.conversion import inst
from cctt.errors import (
    ClockMismatch, DiamondOutsideForcing, MalformedSubstitution,
    NoCommonResidual, NotATick, TickEscape,
)
from cctt.interval import FBOT, FEq, IMeet, IONE, IVar
from cctt.syntax import (
    App, CApp, CLam, Context, DFix, Diamond, EClock, EIVar, ETick, EVar,
    ForceApp, Lam, Later, PApp, PLam, System, TickApp, TickLam, TickVar,
    Tirr, U, Var,
)
from cctt.ticks import (
    CClock, CForcedTick, CIVal, CTerm, CTick, Forced, Simple, bresidual,
    extend, identity_subst, residual, subst_apply, tick_check_forcing,
    tick_check_simple, timeless, trim_check, validate_substitution,
)

KAPPA = EClock()


def ctx_of(*entries):
    return Context(tuple(entries))


class TestTimelessAndTrim:
    def test_timeless_keeps_clocks_intervals_faces(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EIVar())
        assert timeless(ctx).entries == (KAPPA, EIVar())

    def test_trim_check_accepts_suffix_replacement(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EIVar())
        trimmed = ctx_of(KAPPA, EVar(U(0)), EIVar())
        assert trim_check(trimmed, ctx)

    def test_trim_check_rejects_non_suffix(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EVar(U(0)))
        bad = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        assert not trim_check(bad, ctx)


class TestTickJudgements:
    def test_simple_tick_drops_itself_and_later_terms(self):
        # kappa, alpha : kappa, x : A |- alpha gives residual kappa.
        ctx = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        residual_ctx = tick_check_simple(ctx, TickVar(0), 0)
        assert residual_ctx.entries == (KAPPA,)

    def test_simple_tick_keeps_left_part(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EVar(U(0)), EIVar())
        residual_ctx = tick_check_simple(ctx, TickVar(0), 0)
        assert residual_ctx.entries == (KAPPA, EVar(U(0)), EIVar())

    def test_simple_tick_wrong_clock(self):
        ctx = ctx_of(KAPPA, KAPPA, ETick(0))
        # The tick is on the inner clock (index 0 at its binder => index 0
        # seen from the end as well); asking for clock 1 must fail.
        with pytest.raises(ClockMismatch):
            tick_check_simple(ctx, TickVar(0), 1)

    def test_diamond_rejected_in_simple_position(self):
        ctx = ctx_of(KAPPA)
        with pytest.raises(DiamondOutsideForcing):
            tick_check_simple(ctx, Diamond(), 0)

    def test_diamond_allowed_in_forcing_position(self):
        ctx = ctx_of(KAPPA, EVar(U(0)))
        assert tick_check_forcing(ctx, 0, Diamond()).entries == ctx.entries

    def test_forcing_unknown_clock(self):
        with pytest.raises(ClockMismatch):
            tick_check_forcing(ctx_of(KAPPA), 3, Diamond())

    def test_tirr_intersects_residuals(self):
        ctx = ctx_of(KAPPA, ETick(0), EVar(U(0)), ETick(0))
        # tirr of the two ticks: residual is everything left of the outer
        # tick (just kappa).
        got = tick_check_simple(ctx, Tirr(TickVar(1), TickVar(0), IVar(0)), 0)
        assert got.entries == (KAPPA,)

    def test_not_a_tick(self):
        with pytest.raises(NotATick):
            tick_check_simple(ctx_of(KAPPA), TickVar(5), 0)


class TestSubstitution:
    def test_identity_is_identity(self):
        ctx = ctx_of(KAPPA, EVar(U(0)), ETick(0), EIVar())
        sigma = identity_subst(ctx)
        validate_substitution(sigma)
        t = TickApp(CApp(Var(0), 0), TickVar(0))
        assert subst_apply(sigma, t) == t

    def test_beta_substitution(self):
        ctx = ctx_of(EVar(U(0)))
        sigma = extend(ctx, [EVar(U(0))], [CTerm(Var(0))])
        body = App(Var(0), Var(1))
        assert subst_apply(sigma, body) == App(Var(0), Var(0))

    def test_binders_shift_payloads(self):
        ctx = ctx_of(EVar(U(0)))
        sigma = extend(ctx, [EVar(U(0))], [CTerm(Var(0))])
        body = Lam(App(Var(1), Var(2)))
        assert subst_apply(sigma, body) == Lam(App(Var(1), Var(1)))

    def test_simple_tick_component_keeps_simple_application(self):
        ctx = ctx_of(KAPPA, ETick(0))
        sigma = extend(ctx, [ETick(0)], [CTick(TickVar(0))])
        t = TickApp(Var(0), TickVar(0))  # ill-scoped Var irrelevant here
        with pytest.raises(Exception):
            # no term component exists: Var(0) has nothing to map to
            subst_apply(sigma, t)

    def test_forcing_component_promotes_application(self):
        # t [alpha] under [(<> : kappa') / (alpha : kappa)] becomes
        # (kappa. t') [(kappa', <>)].
        ctx = ctx_of(KAPPA, EVar(Later(0, U(0))))
        cod_extension = [EClock(), ETick(0)]
        sigma = extend(ctx, cod_extension,
                       [CClock(0), CForcedTick(0, Diamond())])
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
        sigma = extend(ctx, [EClock(), ETick(0)],
                       [CClock(0), CForcedTick(0, Diamond())])
        validate_substitution(sigma)

    def test_tirr_diamond_collapse(self):
        ctx = ctx_of(KAPPA, EVar(U(0)))
        sigma = extend(
            ctx, [EClock(), ETick(0)],
            [CClock(0), CForcedTick(0, Diamond())],
        )
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
        sigma = extend(self.FORCING_CTX, [EClock(), ETick(0)],
                       [CClock(0), CForcedTick(0, Diamond())])
        assert subst_apply(sigma, term) == expected

    @pytest.mark.parametrize("entries, comps, term, expected", [
        ([EVar(U(0)), EIVar()],
         [CTerm(App(Var(2), Var(0))), CIVal(IMeet(IVar(0), IVar(2)))],
         Lam(App(App(Var(5), Var(1)), PApp(Var(0), IMeet(IVar(3), IVar(0))))),
         Lam(App(App(Var(4), App(Var(3), Var(1))),
                 PApp(Var(0), IMeet(IVar(0), IVar(2)))))),
        ([EClock(), EVar(U(0))], [CClock(3), CTerm(Var(7))],
         CLam(TickLam(3, TickApp(CApp(Var(4), 2), TickVar(0)))),
         CLam(TickLam(2, TickApp(CApp(Var(3), 1), TickVar(0))))),
        ([EIVar()], [CIVal(IONE)],
         System(((FEq(2, 1), Var(1)), (FEq(0, 0), Var(3)))),
         System(((FEq(1, 1), Var(1)), (FBOT, Var(3))))),
    ])
    def test_free_variables_outside_the_block(self, entries, comps, term,
                                              expected):
        # No context: the variables past the block keep their own scope.
        assert inst(None, entries, comps, term) == expected

    @pytest.mark.parametrize("sigma, term, message", [
        (extend(FORCING_CTX, [EVar(U(0))], [CTerm(U(0))]), Var(2),
         "term variable 2"),
        (extend(FORCING_CTX, [EVar(U(0))], [CTerm(U(0))]), Lam(Var(3)),
         "term variable 3"),
        (extend(FORCING_CTX, [EVar(U(0))], [CTerm(U(0))]), CApp(Var(0), 1),
         "clock variable 1"),
        (identity_subst(FORCING_CTX), TickApp(Var(0), TickVar(0)),
         "tick variable 0"),
        (identity_subst(FORCING_CTX), PApp(Var(0), IVar(0)),
         "ival variable 0"),
    ])
    def test_index_outside_the_context_raises(self, sigma, term, message):
        with pytest.raises(MalformedSubstitution, match=message):
            subst_apply(sigma, term)

    def test_index_inside_the_context_is_kept(self):
        sigma = extend(self.FORCING_CTX, [EVar(U(0))], [CTerm(U(0))])
        assert subst_apply(sigma, Lam(App(Var(2), Var(1)))) == \
            Lam(App(Var(1), U(0)))


class TestResidualOperations:
    def test_residual_simple(self):
        # cod = (kappa, alpha:kappa, x:A); identity substitution; residual
        # against alpha drops alpha and x on both sides.
        cod = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        sigma = identity_subst(cod)
        out = residual(sigma, TickVar(0), 0)
        assert isinstance(out, Simple)
        assert out.context.entries == (KAPPA,)
        assert out.subst.cod.entries == (KAPPA,)

    def test_residual_forced(self):
        # sigma maps alpha to the forcing tick diamond.
        cod_base = ctx_of(KAPPA)
        sigma = extend(cod_base, [EClock(), ETick(0)],
                       [CClock(0), CForcedTick(0, Diamond())])
        out = residual(sigma, TickVar(0), 0)
        assert isinstance(out, Forced)
        # Forced residual substitutions target the context extended by a
        # fresh clock.
        assert out.subst.dom.entries[-1] == EClock()

    def test_bresidual_diamond(self):
        ctx = ctx_of(KAPPA, EVar(U(0)))
        sigma = identity_subst(ctx)
        res_ctx, sub = bresidual(sigma, 0, Diamond())
        assert res_ctx.entries == ctx.entries
        assert sub.cod.entries == ctx.entries


class TestStrengthening:
    def test_escaping_variable_raises(self):
        ctx = ctx_of(KAPPA, ETick(0), EVar(U(0)))
        sigma = identity_subst(ctx)
        from cctt.ticks import _tick_mask, restrict_subst
        mask = _tick_mask(ctx, TickVar(0), 0, forcing=False)
        with pytest.raises(TickEscape):
            # A component mentioning the dropped term variable cannot be
            # restricted.
            bad = extend(ctx, [EVar(U(0))], [CTerm(Var(0))])
            restrict_subst(bad, mask + [True], mask)
