import random
from pathlib import Path

import pytest

from cctt import conversion
from cctt.checker import CheckState, infer
from cctt.conversion import (
    comp_eval, CompProblem, conv, conv_tm,
    conv_under_face, hfill, tick_whnf, whnf,
)
from cctt.errors import FuelExhausted, MalformedSubstitution
from cctt.interval import (
    FAnd, FBOT, FEq, FTOP, INeg, IVar, IZERO, IONE,
)
from cctt.parser import (
    DataDefinition, parse_module,
)
from cctt.syntax import (
    TERM, App, CApp, CLam, ClockElim, Comp, Con, Constructor, Context,
    DFix, Diamond, EClock, EFace, EIVar, ETick, EVar, ElimCase, ForceApp,
    Forall, Fst, HComp, Hit, HitSignature, Lam, Later, PApp, PFix, PLam,
    Pair, PathT, Pi, Sigma, Snd, System, Telescope, TickApp, TickLam,
    TickVar, Tirr, TopRef, Trans, U, Var, weaken,
)

FUEL_FILE = (Path(__file__).resolve().parent.parent / "corpus" / "neg"
             / "fuel-exhausted.cctt")


class StubState:
    """Just enough checker state for reduction: a fuel counter, empty
    definition/signature tables, and the checker's inference, which a path
    endpoint asks for."""

    def __init__(self, max_steps=200_000):
        self.max_steps = max_steps
        self.steps = 0
        self.signatures = {}
        self.definitions = {}

    def step(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise FuelExhausted(f"exceeded {self.max_steps} steps")

    def signature(self, name):
        return self.signatures[name]

    def definition_body(self, name):
        return self.definitions.get(name)

    def promote(self, body, ctx):
        return body

    def infer(self, ctx, t):
        return infer(self, ctx, t)


PRELUDE = Context((EClock(),))


def st():
    return StubState()


class TestWhnfBeta:
    def test_lambda_beta(self):
        t = App(Lam(Var(0)), U(0))
        assert whnf(st(), PRELUDE, t) == U(0)

    def test_pair_projections(self):
        assert whnf(st(), PRELUDE, Fst(Pair(U(0), U(1)))) == U(0)
        assert whnf(st(), PRELUDE, Snd(Pair(U(0), U(1)))) == U(1)

    def test_path_beta(self):
        ctx = PRELUDE.push(EVar(U(0)))
        t = PApp(PLam(Var(0)), IONE)
        assert whnf(st(), ctx, t) == Var(0)

    def test_clock_beta(self):
        ctx = PRELUDE.push(EClock())
        t = CApp(CLam(CApp(Var(0), 0)), 1)  # ill-typed Var, scoping only
        ctx2 = ctx.push(EVar(U(0)))
        got = whnf(st(), ctx2, App(Lam(CApp(CLam(Later(0, U(0))), 0)), U(0)))
        assert got == Later(0, U(0))

    def test_tick_beta(self):
        ctx = PRELUDE.push(EVar(U(0))).push(ETick(0))
        t = TickApp(TickLam(0, Var(0)), TickVar(0))
        assert whnf(st(), ctx, t) == Var(0)


class TestTicksAndFixpoints:
    def test_tirr_endpoints(self):
        a, b = TickVar(0), TickVar(1)
        assert tick_whnf(Tirr(a, b, IZERO)) == a
        assert tick_whnf(Tirr(a, b, IONE)) == b
        assert tick_whnf(Tirr(Diamond(), Diamond(), IVar(0))) == Diamond()

    def test_dfix_does_not_unfold_on_tick_variable(self):
        # x : later A -> A in context; dfix f [alpha] must stay stuck.
        ctx = PRELUDE.push(EVar(Pi(Later(0, U(0)), U(0)))).push(ETick(0))
        t = TickApp(DFix(0, Var(0)), TickVar(0))
        got = whnf(st(), ctx, t)
        assert isinstance(got, TickApp)
        assert isinstance(got.fn, DFix)

    def test_dfix_unfolds_on_diamond(self):
        ctx = PRELUDE.push(EVar(Pi(Later(0, U(0)), U(0))))
        t = ForceApp(DFix(0, Var(0)), 0, Diamond())
        got = whnf(st(), ctx, t)
        assert got == App(Var(0), DFix(0, Var(0)))

    def test_pfix_unfolds_on_diamond_under_path_application(self):
        ctx = PRELUDE.push(EVar(Pi(Later(0, U(0)), U(0))))
        t = PApp(ForceApp(PFix(0, Var(0)), 0, Diamond()), IVar0 := IZERO)
        got = whnf(st(), ctx, t)
        assert got == App(Var(0), DFix(0, Var(0)))

    def test_diamond_free_forcing_demotes(self):
        # (kappa. f) [(kappa0, alpha)] with a plain tick becomes f [alpha].
        ctx = PRELUDE.push(ETick(0)).push(EVar(Later(0, U(0))))
        t = ForceApp(Var(0), 0, TickVar(0))
        got = whnf(st(), ctx, t)
        assert got == TickApp(Var(0), TickVar(0))

    def test_forcing_beta(self):
        ctx = PRELUDE.push(EVar(U(0)))
        fn = TickLam(0, Var(0))  # under fresh clock binder
        t = ForceApp(fn, 0, Diamond())
        assert whnf(st(), ctx, t) == Var(0)

    def test_forcing_a_neutral_is_stuck(self):
        # Forcing dfix f [alpha] does not unfold: the head under the clock
        # binder is a tick application, not a fixed point.
        f = Lam(ForceApp(TickApp(Var(0), TickVar(0)), 0, Diamond()))
        loop = ForceApp(DFix(0, f), 0, Diamond())
        ctx = PRELUDE.push(ETick(0))
        got = whnf(st(), ctx, loop)
        assert isinstance(got, ForceApp)

    def test_divergent_definition_exhausts_fuel(self):
        # A definition that keeps producing diamond redexes must trip the
        # step budget rather than spin forever.
        from cctt.syntax import TopRef
        state = StubState(max_steps=5_000)
        state.definitions["loop"] = ForceApp(
            DFix(0, Lam(TopRef("loop"))), 0, Diamond()
        )
        with pytest.raises(FuelExhausted):
            whnf(state, PRELUDE, TopRef("loop"))


class TestSystemsAndComp:
    def test_system_picks_true_part(self):
        t = System(((FEq(0, 0), U(0)), (FTOP, U(1))))
        assert whnf(st(), PRELUDE.push(EIVar()), t) == U(1)

    def test_comp_on_true_face_is_tube_at_one(self):
        ctx = PRELUDE.push(EVar(U(0)))
        t = Comp(U(0), FTOP, Var(0), Var(0))
        assert whnf(st(), ctx, t) == Var(0)

    def test_hcomp_on_true_face_is_tube_at_one(self):
        ctx = PRELUDE.push(EVar(U(0)))
        t = HComp(U(0), FTOP, Var(0), Var(0))
        assert whnf(st(), ctx, t) == Var(0)

    def test_trans_constant_line_is_identity(self):
        ctx = PRELUDE.push(EVar(U(0))).push(EVar(Var(0)))
        t = Trans(Var(1), FEq(0, 0), Var(0))
        assert whnf(st(), ctx, t) == Var(0)

    def test_comp_along_constant_line_is_homogeneous(self):
        ctx = PRELUDE.push(EVar(U(0))).push(EVar(Pi(Var(0), U(0))))
        base = Lam(U(0))
        line = Pi(Var(1), U(1))
        got = comp_eval(st(), ctx, CompProblem(line, FEq(0, 0), base, base))
        assert isinstance(got, HComp)

    def test_comp_at_varying_pi_is_a_lambda(self):
        # p : Path U0 A B gives a genuinely varying domain line.
        ctx = (PRELUDE.push(EVar(U(0))).push(EVar(U(0)))
               .push(EVar(PathT(U(0), Var(1), Var(0)))))
        line = Pi(PApp(Var(0), IVar(0)), U(1))
        base = Lam(U(0))
        got = comp_eval(st(), ctx, CompProblem(line, FBOT, base, base))
        assert isinstance(got, Lam)
        assert isinstance(got.body, Comp)

    def test_comp_at_sigma_is_a_pair(self):
        ctx = PRELUDE.push(EVar(U(0)))
        line = Sigma(PApp(PLam(Var(0)), IVar(0)), Var(1))
        got = comp_eval(st(), ctx, CompProblem(
            line, FBOT, Pair(Var(0), Var(0)), Pair(Var(0), Var(0))
        ))
        assert isinstance(got, Pair)

    def test_hfill_endpoints(self):
        ctx = PRELUDE.push(EVar(U(0))).push(EVar(Var(0)))
        ty, base = Var(1), Var(0)
        tube = Var(0)
        state = st()
        at0 = hfill(ctx, ty, FBOT, tube, base, IZERO)
        assert whnf(state, ctx, at0) == base
        at1 = hfill(ctx, ty, FBOT, tube, base, IONE)
        got = whnf(state, ctx, at1)
        assert isinstance(got, HComp)


class TestConv:
    def test_eta_function(self):
        # f == \x. f x at a Pi type.
        ctx = PRELUDE.push(EVar(Pi(U(0), U(0))))
        lhs = Var(0)
        rhs = Lam(App(Var(1), Var(0)))
        assert conv(st(), ctx, Pi(U(0), U(0)), lhs, rhs)

    def test_eta_pair(self):
        ctx = PRELUDE.push(EVar(Sigma(U(0), U(0))))
        assert conv(st(), ctx, Sigma(U(0), U(0)),
                    Var(0), Pair(Fst(Var(0)), Snd(Var(0))))

    def test_path_application_normalizes_interval(self):
        ctx = PRELUDE.push(EVar(PathT(U(0), U(0), U(0)))).push(EIVar())
        i = IVar(0)
        assert conv_tm(st(), ctx,
                       PApp(Var(0), INeg(INeg(i))), PApp(Var(0), i))

    def test_distinct_variables_differ(self):
        ctx = PRELUDE.push(EVar(U(0))).push(EVar(U(0)))
        assert not conv_tm(st(), ctx, Var(0), Var(1))

    def test_conversion_under_unsatisfiable_face_is_vacuous(self):
        ctx = PRELUDE.push(EVar(U(0))).push(EVar(U(0)))
        phi = FAnd(FEq(0, 0), FEq(0, 1))
        ctx = ctx.push(EIVar())
        assert conv_under_face(st(), ctx, phi, U(0), Var(0), Var(1))

    def test_conversion_under_face_substitutes_endpoints(self):
        # Under (i=1), p @ i == p @ 1.
        ctx = PRELUDE.push(EVar(PathT(U(0), U(0), U(1)))).push(EIVar())
        i = IVar(0)
        assert conv_under_face(st(), ctx, FEq(0, 1), U(1),
                               PApp(Var(0), i), PApp(Var(0), IONE))
        assert not conv_under_face(st(), ctx, FEq(0, 0), U(1),
                                   PApp(Var(0), i), PApp(Var(0), IONE))

    def test_restricted_context_makes_equal(self):
        # A context face (i=0) identifies p @ i with p @ 0.
        ctx = (PRELUDE.push(EVar(PathT(U(0), U(0), U(1))))
               .push(EIVar()).push(EFace(FEq(0, 0))))
        assert conv(st(), ctx, U(0), PApp(Var(0), IVar(0)),
                    PApp(Var(0), IZERO))

    def test_forall_eta(self):
        ctx = PRELUDE.push(EVar(Forall(U(0))))
        assert conv(st(), ctx, Forall(U(0)),
                    Var(0), CLam(CApp(Var(0), 0)))

    def test_later_eta(self):
        ctx = PRELUDE.push(EVar(Later(0, U(0))))
        assert conv(st(), ctx, Later(0, U(0)),
                    Var(0), TickLam(0, TickApp(Var(0), TickVar(0))))

    def test_dfix_not_equal_to_unfolding_under_tick(self):
        # Guardedness: under a fresh tick, dfix f [alpha] differs from
        # f (dfix f).
        fty = Pi(Later(0, U(0)), U(0))
        ctx = PRELUDE.push(EVar(fty))
        lhs = DFix(0, Var(0))
        rhs = TickLam(0, App(Var(0), DFix(0, Var(0))))
        assert not conv(st(), ctx, Later(0, U(0)), lhs, rhs)


# --------------------------------------------------------------------------
# The reduction machine: whnf returns the terms eager substitution gave
# --------------------------------------------------------------------------

def nat_signature():
    return HitSignature("nat", Telescope(()), 0, (
        Constructor("zero", Telescope(()), (), 0, FBOT, ()),
        Constructor("succ", Telescope(()), (Telescope(()),), 0, FBOT, ()),
    ))


def node_signature():
    # One constructor with an argument, a recursive argument and an
    # interval binder; its face never holds, so it never fires a boundary.
    return HitSignature("tree", Telescope(()), 0, (
        Constructor("leaf", Telescope(()), (), 0, FBOT, ()),
        Constructor("node", Telescope((U(0),)), (Telescope(()),), 1, FBOT,
                    ()),
    ))


NAT = Hit("nat", ())
ZERO = Con("nat", "zero", (), (), (), ())
SC = Lam(Con("nat", "succ", (), (), (Var(0),), ()))


def nat_num(n):
    t = ZERO
    for _ in range(n):
        t = Con("nat", "succ", (), (), (t,), ())
    return t


def church(n):
    body = Var(0)
    for _ in range(n):
        body = App(Var(1), body)
    return Lam(Lam(body))


# \m n s z. m s (n s z),  \m n s z. m (n s) z,  \n. mul n n
ADD = Lam(Lam(Lam(Lam(App(App(Var(3), Var(1)),
                          App(App(Var(2), Var(1)), Var(0)))))))
MUL = Lam(Lam(Lam(Lam(App(App(Var(3), App(Var(2), Var(1))), Var(0))))))
SQ = Lam(App(App(MUL, Var(0)), Var(0)))


def church_expr(rng, depth):
    """A random Church-numeral expression of at most `depth` operations, the
    outermost always one, and its value."""
    if depth == 0 or (depth < 3 and rng.random() < 0.3):
        n = rng.randrange(4)
        return church(n), n
    op = rng.choice(("add", "mul", "sq"))
    a, va = church_expr(rng, depth - 1)
    if op == "sq":
        return App(SQ, a), va * va
    b, vb = church_expr(rng, depth - 1)
    if op == "add":
        return App(App(ADD, a), b), va + vb
    return App(App(MUL, a), b), va * vb


def nat_state():
    state = StubState()
    state.signatures["nat"] = nat_signature()
    state.signatures["tree"] = node_signature()
    return state


class TestPointConstructors:
    """A constructor with the empty face never fires a boundary, so it is
    answered without reading its face."""

    @pytest.fixture
    def faces_unread(self, monkeypatch):
        def unread(*args):
            raise AssertionError("a point constructor's face was read")
        for name in ("_ctor_face", "iv_substitute", "face_is_true"):
            monkeypatch.setattr(conversion, name, unread)

    def test_whnf_returns_point_constructor(self, faces_unread):
        for t in (ZERO, nat_num(1)):
            state = nat_state()
            assert whnf(state, PRELUDE, t) is t
            assert state.steps == 1

    def test_boundary_reduce_stops_at_point_constructor(self, faces_unread):
        # Point constructors, as boundary pieces hold them, come back as
        # they are.
        state = nat_state()
        zero = Con("nat", "zero", (), (), (), ())
        for piece in (zero, Con("nat", "succ", (), (), (zero,), ())):
            assert whnf(state, PRELUDE, piece) is piece

    def test_signature_lookup_by_label(self):
        sig = node_signature()
        assert sig.constructor("node") is sig.constructors[1]
        assert sig.index_of("leaf") == 0
        with pytest.raises(KeyError):
            sig.constructor("twig")


class TestBoundaryTubes:
    """Substituting into a boundary hcomp leaves its tube's own interval
    variable alone."""

    @staticmethod
    def state():
        state = StubState()
        state.signatures["t"] = parse_module(
            "data t : U0 where | a | b"
            " | seg (i : I) [(i = 0) -> a, (i = 1) -> b]"
            " | sq (i : I) [(i = 0) -> hcomp^k [(i = 0) -> seg k] a]"
        ).decls[0].sig
        return state

    def test_constructor_endpoint_keeps_the_tube_variable(self):
        # sq 0 = hcomp^k [1 -> seg k] a = seg 1 = b.
        t = Hit("t", ())
        sq0 = Con("t", "sq", (), (), (), (IZERO,))
        b = Con("t", "b", (), (), (), ())
        a = Con("t", "a", (), (), (), ())
        assert conv(self.state(), PRELUDE, t, sq0, b)
        assert not conv(self.state(), PRELUDE, t, sq0, a)

    def test_nested_tube_keeps_its_variable(self):
        # Under an interval variable l: the outer tube at 1 is an hcomp on
        # l = 1, whose tube is seg at its own variable.
        t = Hit("t", ())
        a = Con("t", "a", (), (), (), ())
        seg_k = Con("t", "seg", (), (), (), (IVar(0),))
        inner = HComp(t, FEq(1, 1), seg_k, a)
        ctx = PRELUDE.push(EIVar())
        assert (whnf(self.state(), ctx, HComp(t, FTOP, inner, a))
                == HComp(t, FEq(0, 1), seg_k, a))


class TestMachine:
    # x0 : U0 -> U0 -> U0, x1 : U0 in the prelude.
    CTX = PRELUDE.push(EVar(U(0))).push(EVar(Pi(U(0), Pi(U(0), U(0)))))

    def test_partial_application_returns_the_rest_of_the_lambdas(self):
        arg = App(Var(0), Var(1))
        t = App(Lam(Lam(Lam(App(App(Var(2), Var(1)), Var(0))))), arg)
        assert whnf(st(), self.CTX, t) == Lam(Lam(
            App(App(App(Var(2), Var(3)), Var(1)), Var(0))
        ))

    def test_over_application_onto_a_neutral_head(self):
        # (\a f. f a (\_. a)) A x0  with A = (\y. y) x1, left unreduced.
        a = App(Lam(Var(0)), Var(1))
        fn = Lam(Lam(App(App(Var(0), Var(1)), Lam(Var(2)))))
        t = App(App(fn, a), Var(0))
        assert whnf(st(), self.CTX, t) == App(
            App(Var(0), App(Lam(Var(0)), Var(1))),
            Lam(App(Lam(Var(0)), Var(2))),
        )

    def test_extra_arguments_of_a_stuck_projection_come_back(self):
        t = App(App(Lam(App(Fst(Var(0)), Var(0))), Var(0)), U(1))
        assert whnf(st(), self.CTX, t) == App(App(Fst(Var(0)), Var(0)), U(1))

    def test_a_discarded_argument_is_never_reduced(self):
        omega = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))
        const = Lam(Lam(Var(1)))
        state = StubState(max_steps=100)
        assert whnf(state, self.CTX, App(App(const, U(0)), omega)) == U(0)
        assert state.steps == 5

    def test_an_argument_reached_twice_is_reduced_twice(self):
        # twice f z = f (f z) with f = \y. (\w. w) y
        twice = Lam(Lam(App(Var(1), App(Var(1), Var(0)))))
        f = Lam(App(Lam(Var(0)), Var(0)))
        state = st()
        assert whnf(state, self.CTX, App(App(twice, f), Var(1))) == Var(1)
        assert state.steps == 13

    def test_clock_application_inside_a_spine(self):
        ctx = PRELUDE.push(EClock()).push(EVar(U(0))).push(EVar(U(0)))
        fn = CLam(Lam(Later(0, App(Var(0), Var(2)))))
        t = App(CApp(fn, 1), Var(1))
        assert whnf(st(), ctx, t) == Later(1, App(Var(1), Var(1)))

    def test_clock_elim_on_a_constructor(self):
        # xs : forall k. tree; the node case uses its argument, the
        # recursive argument, the recursive call and the interval variable.
        ctx = PRELUDE.push(EVar(Forall(Hit("tree", ())))).push(EIVar())
        cases = (
            ElimCase("leaf", 0, 0, 0, U(0)),
            ElimCase("node", 1, 1, 1, Lam(Pair(
                Var(3), Pair(Var(2), PApp(Var(1), IVar(0)))
            ))),
        )
        scrut = CLam(Con("tree", "node", (), (U(1),),
                         (CApp(Var(0), 0),), (IVar(0),)))
        t = ClockElim("tree", 1, (), U(1), cases, scrut)
        rec_call = ClockElim("tree", 1, (), U(1), cases,
                             CLam(CApp(Var(0), 0)))
        assert whnf(nat_state(), ctx, t) == Lam(Pair(
            CLam(U(1)),
            Pair(CLam(CApp(Var(1), 0)),
                 PApp(weaken(rec_call, [TERM]), IVar(0))),
        ))

    def test_a_variable_outside_the_context_is_rejected(self):
        with pytest.raises(MalformedSubstitution):
            whnf(st(), self.CTX, App(Lam(Var(3)), U(0)))
        with pytest.raises(MalformedSubstitution):
            whnf(st(), self.CTX, App(Lam(Pair(Var(0), Var(3))), U(0)))

    def test_step_counts(self):
        state = nat_state()
        t = App(App(App(App(ADD, church(2)), church(3)), SC), ZERO)
        assert whnf(state, PRELUDE, t) == Con(
            "nat", "succ", (), (),
            (App(SC, App(App(church(3), SC), ZERO)),), (),
        )
        assert state.steps == 15
        assert conv(state, PRELUDE, NAT, t, nat_num(5))
        assert state.steps == 54
        sq = App(App(App(SQ, church(3)), SC), ZERO)
        assert not conv(state, PRELUDE, NAT, sq, nat_num(8))
        assert state.steps == 117
        assert conv(state, PRELUDE, NAT, sq, nat_num(9))
        assert state.steps == 182

    @pytest.mark.parametrize("seed", range(12))
    def test_church_arithmetic(self, seed):
        rng = random.Random(seed)
        term, value = church_expr(rng, 3)
        while value > 40:
            term, value = church_expr(rng, 3)
        applied = App(App(term, SC), ZERO)
        state = nat_state()
        assert conv(state, PRELUDE, NAT, applied, nat_num(value))
        other = value + 1 if value == 0 or rng.random() < 0.5 else value - 1
        assert not conv(state, PRELUDE, NAT, applied, nat_num(other))


def fuel_file_state(max_steps):
    """The definitions of `fuel-exhausted.cctt` (all but `spin`), with a
    fresh step count under the given budget."""
    state = CheckState()
    for decl in parse_module(FUEL_FILE.read_text(encoding="utf-8")).decls:
        if isinstance(decl, DataDefinition):
            state.add_signature(decl.sig)
        elif decl.name != "spin":
            state.add_definition(decl.name, decl.ty, decl.body)
    state.steps, state.max_steps = 0, max_steps
    return state


def s5_idf_zero():
    return App(App(TopRef("s5"), TopRef("idf")), ZERO)


class TestFastPaths:
    def test_equal_terms_convert_without_reducing(self):
        # Reducing s5 idf zero takes over a million steps.
        state = fuel_file_state(max_steps=100)
        assert conv(state, PRELUDE, NAT, s5_idf_zero(), s5_idf_zero())
        assert state.steps == 0

    def test_unequal_terms_still_reduce(self):
        state = fuel_file_state(max_steps=10_000)
        ctx = PRELUDE.push(EVar(Pi(NAT, U(0))))
        with pytest.raises(FuelExhausted):
            conv(state, ctx, U(0), App(Var(0), ZERO),
                 App(Var(0), s5_idf_zero()))

    @pytest.mark.parametrize("t", [
        Var(0), U(0), Pi(U(0), U(0)), Sigma(U(0), U(0)), Lam(Var(0)),
        Pair(Var(0), Var(1)), PLam(Var(0)), CLam(Var(0)),
        TickLam(0, Var(0)), PathT(U(0), Var(0), Var(0)), Forall(U(0)),
        Later(0, U(0)), NAT, DFix(0, Var(0)), PFix(0, Var(0)),
    ], ids=lambda t: type(t).__name__)
    def test_head_normal_input_costs_one_step(self, t):
        state = st()
        assert whnf(state, TestMachine.CTX, t) is t
        assert state.steps == 1
