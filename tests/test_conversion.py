import random
from pathlib import Path

import pytest

from cctt import conversion
from cctt.checker import CheckState, infer
from cctt.conversion import (
    comp_eval, conv, conv_tm, hfill, tick_whnf, whnf,
)
from cctt.errors import (
    CcttError, FuelExhausted, MalformedSubstitution, UnboundVariable,
)
from cctt.interval import (
    FAnd, FBOT, FEq, FOr, FTOP, IJoin, IMeet, INeg, IVar, IZERO, IONE,
    face_clauses, iv_rename, iv_substitute,
)
from cctt.parser import (
    ConvCheck, DataDefinition, Definition, parse_module,
)
from cctt.syntax import (
    C1, K0, T1, App, CApp, CLam, ClockElim, Closure, Comp, Con,
    Constructor, Context, DFix, Diamond, EClock, EIVar, ETick, EVar,
    ElimCase, ForceApp, Forall, Fst, HComp, Hit, HitSignature, Lam, Later,
    PApp, PFix, PLam, Pair, PathT, Pi, Sigma, Snd, Substitution, System,
    Telescope, TickApp, TickLam, TickVar, Tirr, TopRef, Trans, U, Var,
    _CLK, _IVL, _IVLS, _SAME, _TCK, _WALKED, structural_equal, weaken,
)
from cctt.ticks import extend
from oracles import OutOfReach, naive_subst, reference_normal, reference_whnf
from test_syntax import _mutants
from test_ticks import generated_case

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

    def signature(self, name):
        try:
            return self.signatures[name]
        except KeyError:
            raise UnboundVariable(f"no data type named {name}", name=name)

    def definition_body(self, name):
        return self.definitions.get(name)

    def infer(self, ctx, t):
        return infer(self, ctx, t)


EMPTY = Context()


@pytest.mark.parametrize("make", [StubState, CheckState])
def test_whnf_of_a_constructor_of_an_undeclared_data_type_is_an_error(make):
    # The stub answers an unknown data type as the checker's state does, so
    # a test that catches `CcttError` sees an error, not a traceback.
    with pytest.raises(CcttError) as raised:
        whnf(make(), EMPTY, Con("nat", "zero", (), (), (), ()))
    assert type(raised.value) is UnboundVariable


def st():
    return StubState()


class TestWhnfBeta:
    def test_lambda_beta(self):
        t = App(Lam(Var(0)), U(0))
        assert whnf(st(), EMPTY, t) == U(0)

    def test_pair_projections(self):
        assert whnf(st(), EMPTY, Fst(Pair(U(0), U(1)))) == U(0)
        assert whnf(st(), EMPTY, Snd(Pair(U(0), U(1)))) == U(1)

    def test_path_beta(self):
        ctx = EMPTY.push(EVar(U(0)))
        t = PApp(PLam(Var(0)), IONE)
        assert whnf(st(), ctx, t) == Var(0)

    def test_clock_beta(self):
        ctx = EMPTY.push(EClock())
        ctx2 = ctx.push(EVar(U(0)))
        got = whnf(st(), ctx2, App(Lam(CApp(CLam(Later(0, U(0))), 0)), U(0)))
        assert got == Later(0, U(0))
        got = whnf(st(), ctx2, CApp(CLam(Later(0, U(0))), K0))
        assert got == Later(K0, U(0))

    def test_tick_beta(self):
        ctx = EMPTY.push(EVar(U(0))).push(ETick(K0))
        t = TickApp(TickLam(K0, Var(0)), TickVar(0))
        assert whnf(st(), ctx, t) == Var(0)


class TestTicksAndFixpoints:
    def test_tirr_endpoints(self):
        a, b = TickVar(0), TickVar(1)
        assert tick_whnf(Tirr(a, b, IZERO)) == a
        assert tick_whnf(Tirr(a, b, IONE)) == b
        assert tick_whnf(Tirr(Diamond(), Diamond(), IVar(0))) == Diamond()

    def test_dfix_does_not_unfold_on_tick_variable(self):
        # x : later A -> A in context; dfix f [alpha] must stay stuck.
        ctx = EMPTY.push(EVar(Pi(Later(K0, U(0)), U(0)))).push(ETick(K0))
        t = TickApp(DFix(K0, Var(0)), TickVar(0))
        got = whnf(st(), ctx, t)
        assert isinstance(got, TickApp)
        assert isinstance(got.fn, DFix)

    def test_dfix_unfolds_on_diamond(self):
        ctx = EMPTY.push(EVar(Pi(Later(K0, U(0)), U(0))))
        t = ForceApp(DFix(0, Var(0)), K0, Diamond())
        got = whnf(st(), ctx, t)
        assert got == App(Var(0), DFix(K0, Var(0)))

    def test_pfix_unfolds_on_diamond_under_path_application(self):
        ctx = EMPTY.push(EVar(Pi(Later(K0, U(0)), U(0))))
        t = PApp(ForceApp(PFix(0, Var(0)), K0, Diamond()), IVar0 := IZERO)
        got = whnf(st(), ctx, t)
        assert got == App(Var(0), DFix(K0, Var(0)))

    def test_diamond_free_forcing_demotes(self):
        # (kappa. f) [(kappa0, alpha)] with a plain tick becomes f [alpha].
        ctx = EMPTY.push(ETick(K0)).push(EVar(Later(K0, U(0))))
        t = ForceApp(Var(0), K0, TickVar(0))
        got = whnf(st(), ctx, t)
        assert got == TickApp(Var(0), TickVar(0))

    def test_forcing_beta(self):
        ctx = EMPTY.push(EVar(U(0)))
        fn = TickLam(0, Var(0))  # under fresh clock binder
        t = ForceApp(fn, K0, Diamond())
        assert whnf(st(), ctx, t) == Var(0)

    def test_forcing_a_neutral_is_stuck(self):
        # Forcing dfix f [alpha] does not unfold: the head under the clock
        # binder is a tick application, not a fixed point.
        f = Lam(ForceApp(TickApp(Var(0), TickVar(0)), 0, Diamond()))
        loop = ForceApp(DFix(0, f), K0, Diamond())
        ctx = EMPTY.push(ETick(K0))
        got = whnf(st(), ctx, loop)
        assert isinstance(got, ForceApp)

    def test_divergent_definition_exhausts_fuel(self):
        # A definition that keeps producing diamond redexes must trip the
        # step budget rather than spin forever.
        from cctt.syntax import TopRef
        state = StubState(max_steps=5_000)
        state.definitions["loop"] = ForceApp(
            DFix(0, Lam(TopRef("loop"))), K0, Diamond()
        )
        with pytest.raises(FuelExhausted):
            whnf(state, EMPTY, TopRef("loop"))


class TestSystemsAndComp:
    def test_system_picks_true_part(self):
        t = System(((FEq(0, 0), U(0)), (FTOP, U(1))))
        assert whnf(st(), EMPTY.push(EIVar()), t) == U(1)

    def test_comp_on_true_face_is_tube_at_one(self):
        ctx = EMPTY.push(EVar(U(0)))
        t = Comp(U(0), FTOP, Var(0), Var(0))
        assert whnf(st(), ctx, t) == Var(0)

    def test_hcomp_on_true_face_is_tube_at_one(self):
        ctx = EMPTY.push(EVar(U(0)))
        t = HComp(U(0), FTOP, Var(0), Var(0))
        assert whnf(st(), ctx, t) == Var(0)

    def test_trans_constant_line_is_identity(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
        t = Trans(Var(1), FEq(0, 0), Var(0))
        assert whnf(st(), ctx, t) == Var(0)

    def test_comp_along_constant_line_is_homogeneous(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Pi(Var(0), U(0))))
        base = Lam(U(0))
        line = Pi(Var(1), U(1))
        got = comp_eval(st(), ctx, Comp(line, FEq(0, 0), base, base))
        assert isinstance(got, HComp)

    def test_comp_at_varying_pi_is_a_lambda(self):
        # p : Path U0 A B gives a genuinely varying domain line.
        ctx = (EMPTY.push(EVar(U(0))).push(EVar(U(0)))
               .push(EVar(PathT(U(0), Var(1), Var(0)))))
        line = Pi(PApp(Var(0), IVar(0)), U(1))
        base = Lam(U(0))
        got = comp_eval(st(), ctx, Comp(line, FBOT, base, base))
        assert isinstance(got, Lam)
        assert isinstance(got.body, Comp)

    def test_comp_at_sigma_is_a_pair(self):
        ctx = EMPTY.push(EVar(U(0)))
        line = Sigma(PApp(PLam(Var(0)), IVar(0)), Var(1))
        got = comp_eval(st(), ctx, Comp(
            line, FBOT, Pair(Var(0), Var(0)), Pair(Var(0), Var(0))
        ))
        assert isinstance(got, Pair)

    def test_hfill_endpoints(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
        ty, base = Var(1), Var(0)
        tube = Var(0)
        state = st()
        at0 = hfill(ctx.counts, ty, FBOT, tube, base, IZERO)
        assert whnf(state, ctx, at0) == base
        at1 = hfill(ctx.counts, ty, FBOT, tube, base, IONE)
        got = whnf(state, ctx, at1)
        assert isinstance(got, HComp)


class TestConv:
    def test_eta_function(self):
        # f == \x. f x at a Pi type.
        ctx = EMPTY.push(EVar(Pi(U(0), U(0))))
        lhs = Var(0)
        rhs = Lam(App(Var(1), Var(0)))
        assert conv(st(), ctx, Pi(U(0), U(0)), lhs, rhs)

    def test_eta_pair(self):
        ctx = EMPTY.push(EVar(Sigma(U(0), U(0))))
        assert conv(st(), ctx, Sigma(U(0), U(0)),
                    Var(0), Pair(Fst(Var(0)), Snd(Var(0))))

    def test_path_application_normalizes_interval(self):
        ctx = EMPTY.push(EVar(PathT(U(0), U(0), U(0)))).push(EIVar())
        i = IVar(0)
        assert conv_tm(st(), ctx,
                       PApp(Var(0), INeg(INeg(i))), PApp(Var(0), i))

    def test_distinct_variables_differ(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(U(0)))
        assert not conv_tm(st(), ctx, Var(0), Var(1))

    def test_conversion_under_unsatisfiable_face_is_vacuous(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(U(0)))
        phi = FAnd(FEq(0, 0), FEq(0, 1))
        ctx = ctx.push(EIVar())
        assert conv(st(), ctx.restrict(phi), U(0), Var(0), Var(1))

    def test_conversion_under_face_substitutes_endpoints(self):
        # Under (i=1), p @ i == p @ 1.
        ctx = EMPTY.push(EVar(PathT(U(0), U(0), U(1)))).push(EIVar())
        i = IVar(0)
        assert conv(st(), ctx.restrict(FEq(0, 1)), U(1),
                    PApp(Var(0), i), PApp(Var(0), IONE))
        assert not conv(st(), ctx.restrict(FEq(0, 0)), U(1),
                        PApp(Var(0), i), PApp(Var(0), IONE))

    def test_restricted_context_makes_equal(self):
        # A context restricted to (i=0) identifies p @ i with p @ 0, also
        # under binders pushed after the restriction.
        ctx = (EMPTY.push(EVar(PathT(U(0), U(0), U(1))))
               .push(EIVar()).restrict(FEq(0, 0)))
        assert conv(st(), ctx, U(0), PApp(Var(0), IVar(0)),
                    PApp(Var(0), IZERO))
        inner = ctx.push(EIVar()).push(EVar(U(0)))
        assert conv(st(), inner, U(0), PApp(Var(1), IVar(1)),
                    PApp(Var(1), IZERO))
        assert not conv(st(), inner, U(0), PApp(Var(1), IVar(0)),
                        PApp(Var(1), IZERO))

    def test_false_restriction_makes_every_comparison_true(self):
        # Terms of different types, distinct variables and unequal
        # universes are all equal where the restriction is false, also
        # under binders pushed after it; and no step is spent.
        ctx = EMPTY.push(EVar(U(0))).push(EIVar()).push(EVar(Var(0)))
        for phi in (FBOT, FAnd(FEq(0, 0), FEq(0, 1))):
            state = st()
            for rctx in (ctx.restrict(phi),
                         ctx.restrict(phi).push(EIVar()).push(EVar(U(0)))):
                assert rctx.restriction == FBOT
                assert conv(state, rctx, U(0), Var(0), Var(1))
                assert conv(state, rctx, U(1), U(0), Pi(U(0), U(0)))
                assert conv(state, rctx, Var(1), Lam(Var(0)), Var(0))
            assert state.steps == 0

    def test_forall_eta(self):
        ctx = EMPTY.push(EVar(Forall(U(0))))
        assert conv(st(), ctx, Forall(U(0)),
                    Var(0), CLam(CApp(Var(0), 0)))

    def test_later_eta(self):
        ctx = EMPTY.push(EVar(Later(K0, U(0))))
        assert conv(st(), ctx, Later(K0, U(0)),
                    Var(0), TickLam(K0, TickApp(Var(0), TickVar(0))))

    def test_dfix_not_equal_to_unfolding_under_tick(self):
        # Guardedness: under a fresh tick, dfix f [alpha] differs from
        # f (dfix f).
        fty = Pi(Later(K0, U(0)), U(0))
        ctx = EMPTY.push(EVar(fty))
        lhs = DFix(K0, Var(0))
        rhs = TickLam(K0, App(Var(0), DFix(K0, Var(0))))
        assert not conv(st(), ctx, Later(K0, U(0)), lhs, rhs)


# --------------------------------------------------------------------------
# Every field that is not a subterm matters to conversion
# --------------------------------------------------------------------------

def _point_signature(name):
    """A data type with two point constructors, `tt` and `ff`."""
    return HitSignature(name, Telescope(()), 0, tuple(
        Constructor(label, Telescope(()), (), 0, FBOT, ())
        for label in ("tt", "ff")))


# Two clocks, a tick on each, a term variable and two interval variables.
_FIELD_CTX = Context((EClock(), EClock(), ETick(0), ETick(1), EVar(U(0)),
                      EIVar(), EIVar()))
_X = Var(0)
_BOOL_ELIM = ClockElim("bool", 0, (), U(0),
                       (ElimCase("tt", 0, 0, 0, U(0)),
                        ElimCase("ff", 0, 0, 0, U(0))), _X)

# Per field of a binder-table row that holds a clock, a tick, an interval
# expression or face, interval arguments, or a value compared as it is: a
# head-normal or stuck term, and another value for that field.  A type
# line that mentions its variable keeps a Kan former from reducing, and a
# forcing keeps its diamond, since a diamond-free one is a tick
# application.
_FIELD_PAIRS = {
    (PApp, "arg"): (PApp(_X, IVar(0)), IVar(1)),
    (CApp, "clock"): (CApp(_X, 0), 1),
    (Later, "clock"): (Later(0, U(0)), 1),
    (TickLam, "clock"): (TickLam(0, U(0)), 1),
    (TickApp, "tick"): (TickApp(_X, TickVar(0)), TickVar(1)),
    (ForceApp, "clock"): (ForceApp(CApp(_X, 0), 0, Diamond()), 1),
    (ForceApp, "tick"): (ForceApp(CApp(_X, 0), 0, Diamond()),
                         Tirr(Diamond(), TickVar(0), IVar(0))),
    (DFix, "clock"): (DFix(0, _X), 1),
    (PFix, "clock"): (PFix(0, _X), 1),
    (Comp, "face"): (Comp(PApp(_X, IVar(0)), FEq(0, 0), _X, _X), FEq(0, 1)),
    (HComp, "face"): (HComp(_X, FEq(0, 0), _X, _X), FEq(0, 1)),
    (Trans, "face"): (Trans(PApp(_X, IVar(0)), FEq(0, 0), _X), FEq(0, 1)),
    (Hit, "name"): (Hit("bool", ()), "bool2"),
    (Con, "name"): (Con("bool", "tt", (), (), (), ()), "bool2"),
    (Con, "label"): (Con("bool", "tt", (), (), (), ()), "ff"),
    (Con, "ivals"): (Con("tree", "node", (), (U(0),), (_X,), (IVar(0),)),
                     (IVar(1),)),
    (ClockElim, "name"): (_BOOL_ELIM, "bool2"),
    (ClockElim, "n"): (_BOOL_ELIM, 1),
}

# The fields the rules make irrelevant, or whose pair cannot be built
# head-normal or stuck, each with its reason.  None: tick irrelevance is
# the `tirr` tick's path, not a conversion rule, so ticks are compared.
_FIELDS_NOT_TOLD_APART = {}


def test_every_non_subterm_field_matters_to_conversion():
    fields = {(cls, name) for cls, row in _WALKED.items()
              for (kind, _), name in zip(row, cls._fields)
              if kind in (_CLK, _TCK, _IVL, _SAME, _IVLS)}
    assert fields == set(_FIELD_PAIRS) | set(_FIELDS_NOT_TOLD_APART)
    assert not set(_FIELD_PAIRS) & set(_FIELDS_NOT_TOLD_APART)
    state = nat_state()
    for name in ("bool", "bool2"):
        state.signatures[name] = _point_signature(name)
    for (cls, name), (t, other) in _FIELD_PAIRS.items():
        values = [getattr(t, f) for f in cls._fields]
        k = cls._fields.index(name)
        assert type(t) is cls and values[k] != other
        u = cls(*values[:k], other, *values[k + 1:])
        for x in (t, u):
            assert whnf(state, _FIELD_CTX, x) == x, x
        assert not conv_tm(state, _FIELD_CTX, t, u), (t, u)
        assert not conv_tm(state, _FIELD_CTX, u, t), (u, t)


# --------------------------------------------------------------------------
# The reduction machine: whnf returns the terms eager substitution gave
# --------------------------------------------------------------------------

# --------------------------------------------------------------------------
# Comparison in a restricted context, against the clauses substituted
# --------------------------------------------------------------------------

# A : U0, a b : A, p q : Path A a b, then interval variables i2 i1 i0.
_PATHS = (EMPTY.push(EVar(U(0))).push(EVar(Var(0))).push(EVar(Var(1)))
          .push(EVar(PathT(Var(2), Var(1), Var(0))))
          .push(EVar(PathT(Var(3), Var(2), Var(1)))))
_A = Var(4)


def _random_face(rng, n, depth=3):
    """A face over interval variables 0..n-1, built by the kernel's
    builders from a random formula."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([FBOT, FTOP] + [FEq(ix, end) for ix in range(n)
                                          for end in (0, 1)])
    join = FOr if rng.randrange(2) else FAnd
    return join(_random_face(rng, n, depth - 1),
                _random_face(rng, n, depth - 1))


def _random_point(rng, n):
    """A point of A: a or b, or p or q at an interval expression over
    variables 0..n-1."""
    if rng.random() < 0.2:
        return Var(rng.choice((2, 3)))
    r = rng.choice([IZERO, IONE] + [IVar(ix) for ix in range(n)])
    if rng.random() < 0.5:
        r = (INeg(r) if rng.random() < 0.3 else
             rng.choice((IMeet, IJoin))(r, IVar(rng.randrange(n))))
    return PApp(Var(rng.randrange(2)), r)


def _at_clause(t, clause, n):
    """t with each interval variable of the clause (variable -> endpoint,
    among the innermost n) sent to its endpoint, by the plain
    substitution; the others stay where they are."""
    ivals = tuple((IONE if clause[ix] else IZERO) if ix in clause
                  else IVar(ix) for ix in reversed(range(n)))
    return naive_subst(t, ivals=ivals, fresh=(0, 0, 0, n))


def test_restriction_clauses_make_every_conjunct_true():
    # Why a clause is compared in an unrestricted context: each clause of
    # phi /\ psi contains a clause of psi, so psi holds there.
    rng = random.Random(20)
    for _ in range(500):
        phi, psi = _random_face(rng, 3), _random_face(rng, 3)
        for clause in face_clauses(FAnd(phi, psi)):
            ends = {ix: IONE if end else IZERO for ix, end in clause.items()}
            assert iv_substitute(psi, ends) == FTOP
            assert iv_substitute(phi, ends) == FTOP


def test_restricted_conversion_agrees_with_substituted_clauses():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        # Restricted to psi over the outermost interval variable when it
        # is pushed, and to phi over all three at the end.
        psi, phi = _random_face(rng, 1, depth=1), _random_face(rng, 3)
        ctx = (_PATHS.push(EIVar()).restrict(psi).push(EIVar())
               .push(EIVar()).restrict(phi))
        whole = FAnd(iv_rename(psi, lambda ix: ix + 2), phi)
        assert ctx.restriction == whole
        t, u = _random_point(rng, 3), _random_point(rng, 3)
        free = Context(ctx.entries)
        want = all(conv(st(), free, _A, _at_clause(t, clause, 3),
                        _at_clause(u, clause, 3))
                   for clause in face_clauses(whole))
        assert conv(st(), ctx, _A, t, u) == want, (whole, t, u)
        if whole not in (FBOT, FTOP):
            verdicts[want] += 1
    assert min(verdicts.values()) >= 50, verdicts


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


def nat_state(max_steps=200_000):
    state = StubState(max_steps)
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
            assert whnf(state, EMPTY, t) is t
            assert state.steps == 1

    def test_boundary_reduce_stops_at_point_constructor(self, faces_unread):
        # Point constructors, as boundary pieces hold them, come back as
        # they are.
        state = nat_state()
        zero = Con("nat", "zero", (), (), (), ())
        for piece in (zero, Con("nat", "succ", (), (), (zero,), ())):
            assert whnf(state, EMPTY, piece) is piece

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
        assert conv(self.state(), EMPTY, t, sq0, b)
        assert not conv(self.state(), EMPTY, t, sq0, a)

    def test_nested_tube_keeps_its_variable(self):
        # Under an interval variable l: the outer tube at 1 is an hcomp on
        # l = 1, whose tube is seg at its own variable.
        t = Hit("t", ())
        a = Con("t", "a", (), (), (), ())
        seg_k = Con("t", "seg", (), (), (), (IVar(0),))
        inner = HComp(t, FEq(1, 1), seg_k, a)
        ctx = EMPTY.push(EIVar())
        assert (whnf(self.state(), ctx, HComp(t, FTOP, inner, a))
                == HComp(t, FEq(0, 1), seg_k, a))


class TestMachine:
    # x0 : U0 -> U0 -> U0, x1 : U0.
    CTX = EMPTY.push(EVar(U(0))).push(EVar(Pi(U(0), Pi(U(0), U(0)))))

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
        ctx = EMPTY.push(EClock()).push(EVar(U(0))).push(EVar(U(0)))
        fn = CLam(Lam(Later(0, App(Var(0), Var(2)))))
        t = App(CApp(fn, K0), Var(1))
        assert whnf(st(), ctx, t) == Later(K0, App(Var(1), Var(1)))

    def test_clock_elim_on_a_constructor(self):
        # xs : forall k. tree; the node case uses its argument, the
        # recursive argument, the recursive call and the interval variable.
        ctx = EMPTY.push(EVar(Forall(Hit("tree", ())))).push(EIVar())
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
                 PApp(weaken(rec_call, T1), IVar(0))),
        ))

    def test_constructor_interval_arguments_are_read_under_the_environment(
            self):
        # node's face never holds, so the constructor is compared pending:
        # its interval argument is the path's, at 0.
        def node(r):
            return Con("tree", "node", (), (U(0),), (ZERO,), (r,))
        t = PApp(PLam(node(IVar(0))), IZERO)
        ctx = EMPTY.push(EIVar())
        assert conv_tm(nat_state(), ctx, t, node(IZERO))
        assert not conv_tm(nat_state(), ctx, t, node(IVar(0)))
        assert not conv_tm(nat_state(), ctx, t, node(IONE))

    def test_a_variable_outside_the_context_is_rejected(self):
        with pytest.raises(MalformedSubstitution):
            whnf(st(), self.CTX, App(Lam(Var(3)), U(0)))
        with pytest.raises(MalformedSubstitution):
            whnf(st(), self.CTX, App(Lam(Pair(Var(0), Var(3))), U(0)))
        # The context has no interval variable: the path application's
        # argument is read under the environment, and that read raises.
        with pytest.raises(MalformedSubstitution):
            whnf(st(), self.CTX, App(Lam(PApp(PLam(Var(0)), IVar(0))), U(0)))
        with pytest.raises(MalformedSubstitution):
            whnf(st(), self.CTX,
                 App(Lam(System(((FEq(0, 1), Var(0)),))), U(0)))

    def test_step_counts(self):
        state = nat_state()
        t = App(App(App(App(ADD, church(2)), church(3)), SC), ZERO)
        assert whnf(state, EMPTY, t) == Con(
            "nat", "succ", (), (),
            (App(SC, App(App(church(3), SC), ZERO)),), (),
        )
        assert state.steps == 15
        assert conv(state, EMPTY, NAT, t, nat_num(5))
        assert state.steps == 54
        sq = App(App(App(SQ, church(3)), SC), ZERO)
        assert not conv(state, EMPTY, NAT, sq, nat_num(8))
        assert state.steps == 117
        assert conv(state, EMPTY, NAT, sq, nat_num(9))
        assert state.steps == 182

    @pytest.mark.parametrize("seed", range(12))
    def test_church_arithmetic(self, seed):
        rng = random.Random(seed)
        term, value = church_expr(rng, 3)
        while value > 40:
            term, value = church_expr(rng, 3)
        applied = App(App(term, SC), ZERO)
        state = nat_state()
        assert conv(state, EMPTY, NAT, applied, nat_num(value))
        other = value + 1 if value == 0 or rng.random() < 0.5 else value - 1
        assert not conv(state, EMPTY, NAT, applied, nat_num(other))


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
        assert conv(state, EMPTY, NAT, s5_idf_zero(), s5_idf_zero())
        assert state.steps == 0

    def test_unequal_terms_still_reduce(self):
        state = fuel_file_state(max_steps=10_000)
        ctx = EMPTY.push(EVar(Pi(NAT, U(0))))
        with pytest.raises(FuelExhausted):
            conv(state, ctx, U(0), App(Var(0), ZERO),
                 App(Var(0), s5_idf_zero()))

    @pytest.mark.parametrize("t", [
        Var(0), U(0), Pi(U(0), U(0)), Sigma(U(0), U(0)), Lam(Var(0)),
        Pair(Var(0), Var(1)), PLam(Var(0)), CLam(Var(0)),
        TickLam(K0, Var(0)), PathT(U(0), Var(0), Var(0)), Forall(U(0)),
        Later(K0, U(0)), NAT, DFix(K0, Var(0)), PFix(K0, Var(0)),
    ], ids=lambda t: type(t).__name__)
    def test_head_normal_input_costs_one_step(self, t):
        state = st()
        assert whnf(state, TestMachine.CTX, t) is t
        assert state.steps == 1


# --------------------------------------------------------------------------
# Closures: a term under its environment reduces and compares as the term
# with the environment applied, and as substitution one redex at a time
# --------------------------------------------------------------------------

ARITH = """
data nat : U0 where
  | zero
  | succ (m : nat)

def sc : nat -> nat := \\x. succ x
def c2 : (nat -> nat) -> nat -> nat := \\f. \\x. f (f x)
def c3 : (nat -> nat) -> nat -> nat := \\f. \\x. f (f (f x))
def c4 : (nat -> nat) -> nat -> nat := \\f. \\x. f (f (f (f x)))
def add (m : (nat -> nat) -> nat -> nat) (n : (nat -> nat) -> nat -> nat)
  : (nat -> nat) -> nat -> nat := \\f. \\x. m f (n f x)
def mul (m : (nat -> nat) -> nat -> nat) (n : (nat -> nat) -> nat -> nat)
  : (nat -> nat) -> nat -> nat := \\f. m (n f)
def sq (n : (nat -> nat) -> nat -> nat) : (nat -> nat) -> nat -> nat :=
  \\f. n (n f)
def addE (m : nat) (n : nat) : nat :=
  clockelim^0 nat m into (h. nat) with
  | zero => n
  | succ x y => succ y
def mulE (m : nat) (n : nat) : nat :=
  clockelim^0 nat m into (h. nat) with
  | zero => zero
  | succ x y => addE n y
def force (A : U0) (x : forall k. |> (a : k) A) : forall k. A :=
  /\\k'. (k. x {k}) [k', <>]
def delay (A : U0) (x : forall k. A) : forall k. |> (a : k) A :=
  /\\k. tick a : k. x {k}
"""


def lit(n):
    return "zero" if n == 0 else f"succ ({lit(n - 1)})"


def arith_problems(rng):
    """Conversion problems, each with its answer: Church arithmetic applied
    to `sc zero` against a numeral, the clock-free eliminator's
    multiplication against a numeral and against a larger sum, and round
    trips through force and delay against the variable they start from."""
    out = []
    for _ in range(4):
        a, b = rng.randrange(2, 5), rng.randrange(2, 5)
        term, value = rng.choice((
            (f"mul c{a} c{b}", a * b), (f"add c{a} c{b}", a + b),
            (f"sq c{a}", a * a), (f"add (mul c{a} c{b}) c{b}", a * b + b),
        ))
        other = value + rng.choice((0, 0, -1, 1))
        out.append((f"{term} sc zero", lit(other), "nat", other == value))
    for _ in range(3):
        a, b = rng.randrange(5), rng.randrange(5)
        mul = f"mulE ({lit(a)}) ({lit(b)})"
        out.append((mul, lit(a * b), "nat", True))
        out.append((mul, f"addE ({lit(b)}) ({mul})", "nat", b == 0))
    for depth in (1, 3):
        chain = "force nat (delay nat (" * depth + "x" + "))" * depth
        var = rng.choice("xy")
        out.append((f"\\x. \\y. {chain}", f"\\x. \\y. {var}",
                    "(x : forall k. nat) -> (y : forall k. nat)"
                    " -> forall k. nat", var == "x"))
    return out


def arith_module(seed):
    """A checked state with the definitions of ARITH, and the seed's
    problems as (type, left, right, answer)."""
    rng = random.Random(seed)
    problems = arith_problems(rng)
    text = ARITH + "".join(
        f"\n--expect-{'conv' if want else 'not-conv'}\n"
        f"  {lhs}\n  = {rhs}\n  : {ty}\n"
        for lhs, rhs, ty, want in problems)
    state = CheckState()
    convs = []
    for decl in parse_module(text).decls:
        if isinstance(decl, DataDefinition):
            state.add_signature(decl.sig)
        elif isinstance(decl, Definition):
            state.add_definition(decl.name, decl.ty, decl.body)
        else:
            assert isinstance(decl, ConvCheck)
            convs.append((decl.ty, decl.lhs, decl.rhs, decl.want_equal))
    return state, convs


def at_base_type(state, ctx, ty, t, u):
    """t and u applied to fresh variables (and clocks) until their type is
    no function (or clock quantifier) type, as conversion does."""
    while True:
        head = whnf(state, ctx, ty)
        if isinstance(head, Pi):
            ctx, ty = ctx.push(EVar(head.dom)), head.cod
            t, u = (App(weaken(x, T1), Var(0)) for x in (t, u))
        elif isinstance(head, Forall):
            ctx, ty = ctx.push(EClock()), head.body
            t, u = (CApp(weaken(x, C1), 0) for x in (t, u))
        else:
            return ctx, t, u


def spine_closure(ctx, t):
    """t as a closure: the term arguments of its application spine go to an
    environment, each of them such a closure again, and variables take
    their places."""
    spine = []
    head = t
    while type(head) in (App, CApp):
        spine.append(head)
        head = head.fn
    spine.reverse()
    terms = [spine_closure(ctx, a.arg) for a in spine if type(a) is App]
    if not terms:
        return t
    n, left = len(terms), len(terms)
    body = weaken(head, (n, 0, 0, 0))
    for a in spine:
        if type(a) is App:
            left -= 1
            body = App(body, Var(left))
        else:
            body = CApp(body, a.clock)
    return Closure(body, extend(None, ctx.counts, terms=terms))


def materialised(x):
    return x.env.apply(x.term) if type(x) is Closure else x


def conv_steps(state, ctx, t, u):
    before = state.steps
    return conv_tm(state, ctx, t, u), state.steps - before


def reference_verdict(state, ctx, t, u):
    return structural_equal(reference_normal(state, ctx, t),
                            reference_normal(state, ctx, u))


def machine_closures(state, ctx, t, u, depth=6):
    """Pairs of a closure the machine leaves pending on a constructor's
    argument and the argument of u at the same place, down the towers."""
    for _ in range(depth):
        head, env = conversion._whnf_env(state, ctx, t)
        other = whnf(state, ctx, u)
        if type(head) is not Con or env is None or type(other) is not Con \
                or head.label != other.label or not head.recs:
            return
        t, u = Closure(head.recs[0], env), other.recs[0]
        yield t, u


@pytest.mark.parametrize("seed", range(4))
def test_closures_agree_with_materialisation_and_reference(seed):
    state, convs = arith_module(seed)
    compared = 0
    for ty, lhs, rhs, want in convs:
        assert conv(state, EMPTY, ty, lhs, rhs) == want
        ctx, t, u = at_base_type(state, EMPTY, ty, lhs, rhs)
        assert reference_verdict(state, ctx, t, u) == want
        pairs = [(spine_closure(ctx, t), u),
                 *machine_closures(state, ctx, t, u)]
        for closure, other in pairs:
            if type(closure) is not Closure:
                continue
            # A fresh copy each time: a closure keeps what forcing it gave.
            term = materialised(closure)
            got = conv_steps(state, ctx, closure, other)
            assert got == conv_steps(state, ctx, term, other)
            assert got[0] == reference_verdict(state, ctx, term, other)
            compared += 1
    assert compared >= 10


def _outcome(reduce, state, ctx, t):
    try:
        return "term", reduce(state, ctx, t)
    except FuelExhausted:
        return "fuel", None
    except CcttError as err:
        return "error", err.error_class


def _scope_context(sizes):
    terms, clocks, ticks, ivals = sizes
    return Context((EClock(),) * clocks + (ETick(0),) * ticks
                   + (EVar(U(0)),) * terms + (EIVar(),) * ivals)


@pytest.mark.parametrize("seed", range(200))
def test_generated_closures_reduce_as_their_materialisation(seed):
    # Random terms under random environments, forcing ticks among them:
    # the machine started on the closure takes the steps it takes on the
    # term with the environment applied, and ends where reduction by
    # substitution, one redex at a time, ends.
    t, sigma, payloads = generated_case(seed)
    ctx = _scope_context(sigma.scope)
    runs = []
    for x in (Closure(t, sigma), sigma.apply(t)):
        state = nat_state(max_steps=2000)
        runs.append((_outcome(whnf, state, ctx, x), state.steps))
    assert runs[0] == runs[1]
    if runs[0][0][0] == "fuel":
        return
    try:
        ref = _outcome(reference_whnf, nat_state(), ctx,
                       naive_subst(t, **payloads))
    except OutOfReach:
        return
    assert ref == runs[0][0]


def _outcome_both_ways(ctx, ty, t, u):
    """conv's verdicts on t, u and on u, t, each with a fresh budget of
    300 steps, or None for one that raised (an ill-scoped mutant, the
    budget spent)."""
    out = []
    for a, b in ((t, u), (u, t)):
        try:
            out.append(conv(nat_state(max_steps=300), ctx, ty, a, b))
        except CcttError:
            out.append(None)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_conversion_is_symmetric_and_a_closure_is_its_materialisation(seed):
    # The arithmetic module's conversions, and the closures the machine
    # leaves pending in them, give the same verdict both ways round; a
    # closure compared with its own materialisation is equal at once,
    # without a step.  So are generated terms under their environments,
    # forcing ticks among them, against their materialisations and against
    # single-node mutants of those.
    state, convs = arith_module(seed)
    for ty, lhs, rhs, want in convs:
        assert conv(state, EMPTY, ty, lhs, rhs) == want
        assert conv(state, EMPTY, ty, rhs, lhs) == want
        ctx, t, u = at_base_type(state, EMPTY, ty, lhs, rhs)
        for closure, other in [(spine_closure(ctx, t), u),
                               *machine_closures(state, ctx, t, u)]:
            if type(closure) is not Closure:
                continue
            term = materialised(closure)
            before = state.steps
            assert conv(state, ctx, U(0), closure, term)
            assert conv(state, ctx, U(0), term, closure)
            assert state.steps == before
            assert conv_tm(state, ctx, closure, other) == \
                conv_tm(state, ctx, other, closure)
    rng = random.Random(seed)
    for case in range(25 * seed, 25 * seed + 25):
        t, sigma, _ = generated_case(case)
        ctx = _scope_context(sigma.scope)
        m = sigma.apply(t)
        state = nat_state()
        assert conv(state, ctx, U(0), Closure(t, sigma), m)
        assert conv(state, ctx, U(0), m, Closure(t, sigma))
        assert state.steps == 0
        mutants = list(_mutants(m))
        for x in rng.sample(mutants, min(4, len(mutants))):
            a, b = _outcome_both_ways(ctx, U(0), Closure(t, sigma), x)
            assert a == b, (case, x)


class TestPendingConstructors:
    """Comparing towers of constructors applies no environment to a
    constructor, and the clock-free eliminator's rule applies none to the
    eliminator: both stay under their environments."""

    KERNEL = ("data nat : U0 where | zero | succ (m : nat)\n"
              "def sc : nat -> nat := \\x. succ x\n"
              "def ca : (nat -> nat) -> nat -> nat := \\f. \\x. "
              + "f (" * 5 + "x" + ")" * 5 + "\n"
              "def cb : (nat -> nat) -> nat -> nat := \\f. \\x. "
              + "f (" * 8 + "x" + ")" * 8 + "\n"
              "def mul (m : (nat -> nat) -> nat -> nat)"
              " (n : (nat -> nat) -> nat -> nat)"
              " : (nat -> nat) -> nat -> nat := \\f. m (n f)\n"
              "--expect-conv mul ca cb sc zero = mul cb ca sc zero : nat\n")

    @staticmethod
    def substituted(run):
        """What run returns, and the class of every term a substitution
        was applied to while it ran."""
        seen = []
        real = Substitution.apply

        def counting(sigma, t):
            seen.append(type(t))
            return real(sigma, t)

        Substitution.apply = counting
        try:
            result = run()
        finally:
            Substitution.apply = real
        return result, seen

    @staticmethod
    def module(text):
        state = CheckState()
        problems = []
        for decl in parse_module(text).decls:
            if isinstance(decl, DataDefinition):
                state.add_signature(decl.sig)
            elif isinstance(decl, Definition):
                state.add_definition(decl.name, decl.ty, decl.body)
            else:
                problems.append(decl)
        state.steps = 0
        return state, problems

    def test_constructor_towers_compare_pending(self):
        # Both sides unfold to 40 successors, as the benchmark's kernel
        # files do.
        state, (problem,) = self.module(self.KERNEL)
        equal, seen = self.substituted(lambda: conv(
            state, EMPTY, problem.ty, problem.lhs, problem.rhs))
        assert equal
        assert Con not in seen
        assert state.steps == 412

    def test_eliminator_rule_applies_no_environment_to_the_eliminator(
            self):
        state, _ = self.module(ARITH)
        mul = parse_module(ARITH + "\n--expect-conv mulE (" + lit(4)
                           + ") (" + lit(5) + ") = " + lit(20)
                           + " : nat\n").decls[-1]
        equal, seen = self.substituted(lambda: conv(
            state, EMPTY, mul.ty, mul.lhs, mul.rhs))
        assert equal
        assert Con not in seen and ClockElim not in seen
        assert state.steps == 126

    def test_forcing_with_a_diamond_and_eta_apply_no_environment(self):
        # Three force/delay round trips at a type of functions into a
        # clock quantifier: eta applies both sides to fresh variables and
        # a clock, pending, and each forcing with a diamond reduces its
        # function under its environment lifted past the clock, so no
        # substitution is applied to any term.
        state, _ = self.module(ARITH)
        chain = "force nat (delay nat (" * 3 + "x" + "))" * 3
        decl = parse_module(
            ARITH + f"\n--expect-conv\n  \\x. \\y. {chain}\n"
            "  = \\x. \\y. x\n"
            "  : (x : forall k. nat) -> (y : forall k. nat) -> forall k. nat"
            "\n").decls[-1]
        equal, seen = self.substituted(lambda: conv(
            state, EMPTY, decl.ty, decl.lhs, decl.rhs))
        assert equal
        assert seen == []
        assert state.steps == 66

    def test_deep_recursion_keeps_one_eliminator_and_its_environment_size(
            self):
        # A tail-recursive eliminator (motive nat -> nat) passing its
        # accumulator down 2000 successors.  The first recursive call is
        # the eliminator's own fields on a new scrutinee variable, and each
        # deeper call is that same term again, so two eliminators are
        # reduced in all, and the environment they reduce under keeps its
        # size however deep the recursion goes.
        cases = (
            ElimCase("zero", 0, 0, 0, Lam(Var(0))),
            ElimCase("succ", 0, 1, 0, Lam(App(Var(1), Var(0)))),
        )
        root = ClockElim("nat", 0, (), Pi(NAT, NAT), cases, nat_num(2000))
        state = nat_state()
        seen, sizes = set(), set()
        real = conversion._elim_con

        def recording(state, ctx, elim, env, con, cenv):
            seen.add(id(elim))
            sizes.add(0 if env is None else len(env.block[0]))
            return real(state, ctx, elim, env, con, cenv)

        conversion._elim_con = recording
        try:
            assert whnf(state, EMPTY, App(root, ZERO)) == ZERO
        finally:
            conversion._elim_con = real
        assert state.steps == 8005
        assert len(seen) == 2
        assert max(sizes) <= 2

    ORD = ("data nat : U0 where | zero | succ (m : nat)\n"
           "data ord : U0 where | oz | os (o : ord) | lim (f : nat -> ord)\n"
           "def depth (b : nat) (o : ord) : nat :=\n"
           "  clockelim^0 ord o into (h. nat) with\n"
           "  | oz => b\n"
           "  | os x y => succ y\n"
           "  | lim f g => succ (g (succ b))\n"
           "def big : ord := lim (\\n. lim (\\m. os (lim (\\k. os oz))))\n")

    @pytest.mark.parametrize("arg, depth, steps", [
        ("big", 5, 86), ("os big", 6, 94), ("lim (\\n. big)", 6, 102),
    ])
    def test_recursive_arguments_of_function_type(self, arg, depth, steps):
        # lim's recursive call takes an argument: its template is under a
        # lambda, and the eliminator in it continues in depth's cases, in
        # depth's environment (b).
        goal = "zero"
        for _ in range(depth):
            goal = f"succ ({goal})"
        state, (right, wrong) = self.module(
            self.ORD + f"--expect-conv depth zero ({arg}) = {goal} : nat\n"
            f"--expect-conv depth zero ({arg}) = succ ({goal}) : nat\n")
        assert conv(state, EMPTY, right.ty, right.lhs, right.rhs)
        assert not conv(state, EMPTY, wrong.ty, wrong.lhs, wrong.rhs)
        assert state.steps == steps
